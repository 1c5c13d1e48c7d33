"""The package names the benchmark wraps at run time still exist and run.

`perfbench/spans.py` patches functions and methods of the package by name
for the traced pass (`perfbench/run.py --trace 1`). A renamed one would
break only that pass, so this test runs the same instrumentation on a
fresh import of the package, in its own interpreter, on two verifies.
Both modes are batched: the sampled verify of thm4.3-a's documented
mutant reduces its failing bindings' counts, one `_Ring.reduce_rows` a
side for its one chunk (which
the benchmark does not wrap: its `cyclotomic.reduce` span still wraps
`CycInt.from_powers`, which no package path calls any more), and the
exhaustive verify of the registered entry reduces nothing.
`identities.EvalContext` is `BatchContext` under the name the benchmark
wraps, so its build is counted once per verify, and the binomial table
is no longer read through `identities`. The script also evaluates the
mutant at its first failing binding on the tests' scalar `EvalContext`
(`scalar_reference`), through its point-sum loop and `CycInt` multiply,
which must give the values the report holds. An exhaustive verify that
passes is settled by the Fourier check and reaches no scan; the mutant's
exhaustive verify scans for its records.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import dataclasses, json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
from child import import_package
from spans import Tracer, instrument
afq = import_package(root)
sys.path.insert(0, str(root / "tests"))
from scalar_reference import EvalContext
tracer = Tracer()
instrument(tracer, afq)
reduced = []
ring_type = afq.cyclotomic._Ring
reduce_rows = ring_type.reduce_rows
ring_type.reduce_rows = lambda *a: reduced.append(1) or reduce_rows(*a)
ft = afq.fields.build_field(5, 1)
entry = afq.get_identity("thm4.3-a")
mutant = dataclasses.replace(entry, rhs=entry.mutation.fn)
rep = afq.verifier.verify(mutant, ft, mode="sampled", sample_count=40, seed=1)
verify_calls = {name: agg[0] for name, agg in tracer.totals.items()}
verify_reduced = len(reduced)
ctx = EvalContext(ft)
first = rep.counterexamples[0]
binding = tuple(first["binding"].values())
scalar = (mutant.lhs(ctx, binding) == first["lhs"]
          and mutant.rhs(ctx, binding) == first["rhs"])
calls = {name: agg[0] for name, agg in tracer.totals.items()}
full = afq.verifier.verify("thm4.3-a", ft)
exhaustive_reduced = len(reduced) - verify_reduced
scans = tracer.totals["verifier.scan"][0]
failing = afq.verifier.verify(mutant, ft)
print(json.dumps({"passed": rep.passed, "cases": rep.cases, "calls": calls,
                  "verify_calls": verify_calls, "scalar_equal": scalar,
                  "records": len(rep.counterexamples), "verify_reduced": verify_reduced,
                  "exhaustive_reduced": exhaustive_reduced,
                  "exhaustive_passed": full.passed, "exhaustive_cases": full.cases,
                  "scans": scans, "failing_passed": failing.passed,
                  "failing_scans": tracer.totals["verifier.scan"][0]}))
"""


def test_benchmark_instrumentation_runs_a_traced_verify():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert not out["passed"] and out["cases"] == 40
    # the verify reduces the failing bindings' counts (one call a side for
    # the rows of its one chunk), not through the wrapped
    # `CycInt.from_powers`, and the context it builds is the one
    # `BatchContext`
    verify_calls = out["verify_calls"]
    assert out["records"] > 1 and out["verify_reduced"] == 2
    assert verify_calls["cyclotomic.reduce"] == 0
    assert verify_calls["identities.ctx_build"] == 1
    assert out["scalar_equal"]
    calls = out["calls"]
    for name in ("fields.build", "verifier.verify", "identities.ctx_build"):
        assert calls[name] == 1, name
    assert calls["characters.binom_table"] == 0
    for name in ("verifier.scan", "identities.eval", "hypergeometric.f21_point",
                 "cyclotomic.mul"):
        assert calls[name] > 0, name
    assert out["exhaustive_passed"] and out["exhaustive_cases"] == 4**3 * 5 * 4
    assert out["exhaustive_reduced"] == 0
    # a passing exhaustive verify is settled by the Fourier check and
    # reaches no scan; a failing one scans for its records
    assert out["scans"] == calls["verifier.scan"]
    assert not out["failing_passed"] and out["failing_scans"] > out["scans"]
