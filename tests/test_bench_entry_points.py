"""The package names the benchmark wraps at run time still exist and run.

`perfbench/spans.py` patches functions and methods of the package by name
for the traced pass (`perfbench/run.py --trace 1`). A renamed one would
break only that pass, so this test runs the same instrumentation on a
fresh import of the package, in its own interpreter, and one traced verify.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
from child import import_package
from spans import Tracer, instrument
afq = import_package(root)
tracer = Tracer()
instrument(tracer, afq)
rep = afq.verifier.verify("thm4.3-a", afq.fields.build_field(5, 1))
calls = {name: agg[0] for name, agg in tracer.totals.items()}
print(json.dumps({"passed": rep.passed, "cases": rep.cases, "calls": calls}))
"""


def test_benchmark_instrumentation_runs_a_traced_verify():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["passed"] and out["cases"] > 0
    calls = out["calls"]
    for name in ("fields.build", "verifier.verify", "identities.ctx_build",
                 "characters.binom_table"):
        assert calls[name] == 1, name
    for name in ("verifier.scan", "identities.eval", "hypergeometric.f21_point",
                 "cyclotomic.mul"):
        assert calls[name] > 0, name
