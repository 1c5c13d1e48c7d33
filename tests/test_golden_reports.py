"""Report bytes of documented mutants, pinned against recorded digests.

A mutant's report carries counterexamples with exact lhs/rhs values; with
no cap on their number, a matching digest shows that both sides still
return the same value at every binding where the mutant fails, in the
same order. The digests in `golden_reports.json` are sha256 of the JSON
line `verify` prints. Rewrite them (`python tests/test_golden_reports.py`) only when a report
change is intended.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from appellfq import build_field, get_identity, registry, verify
from appellfq.cli import main
from appellfq.fields import prime_power_decompose
from appellfq.verifier import mutated_case

GOLDEN = Path(__file__).with_name("golden_reports.json")
IDS = ("thm4.1", "thm4.2", "thm4.3-a", "thm4.3-b", "thm1.1", "thm1.3")
SAMPLED_Q = (13, 25)
SAMPLES = 120
SEED = 20170109
CAP = 10**6  # keep every counterexample, so each failing binding is pinned
# thm1.3 at larger n pins the double character sum (the lhs) where its
# group-ring contraction is widest; q = 101 costs a few ms per sample
WIDE_SAMPLES = {16: SAMPLES, 101: 12}
# every documented mutant is killed at q = 5 (at q = 4 only 21 of 28 are)
# sha256 of the stdout of `appellfq verify --all --sampled --samples 20
# -q 1021`: every registered id at n = 1020, where each product's operands
# are widest in the contracted suite
WIDE_N_ARGV = ("verify", "--all", "--sampled", "--samples", "20", "-q", "1021")
WIDE_N_DIGEST = "132a97cb085c88b077789dbdd3def6fd65d20d31cb233969f75a3fbf923d1820"
CASES = [(e.id, 5, "exhaustive") for e in registry()] + [
    (i, q, "sampled") for q in SAMPLED_Q for i in IDS
] + [("thm1.3", q, "sampled") for q in WIDE_SAMPLES]


def _key(identity_id, q, mode):
    return f"{identity_id} q={q} {mode}"


def _digest(identity_id, q, mode):
    entry = get_identity(identity_id)
    lhs, rhs = mutated_case(entry)
    mutant = dataclasses.replace(entry, lhs=lhs, rhs=rhs)
    ft = build_field(*prime_power_decompose(q))
    samples = WIDE_SAMPLES.get(q, SAMPLES)
    kw = {"sample_count": samples, "seed": SEED} if mode == "sampled" else {}
    rep = verify(mutant, ft, mode=mode, max_counterexamples=CAP, **kw)
    assert rep.counterexamples, "a documented mutant must be caught"
    line = json.dumps(rep.to_json())
    return hashlib.sha256(line.encode()).hexdigest()


@pytest.mark.parametrize("identity_id,q,mode", CASES,
                         ids=[_key(*c) for c in CASES])
def test_mutant_report_matches_golden(identity_id, q, mode):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(identity_id, q, mode) == golden[_key(identity_id, q, mode)]


def test_sampled_reports_at_q1021_match_golden(capsys):
    assert main(list(WIDE_N_ARGV)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_N_DIGEST


if __name__ == "__main__":
    digests = {_key(*c): _digest(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {GOLDEN}\n")
