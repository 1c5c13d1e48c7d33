"""Workload inputs for the appellfq benchmark.

Every workload is a list of operations generated from the benchmark's
seed; the program under test receives only these operations. A verify
operation is (identity id, q, mode, sample count, seed, jobs); a table
operation is (kind, q). Exhaustive and table operations do not depend on
the seed, so their recorded digests hold for every seed.

`full` is the benchmark proper. `smoke` keeps the same structure at tiny
sizes (q in {3, 4}, a few samples) for the benchmark's own test.
"""

from __future__ import annotations

DEFAULT_SEED = 20240811
WORKLOADS = ("exhaustive", "sampled", "large-q", "table")

# The 28 registry ids, fixed here so that the inputs do not change when the
# registry does.
IDS = (
    "thm1.1", "thm1.2", "thm1.3", "cor1.1-sym", "cor1.1-diag", "cor1.1-y1",
    "prop2.1-a", "prop2.1-b", "prop2.2", "prop2.3-a", "prop2.3-b",
    "thm3.1-a", "thm3.1-b", "thm3.3-a", "thm3.3-b", "thm3.3-c",
    "thm3.4-a", "thm3.4-b", "cor3.1", "cor3.1-greene-extended",
    "cor3.2-a", "cor3.2-b", "thm3.7", "cor3.3",
    "thm4.1", "thm4.2", "thm4.3-a", "thm4.3-b",
)

SIZES = {
    "full": {
        # acceptance criteria 1-3 restricted to q <= 5
        "exhaustive": {"qs": (3, 4, 5), "jobs": 2},
        # criterion 5 scaled down to 150 samples per (id, q)
        "sampled": {"qs": (11, 13, 16, 17, 25), "samples": 150},
        "large-q": {"qs": (101,), "samples": 6},
        "table": (("f1", 7), ("f21", 17)),
    },
    "smoke": {
        "exhaustive": {"qs": (3, 4), "jobs": 2},
        "sampled": {"qs": (3, 4), "samples": 3},
        "large-q": {"qs": (4,), "samples": 2},
        "table": (("f1", 3), ("f21", 4)),
    },
}


def operations(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The operations of one pass of `workload`, in report order."""
    spec = SIZES[size][workload]
    if workload == "table":
        return [{"kind": "table", "what": what, "q": q} for what, q in spec]
    if workload == "exhaustive":
        return [
            {"kind": "verify", "id": ident, "q": q, "mode": "exhaustive",
             "samples": None, "seed": None, "jobs": spec["jobs"]}
            for q in spec["qs"]
            for ident in IDS
        ]
    return [
        {"kind": "verify", "id": ident, "q": q, "mode": "sampled",
         "samples": spec["samples"], "seed": seed, "jobs": 1}
        for q in spec["qs"]
        for ident in IDS
    ]


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` of a run: the run's seed for its first pass,
    then seeds derived from it, so that the passes of one run sample
    different bindings and a run's inputs still depend on its seed alone."""
    return seed if index == 0 else (seed * 1_000_003 + index) % 2**63


def seed_dependent(workload: str) -> bool:
    """Whether the workload's inputs, and so its digests, vary with the seed."""
    return workload in ("sampled", "large-q")


def field_qs(ops: list[dict]) -> list[int]:
    """Distinct field sizes of a pass, in first-use order."""
    out: list[int] = []
    for op in ops:
        if op["q"] not in out:
            out.append(op["q"])
    return out
