"""The appellfq benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The workloads (see workloads.py) drive
the public library and cli of `src/appellfq` from outside; nothing under
`src/` is edited. Every pass runs in a fresh process (child.py).

--trace 0 repeats untraced passes for about --seconds seconds and prints
the end-to-end metrics of BENCHMARK.json: setup_s is the median of every
set-up in the run (each pass sets up once, cold, then repeats its set-up
until set-up has taken 0.2 s); wall_s is the mean pass, and cases_per_s
all cases over all time after set-up; peak_rss_mb is the median over
passes. Every time is scaled to a fixed machine speed by a reference
loop timed between the measured pieces (child.ScaledClock), because a
shared machine changes speed by tens of percent for minutes at a time;
the detail line keeps each pass's raw wall time and reference time.
--trace 1 runs one untraced pass at jobs=1 (the base of trace.overhead),
for `exhaustive` one more at its own jobs (verifier.pool.speedup), one
traced pass at jobs=1, since spans in forked workers never reach the
parent, and the fixed-input kernels; it prints the per-layer metrics.

Every pass is checked: each report must pass with the expected case
count, each `table` command must exit 0, and the sha256 of each report
line or table file must equal the digest in digests.json, recorded for
the default seed (exhaustive and table inputs do not depend on the seed,
so theirs are checked on every seed; the passes of a run after the
first draw from seeds derived from the run's seed, see
workloads.pass_seed, and are checked on pass and case counts only).
`--record` rewrites digests.json from the code as it is; use it only
when a change of output is intended.

The last line of standard output is the result; the line before it is
the detail: medians with their extremes and counts, the seed and the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
MODULES = ("__init__", "characters", "cli", "cyclotomic", "fields",
           "hypergeometric", "identities", "verifier")


class ChildFailed(Exception):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    """Run child.py with `spec`; its whole process group ends with it."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise ChildFailed(f"{spec['task']} timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['task']} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


class Check:
    """Counts attempted and failed operations against the recorded digests."""

    def __init__(self, workload: str, seed: int, size: str, digests: dict):
        rec = digests.get(size, {}).get(workload)
        self.cases = rec["cases"] if rec else None
        self.expected = rec if rec and rec["seed"] in (None, seed) else None
        # passes after the first of a seeded workload draw other bindings
        self.first_only = workloads.seed_dependent(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = [] if rec else [f"no digests recorded for {workload}"]

    def add_pass(self, res: dict, index: int = 0) -> None:
        ops = res["ops"]
        self.attempted += len(ops)
        expected = None if index and self.first_only else self.expected
        want = expected["ops"] if expected else [None] * len(ops)
        if len(want) != len(ops):
            self.problems.append(f"{len(ops)} operations, {len(want)} recorded")
            want = [None] * len(ops)
        for op, digest in zip(ops, want):
            if not op["ok"] or (digest is not None and op["digest"] != digest):
                self.failed += 1
        total = sum(op["cases"] for op in ops)
        if self.cases is not None and total != self.cases:
            self.problems.append(f"{total} cases, {self.cases} expected")
        if expected and res["stream"] != expected["stream"]:
            self.problems.append("report stream digest differs")

    def add_crash(self, n_ops: int, why: str) -> None:
        self.attempted += n_ops
        self.failed += n_ops
        self.problems.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def cases_of(res: dict) -> int:
    return sum(op["cases"] for op in res["ops"])


def line_counts() -> dict:
    pkg = ROOT / "src" / "appellfq"
    out = {}
    for mod in MODULES:
        path = pkg / f"{mod}.py"
        name = "init" if mod == "__init__" else mod
        out[f"{name}.lines"] = len(path.read_text().splitlines()) if path.exists() else 0
    out["src.lines"] = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = None
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m": load1,
        **line_counts(),
    }


def timed_run(args, base: dict, check: Check, deadline: float) -> tuple[dict, dict]:
    """Untraced passes for about args.seconds; end-to-end metrics."""
    passes: list[dict] = []
    start = time.monotonic()
    n_ops = len(workloads.operations(args.workload, args.seed, args.size))
    while True:
        t0 = time.monotonic()
        try:
            res = run_child({**base, "task": "pass", "trace": False,
                             "index": len(passes)}, deadline)
        except ChildFailed as exc:
            check.add_crash(n_ops, str(exc))
            break
        check.add_pass(res, len(passes))
        passes.append(res)
        now = time.monotonic()
        last = now - t0
        if now - start + last > args.seconds or now + last > deadline:
            break
    if not passes:
        return {}, {}
    walls = [p["wall_s"] for p in passes]
    work = [p["work_s"] for p in passes]
    setups = [t for p in passes for t in p["setup_samples_s"]]
    detail = {
        "setup_s": summary(setups),
        "wall_s": summary(walls),
        "cases_per_s": summary([cases_of(p) / w for p, w in zip(passes, work)]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "numpy": passes[0]["numpy"],
    }
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "cases_per_s": sum(cases_of(p) for p in passes) / sum(work),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, detail


def traced_run(args, base: dict, check: Check, deadline: float) -> tuple[dict, dict]:
    """Untraced and traced passes at jobs=1, plus kernels; per-layer metrics."""
    ops = workloads.operations(args.workload, args.seed, args.size)
    n_ops = len(ops)
    pooled_jobs = max(op.get("jobs", 1) for op in ops)
    runs = {}
    plan = [("base", {"task": "pass", "trace": False, "jobs": 1})]
    if pooled_jobs > 1:
        plan.append(("pooled", {"task": "pass", "trace": False, "jobs": None}))
    plan += [("traced", {"task": "pass", "trace": True, "jobs": 1}),
             ("kernels", {"task": "kernels"})]
    for name, extra in plan:
        try:
            runs[name] = run_child({**base, **extra}, deadline)
        except ChildFailed as exc:
            if extra["task"] == "pass":
                check.add_crash(n_ops, str(exc))
            else:
                check.problems.append(str(exc))
            return {}, {}
        if extra["task"] == "pass":
            check.add_pass(runs[name])

    base_res, traced = runs["base"], runs["traced"]
    values = dict(traced["layers"])
    is_table = args.workload == "table"
    values["cli.rows"] = cases_of(traced) if is_table else 0
    values["cli.output_mb"] = sum(op["bytes"] for op in traced["ops"]) / 2**20 if is_table else 0.0
    pooled = runs.get("pooled")
    values["verifier.pool.speedup"] = base_res["wall_s"] / pooled["wall_s"] if pooled else 1.0
    for name, k in runs["kernels"]["kernels"].items():
        if name == "verifier.pool.start":
            values["verifier.pool.start_s"] = k["median_us"] / 1e6
        else:
            values[f"{name}.median_us"] = k["median_us"]
        values[f"{name}.calls"] = k["calls"]
    values.update(line_counts())
    values["trace.overhead"] = traced["wall_s"] / base_res["wall_s"]
    detail = {
        "wall_s": {name: r["wall_s"] for name, r in runs.items() if "wall_s" in r},
        "pooled_jobs": pooled_jobs,
        "numpy": base_res["numpy"],
    }
    return values, detail


def record(args) -> int:
    """Rewrite the digests of every workload at the default seed."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    deadline = time.monotonic() + 3600
    size = digests.setdefault(args.size, {})
    for workload in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        res = run_child({"root": str(ROOT), "workload": workload, "seed": seed,
                         "size": args.size, "out_dir": str(OUT_DIR), "task": "pass",
                         "trace": False}, deadline)
        if not all(op["ok"] for op in res["ops"]):
            print(f"{workload}: an operation failed; nothing recorded", file=sys.stderr)
            return 1
        size[workload] = {
            "seed": seed if workloads.seed_dependent(workload) else None,
            "cases": cases_of(res),
            "stream": res["stream"],
            "ops": [op["digest"] for op in res["ops"]],
        }
        print(f"{workload}: {len(res['ops'])} operations, {cases_of(res)} cases")
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="'smoke' runs the same workloads at tiny sizes")
    ap.add_argument("--digests", type=Path, default=DIGESTS,
                    help="recorded digests to check against")
    ap.add_argument("--record", action="store_true",
                    help="rewrite digests.json for --size at the default seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "appellfq" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'appellfq'}", file=sys.stderr)
        return 2
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        print(f"perfbench: {bench} is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        return record(args)
    if args.workload is None:
        ap.error("--workload is required")

    # leave through run_child's cleanup, which ends the child's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    digests = json.loads(args.digests.read_text()) if args.digests.exists() else {}
    check = Check(args.workload, args.seed, args.size, digests)
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "size": args.size, "out_dir": str(OUT_DIR)}
    run = traced_run if args.trace else timed_run
    values, detail = run(args, base, check, deadline)

    spec = json.loads(bench.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if values and m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}

    detail.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "digests_checked": check.expected is not None, "problems": check.problems,
        "environment": {**env, "numpy": detail.pop("numpy", None)},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": check.correct, "attempted": max(check.attempted, 1),
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
