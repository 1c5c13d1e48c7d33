"""One measured process of the benchmark: a workload pass or the kernels.

Run as `python3 perfbench/child.py '<json spec>'`; the last line of
standard output is a JSON result. Each pass runs in a fresh interpreter
so that set-up is paid the way a command-line user pays it, and so that
its peak resident memory is its own.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    afq = importlib.import_module("appellfq")
    if not Path(afq.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"appellfq imported from {afq.__file__}, not {src}")
    for mod in ("cyclotomic", "characters", "fields", "hypergeometric",
                "identities", "verifier", "cli"):
        importlib.import_module(f"appellfq.{mod}")
    return afq


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


REF_LOOP = 30_000  # iterations of the reference loop's interpreter part
REF_ARRAY = np.arange(1 << 13, dtype=np.int64)  # operand of its numpy part
REF_NOMINAL_S = 0.025  # its time at the speed the timings are scaled to
REF_EVERY_S = 0.25  # measured time per loop of a reference sample


def reference_s() -> float:
    """Time of a fixed loop of work like the package's, small dict and tuple
    allocations in the interpreter, then numpy arithmetic on a small array:
    how fast this machine runs now. It keeps nothing and its arrays are
    small, so it adds nothing to a pass's peak memory."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        d = {"a": i, "b": (i, i + 1)}
        acc += d["b"][0] + d["a"]
    a = REF_ARRAY
    for k in range(160):
        b = (a * (k + 3)) % 97
        acc += int(b.sum()) + int(np.take(b, a[::-1] & 1023)[0])
    return time.perf_counter() - t0


class ScaledClock:
    """Measured pieces of time, each scaled to a fixed machine speed.

    A shared machine changes speed by tens of percent for minutes at a
    time, and the reference loop slows with the workloads. The loop is
    timed between measured pieces, never inside one: at the start, then
    once for every REF_EVERY_S of time measured since the last sample, and
    at the end. A piece is scaled by REF_NOMINAL_S over the mean of the
    reference times on either side of it, so it reads as seconds on a
    machine where the loop takes REF_NOMINAL_S.
    """

    def __init__(self):
        self.refs = [statistics.fmean(reference_s() for _ in range(4))]
        self._segments: list[list] = [[]]  # pieces between refs[i] and refs[i + 1]
        self._since = 0.0

    def add(self, label: str, seconds: float, close: bool = True) -> None:
        """Record a piece; with `close`, a reference sample may follow it."""
        self._segments[-1].append((label, seconds))
        self._since += seconds
        if close and self._since >= REF_EVERY_S:
            self.sample()

    def sample(self) -> None:
        """Time the loop once per REF_EVERY_S measured since the last
        sample, at least once, and keep the mean."""
        if self._segments[-1]:
            loops = max(1, round(self._since / REF_EVERY_S))
            self.refs.append(statistics.fmean(reference_s() for _ in range(loops)))
            self._segments.append([])
            self._since = 0.0

    def pieces(self, label: str) -> list[tuple[float, float]]:
        """(raw, scaled) seconds of every closed piece named `label`."""
        out = []
        for i, seg in enumerate(self._segments[: len(self.refs) - 1]):
            scale = 2 * REF_NOMINAL_S / (self.refs[i] + self.refs[i + 1])
            out += [(s, s * scale) for name, s in seg if name == label]
        return out


def _setup(afq, qs):
    """The set-up calls of a verify pass: field tables and contexts."""
    fields = {}
    for q in qs:
        ft = afq.fields.build_field(*afq.fields.prime_power_decompose(q))
        afq.identities.EvalContext(ft)
        fields[q] = ft
    return fields


def _setup_table(afq, qs):
    for q in qs:
        afq.fields.build_field(*afq.fields.prime_power_decompose(q))


def _run_verify(afq, op, ft, stream) -> dict:
    """One report, hashed as the cli writes it: a JSON line."""
    rep = afq.verifier.verify(
        op["id"], ft, mode=op["mode"], sample_count=op["samples"],
        seed=op["seed"], jobs=op["jobs"],
    )
    ok = rep.passed and (op["samples"] is None or rep.cases == op["samples"])
    data = (json.dumps(rep.to_json()) + "\n").encode()
    stream.update(data)
    return {"ok": ok, "digest": hashlib.sha256(data).hexdigest(),
            "cases": rep.cases, "bytes": len(data)}


def _run_table(afq, op, out_dir: Path, stream) -> dict:
    """One `table` command into a file, hashed in chunks so that reading it
    back adds nothing to the pass's peak memory."""
    path = out_dir / f"table-{os.getpid()}-{op['what']}-{op['q']}.jsonl"
    digest, rows, size = hashlib.sha256(), 0, 0
    try:
        code = afq.cli.main(["table", op["what"], "-q", str(op["q"]), "--out", str(path)])
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                stream.update(chunk)
                rows += chunk.count(b"\n")
                size += len(chunk)
    finally:
        path.unlink(missing_ok=True)
    return {"ok": code == 0, "digest": digest.hexdigest(), "cases": rows, "bytes": size}


def run_pass(spec: dict, afq) -> dict:
    workload = spec["workload"]
    seed = workloads.pass_seed(spec["seed"], spec.get("index", 0))
    ops = workloads.operations(workload, seed, spec["size"])
    if spec.get("jobs") is not None:
        for op in ops:
            if op["kind"] == "verify":
                op["jobs"] = spec["jobs"]
    qs = workloads.field_qs(ops)
    out_dir = Path(spec["out_dir"])

    tracer = None
    if spec["trace"]:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, afq)

    # set-up inside `table` happens in the cli's own build_field call
    cli_build = afq.cli.build_field
    cli_setup = [0.0]

    def timed_build(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return cli_build(*args, **kwargs)
        finally:
            cli_setup[0] += time.perf_counter() - t0

    afq.cli.build_field = timed_build

    stream = hashlib.sha256()
    results = []
    clock = ScaledClock()
    fields = {}
    if workload != "table":
        t0 = time.perf_counter()
        fields = _setup(afq, qs)
        clock.add("setup", time.perf_counter() - t0)
    for op in ops:
        inner_setup = cli_setup[0]
        t0 = time.perf_counter()
        try:
            if op["kind"] == "table":
                res = _run_table(afq, op, out_dir, stream)
            else:
                res = _run_verify(afq, op, fields[op["q"]], stream)
        except Exception as exc:  # a raising operation counts as failed
            print(f"perfbench: {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
            res = {"ok": False, "digest": None, "cases": 0, "bytes": 0}
        op_s = time.perf_counter() - t0
        inner_setup = cli_setup[0] - inner_setup
        if op["kind"] == "table":
            clock.add("setup", inner_setup, close=False)
        clock.add("work", op_s - inner_setup)
        results.append(res)
    afq.cli.build_field = cli_build
    if tracer is None:
        _repeat_setup(afq, workload, qs, clock)
    clock.sample()

    setup = clock.pieces("setup")
    n_setup = len(ops) if workload == "table" else 1
    setup_s = sum(scaled for _, scaled in setup[:n_setup])
    work_s = sum(scaled for _, scaled in clock.pieces("work"))
    out = {
        "wall_s": setup_s + work_s,
        "setup_s": setup_s,
        "work_s": work_s,
        "raw_wall_s": sum(raw for raw, _ in setup[:n_setup] + clock.pieces("work")),
        "ref_s": statistics.median(clock.refs),
        "ops": results,
        "stream": stream.hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["layers"] = _layers(tracer, afq, workload, qs)
        tracer.write_spans(out_dir / f"spans-{workload}.jsonl")
    else:
        # the pass's own set-up, then the repeats
        out["setup_samples_s"] = [setup_s] + [scaled for _, scaled in setup[n_setup:]]
    return out


def _repeat_setup(afq, workload: str, qs, clock: ScaledClock) -> None:
    """Repeat the pass's set-up with fresh fields until set-up has taken
    about 0.2 s in all, each repeat a "setup" piece of `clock`."""
    setup = _setup_table if workload == "table" else _setup
    start = sum(raw for raw, _ in clock.pieces("setup"))
    spent, n = start, 0
    while n < 2000 and spent < 0.2:
        t0 = time.perf_counter()
        setup(afq, qs)
        took = time.perf_counter() - t0
        clock.add("setup", took)
        spent, n = spent + took, n + 1


def _layers(tracer, afq, workload: str, qs) -> dict:
    t = tracer
    out = {
        "fields.build_s": t.total_s("fields.build"),
        "characters.binom_table_s": t.total_s("characters.binom_table"),
        "characters.binom_table_mb": 0.0,
        "identities.ctx_build_s": t.total_s("identities.ctx_build"),
        "verifier.scan.self_s": t.self_s("verifier.scan"),
        "verifier.thm13_batch_s": t.total_s("verifier.thm13_batch"),
        "cli.serialize_s": t.self_s("cli.serialize"),
        "cli.write_s": t.self_s("cli.write"),
    }
    for layer in ("identities.eval", "hypergeometric.f21_point",
                  "hypergeometric.f1_point", "hypergeometric.f21_charsum",
                  "hypergeometric.f1_charsum", "cyclotomic.mul",
                  "cyclotomic.reduce", "verifier.prng"):
        out[f"{layer}.calls"] = t.calls(layer)
        out[f"{layer}.self_s"] = t.self_s(layer)
    muls = t.calls("cyclotomic.mul")
    out["cyclotomic.mul.root_share"] = t.root_muls / muls if muls else 0.0
    if workload != "table":
        out["characters.binom_table_mb"] = _binom_table_mb(afq, qs)
    return out


def _binom_table_mb(afq, qs) -> float:
    """tracemalloc peak of cold binomial tables for all of the pass's fields,
    held together as a pass holds them."""
    import tracemalloc

    fts = [afq.fields.build_field(*afq.fields.prime_power_decompose(q)) for q in qs]
    tracemalloc.start()
    try:
        tables = [afq.characters.binomial_table(ft) for ft in fts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tables
    return peak / 2**20


def run_kernels(spec: dict, afq) -> dict:
    import kernels

    return {"kernels": kernels.run(afq)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    afq = import_package(Path(spec["root"]))
    task = run_kernels if spec["task"] == "kernels" else run_pass
    result = task(spec, afq)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
