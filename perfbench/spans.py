"""Span recording for the traced pass.

The benchmark edits nothing in the package. It wraps, at run time, the
module-level functions and methods that callers look up by name, so each
call becomes a span (name, start, end, parent). A span's self time is its
duration minus the time covered by its child spans.

Hot-path spans (millions per pass) are folded into per-name totals as
they close, so memory stays flat; coarse spans (set-up calls, one verify
or table command) are also kept whole and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import time
import types


class Tracer:
    """Per-name call counts, self time and total time, plus kept spans."""

    def __init__(self):
        self._stack: list[list] = []  # [child seconds, kept-span index]
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.root_muls = 0

    def wrap(self, name: str, fn, keep: bool = False):
        """`fn` with every call recorded as a span named `name`."""
        clock = time.perf_counter
        stack = self._stack
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[2] += dur
                if keep:
                    spans[frame[1]][1:3] = [t0, t1]

        return traced

    def calls(self, name: str) -> int:
        return self.totals[name][0]

    def self_s(self, name: str) -> float:
        return self.totals[name][1]

    def total_s(self, name: str) -> float:
        return self.totals[name][2]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def instrument(tracer: Tracer, afq) -> None:
    """Wrap the layer boundaries of the imported package `afq`.

    Each name is patched where its caller looks it up: identities calls
    the point and character sums through its own module globals, the
    public wrappers and the cli through hypergeometric's, and the
    verifier its helpers through verifier's.
    """
    cyc, hyp, ids, ver, cli, fields = (
        afq.cyclotomic, afq.hypergeometric, afq.identities, afq.verifier,
        afq.cli, afq.fields,
    )
    w = tracer.wrap

    build = w("fields.build", fields.build_field, keep=True)
    fields.build_field = cli.build_field = build
    ids.binomial_table = w("characters.binom_table", ids.binomial_table)
    ids.EvalContext.__init__ = w("identities.ctx_build", ids.EvalContext.__init__)

    for entry in ids.registry():
        # IdentityCase is frozen; the verifier keeps comparing by identity
        object.__setattr__(entry, "lhs", w("identities.eval", entry.lhs))
        object.__setattr__(entry, "rhs", w("identities.eval", entry.rhs))

    for fname, layer in (
        ("f21_point_idx", "hypergeometric.f21_point"),
        ("f1_point_idx", "hypergeometric.f1_point"),
        ("f21_charsum_idx", "hypergeometric.f21_charsum"),
        ("f1_charsum_idx", "hypergeometric.f1_charsum"),
    ):
        wrapped = w(layer, getattr(hyp, fname))
        setattr(hyp, fname, wrapped)
        setattr(ids, fname, wrapped)

    roots: dict[int, frozenset] = {}

    def root_coeffs(n):
        s = roots.get(n)
        if s is None:
            s = roots[n] = frozenset(cyc.root_of_unity(n, k).coeffs for k in range(n))
        return s

    mul = w("cyclotomic.mul", cyc.CycInt.__mul__)

    def counted_mul(self, other):
        if self.coeffs in root_coeffs(self.n) or (
            type(other) is cyc.CycInt and other.coeffs in root_coeffs(other.n)
        ):
            tracer.root_muls += 1
        return mul(self, other)

    cyc.CycInt.__mul__ = counted_mul
    cyc.CycInt.__rmul__ = counted_mul
    cyc.CycInt.from_powers = staticmethod(
        w("cyclotomic.reduce", cyc.CycInt.from_powers)
    )

    ver.verify = w("verifier.verify", ver.verify, keep=True)
    ver._scan_range = w("verifier.scan", ver._scan_range)
    ver._scan_samples = w("verifier.scan", ver._scan_samples)
    ver._sample_binding = w("verifier.prng", ver._sample_binding)
    ver._thm13_exhaustive_batch = w("verifier.thm13_batch", ver._thm13_exhaustive_batch)

    cli.main = w("cli.main", cli.main, keep=True)
    cli._emit = w("cli.write", cli._emit)
    cli._value_payload = w("cli.serialize", cli._value_payload)
    # the cli only calls json.dumps
    cli.json = types.SimpleNamespace(dumps=w("cli.serialize", cli.json.dumps))
