"""Command-line front end: field info, single evaluations, value tables,
and the identity verification suite, with machine-readable JSON output.

Exit codes: 0 all good, 1 at least one counterexample, 2 usage error
(bad arguments: the field, the table cap, an element, a missing flag, a
--samples or --max-counterexamples below 1, an --out that cannot be
opened), 3 an evaluation failed: an evaluator raised, or refused the
request (an exhaustive check of more than 2^34 bindings, refused before
any work; a check whose counts could pass int64; or a table of any kind
whose line count or values could pass int64, refused before any line is
written). A missing parameter flag of `eval` is reported as "eval
<kind> requires -<flag>", and a warning of the field (q = 2) as one
"warning:" line. A closed stdout (a reader such as `head` that went
away) ends the output silently, and the command exits as it would have.
A field is given by -q Q or by -p P [-r R] (R defaults to 1), never by
both.

Elements on the command line are addressed by enumeration index (0 is the
zero element, index i > 0 is generator^(i-1)); an explicit coefficient
vector is accepted as "v:c0,c1,..." or "c0,c1,...".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np

from .characters import Character, binom, jacobi_sum
from .cyclotomic import CycInt, _ring
from .fields import FieldTable, build_field, prime_power_decompose
from .hypergeometric import (
    AppellF1Params,
    Hyp2F1Params,
    appell_f1_char_sum,
    appell_f1_point_sum,
    f21_char_sum,
    f21_point_sum,
)
from .identities import BatchContext, registry
from .verifier import _step, verify_all

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# each kind of `eval` and `table`: its parameters, how many of them are
# characters (the rest are elements), its value over a `BatchContext` c
# (J(A, B) = B(-1) [A|B~] is the definition of binom read backwards), and
# its exact value from `Character`s and `FieldElement`s by the point route
# and by the character route; the lambdas look the sums up when called
_KINDS = {
    "jacobi": (("A", "B"), 2, lambda c, A, B: c.sign(B) * c.binom(A, -B),
               jacobi_sum, jacobi_sum),
    "binom": (("A", "B"), 2, BatchContext.binom, binom, binom),
    "f21": (("A", "B", "C", "x"), 3, BatchContext.f21,
            lambda *a: f21_point_sum(Hyp2F1Params(*a)),
            lambda *a: f21_char_sum(Hyp2F1Params(*a))),
    "f1": (("A", "B", "Bp", "C", "x", "y"), 4, BatchContext.f1,
           lambda *a: appell_f1_point_sum(AppellF1Params(*a)),
           lambda *a: appell_f1_char_sum(AppellF1Params(*a))),
}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="appellfq",
        description="Exact character sums over finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_field_args(p, q_list=False, fmt=True):
        p.add_argument("-p", type=int, help="field characteristic (prime)")
        p.add_argument("-r", type=int, help="extension degree (default 1)")
        if q_list:
            p.add_argument(
                "-q", type=str, help="comma-separated prime powers, e.g. 3,4,5"
            )
        else:
            p.add_argument("-q", type=int, help="prime power (sugar for -p/-r)")
        p.add_argument(
            "--table-cap", type=int, default=None, help="override the q cap"
        )
        if fmt:
            p.add_argument("--format", choices=("json", "human"), default="json",
                           dest="fmt")
        p.add_argument("--out", type=str, default=None, help="write output to file")

    p_info = sub.add_parser("field-info", help="describe a field")
    p_info.set_defaults(run=_cmd_field_info)
    add_field_args(p_info)

    p_eval = sub.add_parser("eval", help="evaluate one sum exactly")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("kind", choices=tuple(_KINDS))
    add_field_args(p_eval)
    names, chars = _KINDS["f1"][:2]  # every parameter of every kind
    for name in names[:chars]:
        p_eval.add_argument(f"-{name}", type=int, help="character exponent")
    for name in names[chars:]:
        p_eval.add_argument(f"-{name}", type=str, help="element (index or v:coeffs)")
    p_eval.add_argument("--route", choices=("point", "char"), default="point",
                        help="evaluator route for f21/f1")

    p_ver = sub.add_parser("verify", help="verify registered identities")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("ids", nargs="*", help="identity ids (or use --all)")
    p_ver.add_argument("--all", action="store_true", dest="all_ids")
    add_field_args(p_ver, q_list=True)
    mode = p_ver.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--sampled", action="store_true")
    p_ver.add_argument("--samples", type=int, default=10000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-counterexamples", type=int, default=10)

    p_tab = sub.add_parser("table", help="dump a full value table (JSON lines)")
    p_tab.set_defaults(run=_cmd_table)
    p_tab.add_argument("kind", choices=tuple(_KINDS))
    add_field_args(p_tab, fmt=False)  # a table is JSON lines only

    return ap


def _field(args, q=None) -> FieldTable:
    """The field of q, or of -p/-r; a bad q, p or r, or a q over the table
    cap, is a usage error. A warning of the field (q = 2 is degenerate) is
    printed as one line on stderr."""
    try:
        if q is not None:
            p, r = prime_power_decompose(int(q))
        else:
            p, r = args.p, 1 if args.r is None else args.r
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ft = build_field(p, r, max_q=args.table_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return ft


def _fields(args) -> list[FieldTable]:
    """The fields of -q (a comma-separated list for `verify`), or of -p/-r."""
    if args.q is not None:
        if args.p is not None or args.r is not None:
            raise UsageError("give either -q or -p/-r, not both")
        fields = [_field(args, part) for part in str(args.q).split(",") if part.strip()]
        if not fields:
            raise UsageError("-q list is empty")
        return fields
    if args.p is not None:
        return [_field(args)]
    raise UsageError("a field is required: -p P [-r R] or -q Q")


def _parse_element(ft: FieldTable, text: str, flag: str):
    try:
        if text.startswith("v:"):
            return ft.from_coeffs([int(c) for c in text[2:].split(",")])
        if "," in text:
            return ft.from_coeffs([int(c) for c in text.split(",")])
        i = int(text)
    except ValueError as exc:
        raise UsageError(f"bad element for {flag}: {text!r}") from exc
    if not 0 <= i < ft.q:
        raise UsageError(f"element index {i} out of range for q={ft.q}")
    return ft.element(i)


@contextlib.contextmanager
def _output(out_path: str | None):
    """The --out file, opened for writing (a usage error if it cannot be),
    or stdout, flushed at the end; a reader that closed stdout (as
    `| head` does) ends the output silently, and the command exits as it
    would have."""
    if out_path:
        try:
            out = open(out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot open --out {out_path}: {exc.strerror}") from exc
        with out:
            yield out
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more can be written, so the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(text: str, out) -> None:
    out.write(text)


def _emit_once(text: str, out_path: str | None) -> None:
    with _output(out_path) as out:
        _emit(text, out)


def _value_payload(value: CycInt) -> tuple[dict, str | None]:
    as_int = value.as_integer()
    return value.to_json(), (str(as_int) if as_int is not None else None)


def _cmd_field_info(args) -> int:
    [ft] = _fields(args)
    doc = ft.describe()
    if args.fmt == "json":
        text = json.dumps(doc)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in doc.items())
    _emit_once(text + "\n", args.out)
    return EXIT_PASS


def _eval_value(args, ft: FieldTable) -> tuple[dict, CycInt]:
    names, chars, _, *routes = _KINDS[args.kind]
    params, values = {}, []
    for i, name in enumerate(names):
        raw = getattr(args, name)
        if raw is None:
            raise UsageError(f"eval {args.kind} requires -{name}")
        if i < chars:
            params[name], value = raw, Character(ft, raw)
        else:
            value = _parse_element(ft, raw, name)
            params[name] = value.index
        values.append(value)
    return params, routes[args.route == "char"](*values)


def _cmd_eval(args) -> int:
    [ft] = _fields(args)
    params, value = _eval_value(args, ft)
    value_json, as_int = _value_payload(value)
    if args.fmt == "json":
        doc = {
            "kind": args.kind,
            "q": ft.q,
            "params": params,
            "value": value_json,
            "integer": as_int,
        }
        _emit_once(json.dumps(doc) + "\n", args.out)
    else:
        shown = as_int if as_int is not None else repr(value)
        arglist = ", ".join(f"{k}={v}" for k, v in params.items())
        _emit_once(f"{args.kind}({arglist}) over F_{ft.q} = {shown}\n", args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    known = {e.id for e in registry()}
    if args.all_ids or not args.ids:
        ids = [e.id for e in registry()]
    else:
        bad = [i for i in args.ids if i not in known]
        if bad:
            raise UsageError(f"unknown identity ids: {', '.join(bad)}")
        ids = list(args.ids)
    fields = _fields(args)
    mode = "sampled" if args.sampled else "exhaustive"
    if mode == "sampled" and args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.max_counterexamples < 1:
        raise UsageError("--max-counterexamples must be >= 1")

    lines = []
    any_cex = False
    any_error = False
    with _output(args.out) as out:  # an --out that cannot be opened is refused here
        for ident in ids:
            for ft in fields:
                [rep] = verify_all(ft, [ident], mode=mode, sample_count=args.samples,
                                   seed=args.seed,
                                   max_counterexamples=args.max_counterexamples)
                any_error |= rep.error is not None
                any_cex |= bool(rep.counterexamples)
                if args.fmt == "json":
                    lines.append(json.dumps(rep.to_json()))
                else:
                    status = "ERROR" if rep.error else "PASS" if rep.passed else "FAIL"
                    note = rep.error or f"{rep.wall_ms:.1f} ms"
                    lines.append(
                        f"{rep.identity_id} q={rep.q} {rep.mode} "
                        f"cases={rep.cases} counterexamples="
                        f"{len(rep.counterexamples)} {status} ({note})"
                    )
        _emit("\n".join(lines) + "\n", out)
    if any_error:
        return EXIT_INTERNAL
    return EXIT_COUNTEREXAMPLE if any_cex else EXIT_PASS


def _cmd_table(args) -> int:
    [ft] = _fields(args)
    chunks = _table_chunks(args.kind, ft)
    first = next(chunks)  # a refusal raises here, before --out is opened
    with _output(args.out) as out:
        _emit(first, out)
        for text in chunks:
            _emit(text, out)
    return EXIT_PASS


def _table_chunks(kind: str, ft: FieldTable):
    """The text of a table, `verifier._step(q)` lines at a time, in
    lexicographic order of its parameters: each chunk's columns decoded
    from its line numbers, its values evaluated once on a `BatchContext`,
    counted (`Terms.counts`) and reduced by one checked int64 division
    (`_Ring.reduce_rows`), and
    each line gathered from `_line_tokens`, built again at twice the
    radius when a chunk holds a larger |field|: sized by what is written.

    Refused with a ValueError naming q, before the first chunk, if the
    number of lines would pass int64 (as for f1 at q = 1451), or if a
    reduced value could (`reduce_rows`; every chunk of a kind has the same
    mass, q - 2).
    """
    names, chars, value, *_ = _KINDS[kind]
    shape = (ft.n,) * chars + (ft.q,) * (len(names) - chars)
    total = math.prod(shape)
    if total >= 2**63:
        raise ValueError(f"q = {ft.q}: the {kind} table has {total} lines, "
                         f"past the int64 limit 2^63 - 1")
    ring, c, radius, step = _ring(ft.n), BatchContext.of(ft), 0, _step(ft.q)
    for lo in range(0, total, step):
        cols = np.unravel_index(np.arange(lo, min(lo + step, total)), shape)
        terms = value(c, *cols)
        values = ring.reduce_rows(terms.counts(), terms.mass)
        # each line's fields in order, and its coefficient 0 again
        fields = np.column_stack((*cols, values, values[:, 0]))
        if (need := int(np.abs(fields).max()) + 1) > radius:
            radius = max(need, 2 * radius)
            tokens, offsets = _line_tokens(names, ft.n, ring.phi, radius)
        fields[values[:, 1:].any(axis=1), -1] = -radius  # "integer": null
        yield "".join(tokens.take((fields + offsets).ravel()).tolist())


def _line_tokens(names, n: int, phi: int, radius: int):
    """Each field's text as `json.dumps` writes a table line, for the
    values -R..R, and its offset into them; slot -R of the close is null."""
    vals = range(-radius, radius + 1)
    blocks = ['{"%s": %%d' % names[0]] + [', "%s": %%d' % s for s in names[1:]] + [
        ', "value": {"n": %d, "coeffs": ["%%d"' % n, ', "%d"', ']}, "integer": "%d"}\n']
    tokens = [block % v for block in blocks for v in vals]
    tokens[-len(vals)] = ']}, "integer": null}\n'
    offsets = np.repeat(np.arange(len(blocks)), [1] * (len(names) + 1) + [phi - 1, 1])
    return np.array(tokens, dtype=object), offsets * len(vals) + radius


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # an evaluator refused the request, or failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
