"""Golden bytes of `appellfq eval`: the JSON line of every kind and route.

Each kind (jacobi, binom, f21, f1) is evaluated by both routes (point and
char) at q in {2, 4, 5, 9, 17, 25} on fixed bindings: x = 0, y = 0, x = 1,
x = y, trivial characters, and exponents at and past n (reduced mod n by
`Character`, but printed as given). `golden_eval.json` maps each argument
list to the exact line `eval` prints. Rewrite it (`python
tests/test_eval_golden.py`) only when an output change is intended.
"""

import json
import sys
from pathlib import Path

import pytest

from appellfq.cli import main

GOLDEN = Path(__file__).with_name("golden_eval.json")
QS = (2, 4, 5, 9, 17, 25)
ROUTES = ("point", "char")


def _bindings(kind, q):
    """Fixed parameter bindings of one kind at q, as (flag, value) lists."""
    n = q - 1
    g = 2 % q  # the element g^1 (index 2), or 0 at q = 2
    last = q - 1  # the element g^(n-1)
    if kind in ("jacobi", "binom"):
        pairs = [(0, 0), (1, n - 1), (n + 1, 2 * n + 3), (2, 3), (0, n), (10**6 + 3, 5)]
        return [[("A", a), ("B", b)] for a, b in pairs]
    if kind == "f21":
        rows = [(1, 2, 3, 0), (1, 2, 3, 1), (n + 1, 2, 2 * n + 3, g), (0, 0, 0, last),
                (3, n + 5, 1, g), (2, 2, 0, last)]
        return [list(zip(("A", "B", "C", "x"), r)) for r in rows]
    rows = [(1, 2, 3, 4, 0, g), (1, 2, 3, 4, g, 0), (1, 2, 3, 4, 1, 1),
            (n + 1, 2, n + 3, 2 * n, g, g), (0, 0, 0, 0, last, g),
            (3, 1, 2, n + 1, 1, last), (2, n, 1, 3, last, last)]
    return [list(zip(("A", "B", "Bp", "C", "x", "y"), r)) for r in rows]


def _argvs():
    for kind in ("jacobi", "binom", "f21", "f1"):
        for q in QS:
            for binding in _bindings(kind, q):
                for route in ROUTES:
                    flags = [s for name, v in binding for s in (f"-{name}", str(v))]
                    yield ["eval", kind, "-q", str(q), *flags, "--route", route]


def _line(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", ["jacobi", "binom", "f21", "f1"])
def test_eval_lines_match_golden(kind, capsys):
    golden = json.loads(GOLDEN.read_text())
    argvs = [a for a in _argvs() if a[1] == kind]
    assert len(argvs) == 2 * sum(len(_bindings(kind, q)) for q in QS)
    for argv in argvs:
        assert _line(argv, capsys) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    import contextlib
    import io

    lines = {}
    for argv in _argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        lines[" ".join(argv)] = buf.getvalue()
    GOLDEN.write_text(json.dumps(lines, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(lines)} lines to {GOLDEN}\n")
