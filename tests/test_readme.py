"""The README's "Library quickstart" block, run as written.

Each bare expression of the block carries its result as a comment; the
text before the comment's first comma must be the repr of the value.
"""

import ast
import time
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    """The first python block after the "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_gives_its_commented_results():
    block = _quickstart()
    lines = block.splitlines()
    ns: dict = {}
    results = []
    t0 = time.perf_counter()
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            results.append((value, lines[stmt.lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    # 0.16 s on 2 vCPUs, thm1.3's exhaustive verify at q = 5 included
    assert time.perf_counter() - t0 < 1
    assert [comment.split(",")[0] for _, comment in results] == \
        ["CycInt(4; -1)", "True", "True"]
    for value, comment in results:
        assert repr(value) == comment.split(",")[0], comment
    report = ns["report"]
    assert (report.identity_id, report.mode, report.cases) == ("thm1.3", "exhaustive", 6400)
