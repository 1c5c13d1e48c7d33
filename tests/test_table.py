"""Golden bytes of `appellfq table`: the sha256 of each table file.

The digests were recorded from the row-at-a-time writer; any change to the
evaluation or the formatting of `table` must leave every byte in place.
Every table is written a chunk of lines at a time, so the bytes must not
depend on where the chunks end, and a table past its bounds must be
refused before its first line. Each line is also checked against
`json.dumps` of the scalar value from the tests' reference loops (a
Jacobi sum, a binomial or a point sum, `scalar_reference`), which names
the first line that differs where a digest says only that a byte moved.
"""

import hashlib
import itertools
import json

import pytest

import appellfq.cli as cli
from appellfq import build_field
from appellfq.cli import main
from appellfq.cyclotomic import _ring
from appellfq.fields import prime_power_decompose
from scalar_reference import binom, f1_point_idx, f21_point_idx, jacobi

GOLDEN = {
    ("f21", 3): "f63048c165a2ddedacf7ecb13c42aad8b462062bd9d95685634737da29b14529",
    ("f21", 4): "a96fe02130a15e6170ab1b7f6ef59eeab80a9bd24d05a28159fff7d98b2cbc0a",
    ("f21", 5): "582d0d1fb3c003ceb0516297f08cbaeb5fa2ec55d256c250aaa2a2b176127d2e",
    ("f21", 8): "04b5f6b4b90101a4db6b4bfd2bfddc8b5d3c008957be1ccd3bc67c543c4173a0",
    ("f21", 9): "775b23f840eee749b9432d78bc629674be4c682e59811f7c5f9fecd35d4b17f4",
    ("f21", 16): "e35dbe8f0c770d5fd868ac9424278aa5fb1097346c85ccff8d7b0d24f3ddf73e",
    ("f1", 3): "8735f4f9a34af16e48f17dc720e53b391bcad7b1a97efc0d3fc22db92a906d42",
    ("f1", 4): "ae234aa774128c7a1c34be250fe0180585b51a81f66f2f0cd1bf340521a6b68e",
    ("f1", 5): "fa42bc0407bc497a063ae8f7c0973cd274282393c8ffe529209754a9d67f7567",
    ("f1", 8): "0039c28fe8c90c8173abd5178b8799fb65919878ed03fbe0d5766f3902157bab",
    ("jacobi", 3): "e14ea0da08d79c8630c76051a23902e07cf4c66d8783de643138c76bbdc58efc",
    ("jacobi", 4): "efffe207cb91d96054615e878b14f70f098c15bbeac7578540a99c1f2bc03cef",
    ("jacobi", 5): "b77569980b77a5cfc8591f707a258855ef22e74c851f5a5d08d8b164e3e91c10",
    ("jacobi", 8): "8e3b01f10bdc0b7801d42cb74e9feb046376ce50eafed449a6c06490f42963b3",
    ("jacobi", 9): "a0f4535c0030a2feb6b51f2ee7a597b45ba7ff581908f16130604996eeca0d9f",
    ("jacobi", 16): "27c917323d73fc563f5b846f9f689591ea131d7edb19cec109d9ae10f76a434b",
    ("jacobi", 25): "b9f224b638eef847aa6d625784f7afc085e80cb98e92a0da248eb9755d0cb6c8",
    ("binom", 3): "78bcd7192f339a5ae4c2de3d121641bd62ebe3ae102d8f3f7648d6f2637011ad",
    ("binom", 4): "77ed8d3b09edaf67600024e96b51dc9f7701712785bbb110a802b47eac3c254d",
    ("binom", 5): "a2cfb64c82a18c2fc77f788cf05a8295fd7be4aaf2bae003efd57da937437c42",
    ("binom", 8): "7d484c401743ee57240080d2195e3ca3c4c47e396da3c6c738dac7b860c0fe8b",
    ("binom", 9): "b72272b947d7fbf1552edc7e5ca308064e31c3e9e852d077a74ac34eef857cf0",
    ("binom", 16): "acc50b6aa2e50ba644a08daf47b4c65867ebe38fd054450a061cfe7a8473bcd4",
    ("binom", 25): "1ec5aebf72c20f7c9e45127347664836d0b7f257b85e0b1669e461522cfd57da",
}


# the scalar value of each table and its parameters: characters, then elements
REFERENCE = {
    "jacobi": (jacobi, ("A", "B"), ()),
    "binom": (binom, ("A", "B"), ()),
    "f21": (f21_point_idx, ("A", "B", "C"), ("x",)),
    "f1": (f1_point_idx, ("A", "B", "Bp", "C"), ("x", "y")),
}


def reference_lines(kind, q):
    """The lines of a table as the row-at-a-time writer wrote them: the
    dict of each parameter tuple and its scalar value, by `json.dumps`."""
    ft = build_field(*prime_power_decompose(q))
    point_idx, chars, elems = REFERENCE[kind]
    domain = [range(ft.n)] * len(chars) + [range(ft.q)] * len(elems)
    for args in itertools.product(*domain):
        value_json, as_int = cli._value_payload(point_idx(ft, *args))
        yield json.dumps({**dict(zip(chars + elems, args)), "value": value_json,
                          "integer": as_int}) + "\n"


def token_table_sizes(monkeypatch):
    """The entry count of each token table the writer builds, in order."""
    sizes = []
    line_tokens = cli._line_tokens

    def recorded(*args):
        tokens, offsets = line_tokens(*args)
        sizes.append(len(tokens))
        return tokens, offsets

    monkeypatch.setattr(cli, "_line_tokens", recorded)
    return sizes


def table_digest(tmp_path, kind, q):
    path = tmp_path / f"{kind}-{q}.jsonl"
    assert main(["table", kind, "-q", str(q), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind,q", list(GOLDEN))
def test_table_bytes_are_golden(tmp_path, kind, q):
    assert table_digest(tmp_path, kind, q) == GOLDEN[kind, q]


@pytest.mark.parametrize("kind,q", [("f1", 4), ("f21", 5), ("binom", 9)])
def test_chunk_edges_inside_blocks_keep_the_bytes(tmp_path, monkeypatch, kind, q):
    # 7 lines a chunk: chunk edges fall inside every block of x and y, and
    # of B (8 lines at q = 9)
    monkeypatch.setattr(cli, "_step", lambda q: 7)
    assert table_digest(tmp_path, kind, q) == GOLDEN[kind, q]


@pytest.mark.parametrize("chunk", [512, 1])
@pytest.mark.parametrize(
    "kind,q", [(k, q) for k in ("jacobi", "binom") for q in (3, 4, 5, 8, 16, 25)]
    + [("f21", q) for q in (3, 4, 5, 8, 9)] + [("f1", q) for q in (3, 4, 5)])
def test_table_lines_equal_the_scalar_reference(tmp_path, monkeypatch, kind, q, chunk):
    monkeypatch.setattr(cli, "_step", lambda q: chunk)
    sizes = token_table_sizes(monkeypatch)
    path = tmp_path / f"{kind}-{q}.jsonl"
    assert main(["table", kind, "-q", str(q), "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    want = list(reference_lines(kind, q))
    assert len(lines) == len(want)
    for i, (got, line) in enumerate(zip(lines, want)):
        assert got == line, f"line {i} of {kind} at q = {q}"
    if chunk == 1 and REFERENCE[kind][2]:
        # the elements alone outgrow the first line's table
        assert len(sizes) > 1


def test_table_over_its_bounds_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    ring = _ring(4)
    path = tmp_path / "f21.jsonl"

    def refused(*argv):
        capsys.readouterr()
        assert main(["table", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"q = {argv[2]}" in err
        assert not path.exists()
        return err

    # values that could pass int64: (q - 2) row_max >= 2^63, for every kind
    monkeypatch.setattr(ring, "row_max", 2**63 // 3 + 1)
    assert "2^63" in refused("f1", "-q", "5")
    assert "2^63" in refused("f21", "-q", "5", "--out", str(path))
    assert "2^63" in refused("jacobi", "-q", "5", "--out", str(path))
    assert "2^63" in refused("binom", "-q", "5")
    monkeypatch.setattr(ring, "row_max", 2**63 // 3)
    sizes = token_table_sizes(monkeypatch)
    assert main(["table", "f21", "-q", "5", "--out", str(path)]) == 0
    # the token table follows the values written, not their bound:
    # (m + 3)(2 max(q, max|value| + 1) + 1) entries at most, m = 4
    top = max(abs(int(c)) for line in path.read_text().splitlines()
              for c in json.loads(line)["value"]["coeffs"])
    assert sizes and max(sizes) <= (4 + 3) * (2 * max(5, top + 1) + 1)
    path.unlink()
    monkeypatch.undo()
    # more lines than int64 can count: f1 at q = 1451 has 1450^4 1451^2
    assert "lines" in refused("f1", "-q", "1451", "--out", str(path))


def test_jacobi_table_at_q5807_writes_its_first_lines():
    # n = 5806 needs no (n, phi) rows: the first chunk's lines are the
    # scalar reference's, reduced in Python ints
    ft = build_field(5807, 1)
    first = next(cli._table_chunks("jacobi", ft)).splitlines(keepends=True)
    want = reference_lines("jacobi", 5807)
    assert first and first == [next(want) for _ in first]
