"""Golden bytes of `appellfq table`: the sha256 of each table file.

The digests were recorded from the row-at-a-time writer; any change to the
evaluation or the formatting of `table` must leave every byte in place.
An f21/f1 table is written a chunk of lines at a time, so the bytes must
not depend on where the chunks end, and a table past its bounds must be
refused before its first line.
"""

import hashlib

import pytest

import appellfq.cli as cli
import appellfq.verifier as V
from appellfq import build_field
from appellfq.cli import main
from appellfq.cyclotomic import _ring

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
    ("jacobi", 9): "a0f4535c0030a2feb6b51f2ee7a597b45ba7ff581908f16130604996eeca0d9f",
    ("binom", 9): "b72272b947d7fbf1552edc7e5ca308064e31c3e9e852d077a74ac34eef857cf0",
}


def table_digest(tmp_path, kind, q):
    path = tmp_path / f"{kind}-{q}.jsonl"
    assert main(["table", kind, "-q", str(q), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind,q", list(GOLDEN))
def test_table_bytes_are_golden(tmp_path, kind, q):
    assert table_digest(tmp_path, kind, q) == GOLDEN[kind, q]


@pytest.mark.parametrize("kind,q", [("f1", 4), ("f21", 5)])
def test_chunk_edges_inside_blocks_keep_the_bytes(tmp_path, monkeypatch, kind, q):
    # 7 lines a chunk: chunk edges fall inside every block of x and y
    monkeypatch.setattr(cli, "_TABLE_CHUNK", 7)
    assert table_digest(tmp_path, kind, q) == GOLDEN[kind, q]


def test_table_over_its_bounds_is_refused_before_any_row(tmp_path, capsys, monkeypatch):
    ft = build_field(5, 1)
    ring = _ring(ft.n)
    path = tmp_path / "f21.jsonl"

    def refused(*argv):
        capsys.readouterr()
        assert main(["table", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"q = {argv[2]}" in err
        assert not path.exists()
        return err

    # the reduction rows over the budget, by one byte
    monkeypatch.setattr(V, "_ROWS_BYTES", 8 * ft.n * ring.phi - 1)
    assert "budget" in refused("f1", "-q", "5")
    assert "budget" in refused("f21", "-q", "5", "--out", str(path))
    assert main(["table", "jacobi", "-q", "5"]) == 0  # needs no rows
    monkeypatch.undo()
    # values that could pass int64: (q - 2) max|row| >= 2^63
    monkeypatch.setattr(ring, "row_max", 2**63 // 3 + 1)
    assert "2^63" in refused("f21", "-q", "5", "--out", str(path))
    monkeypatch.setattr(ring, "row_max", 2**63 // 3)
    assert main(["table", "f21", "-q", "5", "--out", str(path)]) == 0
    path.unlink()
    monkeypatch.undo()
    # more lines than int64 can count: f1 at q = 1451 has 1450^4 1451^2,
    # while its reduction rows are within the budget
    assert "lines" in refused("f1", "-q", "1451", "--out", str(path))
