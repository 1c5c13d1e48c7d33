"""Command-line contract: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from appellfq import build_field
from appellfq.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_field_info(capsys):
    rc, out, _ = run(capsys, "field-info", "-p", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 5
    assert doc["generator"] == 2
    assert doc["modulus"] == [0, 1]
    assert doc["characters"] == 4


def test_field_info_extension(capsys):
    rc, out, _ = run(capsys, "field-info", "-p", "2", "-r", "2")
    assert rc == 0
    assert json.loads(out)["modulus"] == [1, 1, 1]


def test_field_info_q_sugar(capsys):
    rc, out, _ = run(capsys, "field-info", "-q", "9")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["p"], doc["r"]) == (3, 2)


def test_field_info_rejects_non_prime(capsys):
    rc, _, err = run(capsys, "field-info", "-p", "4")
    assert rc == 2
    assert "prime" in err


def test_eval_jacobi_trivial(capsys):
    rc, out, _ = run(capsys, "eval", "jacobi", "-p", "5", "-A", "0", "-B", "0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["integer"] == "3"  # q - 2
    assert doc["value"] == {"n": 4, "coeffs": ["3", "0"]}


def test_eval_f1_zero_argument(capsys):
    rc, out, _ = run(
        capsys, "eval", "f1", "-p", "5",
        "-A", "1", "-B", "2", "-Bp", "3", "-C", "1", "-x", "0", "-y", "3",
    )
    assert rc == 0
    assert json.loads(out)["integer"] == "0"


def test_eval_f21_at_one_matches_binom(capsys):
    # with A trivial, 2F1[A,B;C;1] = [B|C] exactly
    rc, out, _ = run(
        capsys, "eval", "f21", "-p", "7",
        "-A", "0", "-B", "2", "-C", "3", "-x", "1",
    )
    assert rc == 0
    f21_doc = json.loads(out)
    rc, out, _ = run(capsys, "eval", "binom", "-p", "7", "-A", "2", "-B", "3")
    assert rc == 0
    binom_doc = json.loads(out)
    assert f21_doc["value"] == binom_doc["value"]


def test_eval_routes_agree(capsys):
    base = ["eval", "f1", "-p", "5", "-A", "1", "-B", "2", "-Bp", "3",
            "-C", "2", "-x", "2", "-y", "4"]
    rc, out1, _ = run(capsys, *base, "--route", "point")
    rc2, out2, _ = run(capsys, *base, "--route", "char")
    assert rc == rc2 == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_eval_coefficient_vector_addressing(capsys):
    # v:0,1 is the polynomial generator x of F_4; index form must agree
    rc, out1, _ = run(capsys, "eval", "f21", "-p", "2", "-r", "2",
                      "-A", "1", "-B", "2", "-C", "0", "-x", "v:0,1")
    rc2, out2, _ = run(capsys, "field-info", "-p", "2", "-r", "2")
    gen = json.loads(out2)["generator"]
    assert gen == [0, 1]  # x generates F_4*
    rc3, out3, _ = run(capsys, "eval", "f21", "-p", "2", "-r", "2",
                       "-A", "1", "-B", "2", "-C", "0", "-x", "1,0")
    assert rc == rc3 == 0
    # v:0,1 is g = index 2; "1,0" is the explicit vector for 1 = index 1
    assert json.loads(out1)["params"]["x"] == 2
    assert json.loads(out3)["params"]["x"] == 1


def test_eval_usage_errors(capsys):
    rc, _, err = run(capsys, "eval", "jacobi", "-p", "5", "-A", "0")
    assert rc == 2 and "-B" in err
    rc, _, err = run(capsys, "eval", "f21", "-p", "5",
                     "-A", "0", "-B", "0", "-C", "0", "-x", "9")
    assert rc == 2 and "range" in err
    rc, _, err = run(capsys, "eval", "f21", "-p", "5",
                     "-A", "0", "-B", "0", "-C", "0", "-x", "w")
    assert rc == 2
    rc, out, err = run(capsys, "eval", "f21", "-q", "5", "-A", "0", "-B", "0",
                       "-C", "0")
    assert rc == 2 and out == "" and "-x" in err
    rc, out, err = run(capsys, "eval", "f1", "-q", "5", "-A", "0", "-B", "0",
                       "-Bp", "0", "-C", "0", "-x", "1")
    assert rc == 2 and out == "" and "-y" in err


@pytest.mark.parametrize("q", [5, 9])
def test_eval_equals_the_table_line(capsys, q):
    # eval and table read one description of each kind; the table is in
    # lexicographic order of the parameters, so a binding's line number is
    # its index in that order
    n = q - 1
    cases = {
        "jacobi": [(0, 0), (1, 2), (n - 1, 3)],
        "binom": [(0, 1), (2, 2), (3, n - 1)],
        "f21": [(0, 0, 0, 0), (1, 2, 3, 1), (n - 1, 1, 2, q - 1)],
        "f1": [(0, 0, 0, 0, 0, 0), (1, 2, 3, 1, 2, 3), (3, 1, n - 1, 2, q - 1, 1)],
    }
    for kind, bindings in cases.items():
        rc, out, _ = run(capsys, "table", kind, "-q", str(q))
        assert rc == 0
        lines = out.splitlines()
        names = list(json.loads(lines[0]))[:-2]  # the characters come first
        chars = sum(name[0].isupper() for name in names)
        shape = [n] * chars + [q] * (len(names) - chars)
        for binding in bindings:
            line = json.loads(lines[int(np.ravel_multi_index(binding, shape))])
            assert [line[k] for k in names] == list(binding)
            flags = [f"-{k}={v}" for k, v in zip(names, binding)]
            for route in ("point", "char"):
                rc, out, _ = run(capsys, "eval", kind, "-q", str(q), *flags,
                                 "--route", route)
                doc = json.loads(out)
                assert rc == 0 and doc["params"] == dict(zip(names, binding))
                assert (doc["value"], doc["integer"]) == (line["value"],
                                                          line["integer"])


def test_verify_single_identity(capsys):
    rc, out, _ = run(capsys, "verify", "thm1.3", "-q", "5", "--exhaustive")
    assert rc == 0
    doc = json.loads(out)
    assert doc["cases"] == 6400
    assert doc["counterexamples"] == []
    assert doc["ms"] is None


def test_verify_all_small(capsys):
    rc, out, _ = run(capsys, "verify", "--all", "-q", "3", "--exhaustive")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 28
    for line in lines:
        doc = json.loads(line)
        assert doc["counterexamples"] == []


def test_verify_multiple_q(capsys):
    rc, out, _ = run(capsys, "verify", "thm1.2", "-q", "3,4", "--exhaustive")
    assert rc == 0
    qs = [json.loads(line)["q"] for line in out.strip().split("\n")]
    assert qs == [3, 4]


def test_verify_unknown_id(capsys):
    rc, _, err = run(capsys, "verify", "bogus-id", "-q", "3")
    assert rc == 2
    assert "unknown identity" in err


def test_verify_bad_q(capsys):
    rc, _, err = run(capsys, "verify", "thm1.1", "-q", "12")
    assert rc == 2


def test_verify_sampled_deterministic(capsys):
    args = ["verify", "thm3.7", "-q", "5", "--sampled",
            "--samples", "500", "--seed", "42"]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.slow
def test_verify_sampled_all_at_q4099(capsys):
    # sampled mode at q in the thousands: every id passes, none is refused
    rc, out, _ = run(capsys, "verify", "--all", "--sampled", "--samples", "3",
                     "-q", "4099")
    reports = [json.loads(line) for line in out.splitlines()]
    assert rc == 0
    assert len(reports) == 28
    for doc in reports:
        assert doc["q"] == 4099 and doc["cases"] == 3, doc
        assert doc["counterexamples"] == [] and "error" not in doc, doc


def test_verify_exit_code_on_counterexample(capsys, monkeypatch):
    import appellfq.verifier as verifier
    from appellfq import cyc_one
    from appellfq.verifier import VerifyReport

    def fake_verify(entry, ft, **kw):
        one = cyc_one(ft.n)
        return VerifyReport(
            identity_id=entry.id, q=ft.q, mode="exhaustive", seed=None, cases=1,
            counterexamples=[{"binding": {"A": 0}, "lhs": one, "rhs": -one}],
        )

    # the cli reaches verify through verify_all
    monkeypatch.setattr(verifier, "verify", fake_verify)
    rc, out, _ = run(capsys, "verify", "thm1.1", "-q", "3")
    assert rc == 1
    doc = json.loads(out)
    assert doc["counterexamples"][0]["lhs"] == {"n": 2, "coeffs": ["1"]}


def test_verify_counts_below_one_are_usage_errors(capsys):
    for flag, value in (("--max-counterexamples", "0"),
                        ("--max-counterexamples", "-1")):
        rc, out, err = run(capsys, "verify", "thm3.7", "-q", "5", flag, value)
        assert rc == 2 and out == "" and flag in err


def test_verify_jobs_is_a_usage_error(capsys):
    for jobs in ("0", "2"):
        rc, out, err = run(capsys, "verify", "thm3.7", "-q", "5", "--jobs", jobs)
        assert rc == 2 and out == "" and "--jobs" in err


def test_verify_human_format(capsys):
    rc, out, _ = run(capsys, "verify", "prop2.3-a", "-q", "5",
                     "--exhaustive", "--format", "human")
    assert rc == 0
    assert "PASS" in out and "prop2.3-a" in out


def test_verify_human_format_reports_an_error_as_a_line(capsys, monkeypatch):
    # with a limit of one binding the exhaustive check is refused
    import appellfq.verifier as verifier

    monkeypatch.setattr(verifier, "_EXHAUSTIVE_CASES", 1)
    args = ["verify", "thm1.1", "-q", "5", "--exhaustive"]
    rc, out, _ = run(capsys, *args, "--format", "human")
    assert rc == 3
    head, error = out.rstrip("\n").split(" ERROR (")
    assert head == "thm1.1 q=5 exhaustive cases=0 counterexamples=0"
    assert error.startswith("ValueError: q = 5: ") and error.endswith(")")
    # the JSON report carries the same error
    rcj, outj, _ = run(capsys, *args)
    assert rcj == 3 and json.loads(outj)["error"] == error[:-1]


def test_table_has_no_format_flag(capsys):
    # a table is JSON lines only, so --format is an unknown argument
    rc, out, err = run(capsys, "table", "binom", "-q", "3", "--format", "human")
    assert rc == 2 and out == "" and "--format" in err


def test_table_jacobi_rows(capsys):
    rc, out, _ = run(capsys, "table", "jacobi", "-p", "3")
    assert rc == 0
    rows = out.strip().split("\n")
    assert len(rows) == 4  # 2^2 character pairs
    first = json.loads(rows[0])
    assert first["A"] == 0 and first["B"] == 0
    assert first["integer"] == "1"  # q - 2


def test_table_f1_rows_and_determinism(capsys, tmp_path):
    rc, out1, _ = run(capsys, "table", "f1", "-p", "3")
    assert rc == 0
    rows = out1.strip().split("\n")
    assert len(rows) == 2**4 * 9 == 144
    rc, out2, _ = run(capsys, "table", "f1", "-p", "3")
    assert out1 == out2

    path = tmp_path / "f1.jsonl"
    rc, out3, _ = run(capsys, "table", "f1", "-p", "3", "--out", str(path))
    assert rc == 0
    assert path.read_text(encoding="utf-8") == out1


def test_table_row_order_lexicographic(capsys):
    rc, out, _ = run(capsys, "table", "binom", "-p", "5")
    rows = [json.loads(r) for r in out.strip().split("\n")]
    keys = [(r["A"], r["B"]) for r in rows]
    assert keys == sorted(keys)


def test_missing_field_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "thm1.1")
    assert rc == 2


def test_r_next_to_q_is_usage_error(capsys):
    for command in (["field-info"], ["verify", "thm1.1"]):
        rc, out, err = run(capsys, *command, "-q", "9", "-r", "3")
        assert rc == 2 and out == "" and "either -q or -p/-r" in err
    rc, out, _ = run(capsys, "field-info", "-p", "3")
    assert rc == 0 and json.loads(out)["q"] == 3


def test_table_cap_flag(capsys):
    rc, _, err = run(capsys, "field-info", "-p", "5", "--table-cap", "4")
    assert rc == 2
    assert "cap" in err


def test_module_invocation_end_to_end():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "appellfq.cli", "eval", "jacobi",
         "-p", "5", "-A", "0", "-B", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["integer"] == "3"


def test_closed_stdout_ends_a_table_with_exit_0():
    # the reader goes away after 100 bytes, as `| head -c 100` does: the
    # table stops and exits 0, and no error is printed
    proc = subprocess.Popen(
        [sys.executable, "-m", "appellfq.cli", "table", "f21", "-q", "17"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0 and err == b""


def test_evaluator_refusal_exits_3_from_every_command(capsys, monkeypatch):
    # q = 5 is a valid field; with a limit of one binding, an exhaustive
    # check is refused before any work, which is no usage error
    import appellfq.cli as cli
    import appellfq.verifier as verifier

    monkeypatch.setattr(verifier, "_EXHAUSTIVE_CASES", 1)
    rc, out, _ = run(capsys, "verify", "thm1.1", "-q", "5", "--exhaustive")
    assert rc == 3
    doc = json.loads(out)
    # the error line has the keys of every other report, as verify_all's does
    assert list(doc) == ["id", "q", "mode", "seed", "cases", "counterexamples",
                         "error", "ms"]
    assert doc["cases"] == 0 and doc["seed"] is None
    assert "over the exhaustive limit of 1" in doc["error"]
    [rep] = verifier.verify_all(build_field(5, 1), ids=["thm1.1"])
    assert json.dumps(rep.to_json()) == out.strip()
    # the character routes refuse no field, so `eval` reaches exit 3 only
    # through an evaluator that raises

    def refuse(params):
        raise ValueError("refused")

    monkeypatch.setattr(cli, "appell_f1_char_sum", refuse)
    rc, out, err = run(capsys, "eval", "f1", "-q", "101", "-A", "1", "-B", "2",
                       "-Bp", "3", "-C", "4", "-x", "2", "-y", "3", "--route", "char")
    assert rc == 3 and out == ""
    assert err.startswith("error: ValueError: refused")


def test_exhaustive_verify_past_its_work_limit_exits_3(capsys, monkeypatch):
    # thm1.3 at q = 101 has about 10^12 bindings: refused before any scan
    import appellfq.verifier as verifier

    monkeypatch.setattr(verifier, "_scan", lambda *a: pytest.fail("scanned"))
    rc, out, err = run(capsys, "verify", "thm1.3", "-q", "101", "--exhaustive")
    assert rc == 3 and err == ""
    doc = json.loads(out)
    assert doc["cases"] == 0 and "q = 101: " in doc["error"]
    assert "--sampled" in doc["error"]


@pytest.mark.slow
def test_exhaustive_verify_of_a_small_domain_at_q16381(capsys):
    # prop2.3-b has 16,380 bindings, which the reduction rows refused
    rc, out, _ = run(capsys, "verify", "prop2.3-b", "-q", "16381", "--exhaustive")
    assert rc == 0 and json.loads(out)["cases"] == 16380


def test_q2_warning_is_one_line_without_source():
    # the warning of a degenerate field reads as the cli's own, with no
    # file name or code line of the package
    proc = subprocess.run(
        [sys.executable, "-m", "appellfq.cli", "eval", "jacobi", "-q", "2",
         "-A", "0", "-B", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cli.py" not in proc.stderr
    assert proc.stderr == ("warning: q = 2 is degenerate: the character group "
                           "is trivial\n")


def test_verify_all_sampled_at_q_1021(capsys):
    # no route refuses a field in the thousands in sampled mode
    rc, out, _ = run(capsys, "verify", "--all", "--sampled", "--samples", "2",
                     "-q", "1021")
    assert rc == 0
    docs = [json.loads(line) for line in out.strip().split("\n")]
    assert len(docs) == 28
    assert all(d["counterexamples"] == [] and "error" not in d for d in docs)


def test_bad_q_list_and_element_vector_are_usage_errors(capsys):
    rc, _, err = run(capsys, "verify", "thm1.1", "-q", "3,x")
    assert rc == 2 and "'x'" in err
    rc, _, err = run(capsys, "eval", "f21", "-q", "9", "-A", "0", "-B", "0",
                     "-C", "0", "-x", "1,2,3")
    assert rc == 2 and "bad element" in err
