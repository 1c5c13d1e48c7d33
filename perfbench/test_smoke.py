"""Smoke test of the benchmark itself, at tiny sizes (q in {3, 4}).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def assert_metrics(res, listed, positive):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        if positive:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    res = result("--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(res, SPEC["end_to_end"], positive=True)


@pytest.mark.parametrize("workload", ["exhaustive", "table"])
def test_per_layer_metrics_print_with_units(workload):
    res = result("--workload", workload, "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert_metrics(res, SPEC["per_layer"], positive=False)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["src.lines"] > 0 and metrics["trace.overhead"] > 0
    if workload == "table":
        assert metrics["cli.rows"] > 0 and metrics["hypergeometric.f1_point.calls"] > 0
    else:
        assert metrics["identities.eval.calls"] > 0 and metrics["verifier.thm13_batch_s"] > 0


def test_other_seed_checks_counts_not_digests():
    out = bench("--workload", "sampled", "--seed", "1")
    detail = json.loads(out.stdout.splitlines()[-2])["detail"]
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and detail["seed"] == 1 and not detail["digests_checked"]


def test_wrong_digest_is_a_failure(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    ops = digests["smoke"]["table"]["ops"]
    ops[0] = "0" * len(ops[0])
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    res = result("--workload", "table", "--digests", str(path))
    assert not res["correct"]
    assert res["failed"] >= 1 and res["failed"] < res["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "table", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
