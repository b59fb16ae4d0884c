"""Smoke test of the benchmark: every workload at tiny size, a traced run,
generator determinism per seed, and the negative control.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, *extra, trace=0):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra])
    result = run.execute(args, workloads.build(workload, 7, tiny=True))
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]) == result
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_is_correct(capsys, workload):
    result = _run(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    result = _run(capsys, "witt", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["linking.eval_bq.calls"]["value"] > 0


def test_negative_control_reports_a_failure(capsys):
    result = _run(capsys, "algebra", "--negative-control")
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    a, b = workloads.build(workload, 3), workloads.build(workload, 3)
    assert run.inputs_digest(a) == run.inputs_digest(b)
    assert a.ops == b.ops


@pytest.mark.parametrize("workload", ["verify", "witt", "algebra"])
def test_seeds_change_the_inputs(workload):
    assert run.inputs_digest(workloads.build(workload, 1)) != run.inputs_digest(workloads.build(workload, 2))
