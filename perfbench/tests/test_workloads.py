"""Toy-size smoke runs of every workload, failure counting, and the
benchmark's refusal to run without the program's source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import references, run, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY_REFERENCES = {
    "paper-serve": lambda: references.paper_serve(rates=[0.125, 1.0 / 3.0]),
    "constrained-1k": lambda: references.constrained(capacity=10),
    "scale-100k": lambda: references.scale(capacity=50),
    "farm-118k": lambda: references.farm(n_queues=2, queue_capacity=3),
}


def toy(name, tmp_path):
    workload = workloads.make(name, seed=7, reference=TOY_REFERENCES[name]())
    workload.min_policies = workload.max_policies = 3
    if workload.batches_per_policy:
        workload.batches_per_policy = 2
    workload.setup(tmp_path / "store")
    return workload


@pytest.mark.parametrize("name", sorted(TOY_REFERENCES))
def test_toy_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    workload = toy(name, tmp_path)
    result = workloads.measure(workload, seconds=0.01)
    assert result["policies"] == {
        "attempted": 3, "failed": 0, "error_rate": 0.0, "reasons": {},
    }
    served = name in ("paper-serve", "scale-100k")
    assert bool(workload.batches_per_policy) == served
    assert result["decisions"]["attempted"] == (
        3 * 2 * workloads.BATCH_SIZE if served else 0)
    assert result["decisions"]["failed"] == 0
    expected = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert expected == set(run.E2E)
    assert expected <= set(result["e2e"]) | {"setup_s", "peak_rss_mb"}
    assert ("decide_p99_us" in result["e2e"]) == served
    assert all(result["e2e"][m]["value"] > 0 for m in result["e2e"])
    assert result["e2e"]["time_to_policy_s"]["n"] == 3
    assert result["calibration"]["n"] == 4  # before the first, after each


@pytest.mark.parametrize("name", sorted(TOY_REFERENCES))
def test_toy_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = workloads.measure(toy(name, tmp_path), seconds=0.01, trace=True,
                               spans_path=spans)
    assert result["policies"]["failed"] == 0
    assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["per_layer"]["trace.policies"]["value"] == 2  # rounds 0, 2
    ratio = result["per_layer"]["trace.attributed_ratio"]["value"]
    assert 0.5 < ratio <= 1.0
    lines = spans.read_text().splitlines()
    assert lines and all(json.loads(line)["context"] for line in lines)


class FakeTable:
    n = 10

    def __init__(self, wrong):
        self.wrong = wrong

    def request(self, i):
        return (i,)

    def decide(self):
        return (lambda i: i + 1) if self.wrong else (lambda i: i)

    def failure(self, i, answer):
        return None if answer == i else "action-differs-from-table"


class Flaky(workloads.Workload):
    """Policy 1 raises, policy 2 serves wrong answers, policy 3 misses
    its reference."""

    name = "flaky"
    min_policies = max_policies = 4
    batches_per_policy = 1

    def policy(self, k):
        if k == 1:
            raise RuntimeError("solver crashed")
        self.k = k

    def table(self):
        return FakeTable(wrong=self.k == 2)

    def check(self):
        return ["gain-off-reference"] if self.k == 3 else []


def test_failures_are_counted_and_never_abort_the_run(tmp_path):
    result = workloads.measure(Flaky(seed=1, reference={}), seconds=0.01)
    policies, decisions = result["policies"], result["decisions"]
    assert (policies["attempted"], policies["failed"]) == (4, 2)
    assert policies["reasons"] == {
        "RuntimeError: solver crashed": 1, "gain-off-reference": 1,
    }
    # No table after the crash: three batches, one of them all wrong.
    batch = workloads.BATCH_SIZE
    assert (decisions["attempted"], decisions["failed"]) == (3 * batch, batch)
    assert result["extra"]["decide_error_rate"]["value"] == pytest.approx(1 / 3)
    assert result["extra"]["policy_error_rate"]["value"] == 0.5
    assert result["e2e"]["time_to_policy_s"]["n"] == 2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
