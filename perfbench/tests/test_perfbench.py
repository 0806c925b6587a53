"""Tests for the benchmark itself: checks, tracing, seeding, output.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

NULL = Tracer([])


def _resident(seed=1):
    """A resident-locality workload shrunk so a test runs in about a second."""
    workload = workloads.ResidentLocality(seed, 2)
    workload.earlier_jobs, workload.setup_repeats, workload.batch_jobs = 20, 1, 8
    return workload


def _resident_batches(seconds=0.2, seed=1):
    workload = _resident(seed)
    try:
        workload.setup()
        return workloads.timed_phase(workload, seconds, False, NULL)
    finally:
        workload.close()


def test_wrong_result_counts_as_failure(monkeypatch):
    wrong = workloads.SCAN_SOURCE.replace("len(data).to_bytes", "(len(data) + 1).to_bytes")
    monkeypatch.setattr(workloads, "SCAN_SOURCE", wrong)
    batches = _resident_batches()
    jobs = sum(batch.jobs for batch in batches)
    assert jobs > 0
    assert sum(batch.failed for batch in batches) == jobs


def test_right_results_pass_and_reads_run_at_their_holder():
    workload = _resident()
    try:
        workload.setup()
        batches = workloads.timed_phase(workload, 0.2, False, NULL)
    finally:
        workload.close()
    assert sum(batch.failed for batch in batches) == 0
    assert workload.placement["read_jobs"] > 0
    assert workload.placement["at_holder"] == workload.placement["read_jobs"]


def test_scan_expected_matches_codelet_semantics():
    data = bytes([1, 2, 2, 3]) * 10
    nonce = (2).to_bytes(8, "little")
    assert workloads.scan_expected(data, nonce) == (40).to_bytes(8, "little") + (
        20
    ).to_bytes(8, "little")


def test_simulated_replay_mismatch_counts_as_failure():
    workload = workloads.SimGossip(3, 2)
    workload.shards, workload.machines = 16, 4
    workload.setup()
    workload.prepare(0)
    workload.first[0] = (-1.0, -1)  # a replay that cannot match
    batch = workload.batch(0, NULL)
    assert batch.failed == batch.jobs == len(workload.graph.tasks)


def test_simulated_replay_reproduces_exactly():
    workload = workloads.SimPlacement(5, 2)
    workload.shards, workload.machines, workload.graphs = 32, 8, 1
    workload.setup()
    results = []
    for index in range(2):
        workload.prepare(index)
        results.append(workload.batch(index, NULL))
    assert [b.failed for b in results] == [0, 0]
    assert results[0].sim_makespan == results[1].sim_makespan
    assert results[0].bytes == results[1].bytes


def test_inputs_come_from_the_seed():
    def first_graph(seed):
        workload = workloads.SimPlacement(seed, 2)
        workload.shards, workload.machines = 16, 4
        workload.setup()
        workload.prepare(0)
        return {
            name: (spec.location, spec.size) for name, spec in workload.graph.data.items()
        }, [task.compute_seconds for task in workload.graph.tasks.values()]

    assert first_graph(7) == first_graph(7)
    assert first_graph(7) != first_graph(8)
    assert workloads.ResidentLocality(7, 2).next_nonce == workloads.ResidentLocality(
        7, 2
    ).next_nonce
    assert workloads.ResidentLocality(7, 2).next_nonce != workloads.ResidentLocality(
        8, 2
    ).next_nonce


def test_load_budget_refuses_more_than_nproc():
    budget = workloads.LoadBudget(2)
    budget.note(2)
    with pytest.raises(RuntimeError):
        budget.note(3)


def test_self_time_subtracts_children():
    tracer = Tracer([])
    tracer.installed = True
    with tracer.span("driver.batch"):
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
    rollup = tracer.rollup()
    assert rollup.self_time("inner") == pytest.approx(rollup.total("inner"))
    # The parent is also charged the child's wrapper bookkeeping, which
    # belongs to no span's self time.
    without_inner = rollup.total("outer") - rollup.total("inner")
    assert without_inner - 1e-3 < rollup.self_time("outer") <= without_inner
    assert 0.015 < rollup.self_time("outer") < 0.03
    # Root container self time is the thread's unexplained remainder.
    assert rollup.threads["driver"]["wall"] == pytest.approx(rollup.total("driver.batch"))
    assert rollup.unexplained_frac("driver") < 0.2


def test_install_patches_every_from_import_binding():
    import repro.core.minrepo as minrepo
    import repro.dist.costmodel as costmodel
    import repro.dist.scheduler as scheduler
    import repro.fixpoint.net as net

    originals = (minrepo.transitive_footprint, costmodel.choose)
    tracer = Tracer(
        [Target("repro.core.minrepo:transitive_footprint"), Target("repro.dist.costmodel:choose")]
    )
    tracer.install()
    try:
        assert net.transitive_footprint is minrepo.transitive_footprint
        assert net.transitive_footprint is not originals[0]
        assert scheduler.choose is net.choose is costmodel.choose
        assert scheduler.choose is not originals[1]
    finally:
        tracer.uninstall()
    assert (minrepo.transitive_footprint, costmodel.choose) == originals
    assert net.transitive_footprint is originals[0]
    assert scheduler.choose is originals[1]


def test_missing_target_is_skipped_and_listed():
    import repro.dist.costmodel as costmodel

    original = costmodel.choose
    tracer = Tracer(
        [Target("repro.dist.costmodel:no_such_function"),
         Target("repro.dist.nowhere:Thing.method"),
         Target("repro.dist.costmodel:choose")]
    )
    with tracer.installed_for(True):
        assert costmodel.choose is not original
    assert costmodel.choose is original
    assert tracer.missing == {
        "repro.dist.costmodel:no_such_function", "repro.dist.nowhere:Thing.method"
    }


def test_generator_and_counter_targets():
    from repro.core.storage import Repository

    repo = Repository()
    repo.put_blob(b"x" * 100)
    repo.put_tree([repo.put_blob(b"y" * 50)])
    tracer = Tracer(
        [
            Target("repro.core.storage:Repository.handles", "gen"),
            Target("repro.core.data:Blob.handle", "count", amount=layers._bytes_hashed),
        ]
    )
    with tracer.installed_for(True):
        handles = list(repo.handles())
    rollup = tracer.rollup()
    assert len(handles) == 3
    assert rollup.calls("core.storage.Repository.handles") == 1
    assert rollup.counts["core.data.Blob.handle"] == 2
    assert rollup.counts["core.data.Blob.handle:amount"] == 150


def test_traced_run_accounts_for_thread_time():
    workload = _resident(2)
    tracer = Tracer(layers.TARGETS)
    try:
        workload.setup()
        batches = workloads.timed_phase(workload, 1.0, True, tracer)
    finally:
        workload.close()
    assert any(batch.traced for batch in batches)
    assert sum(batch.failed for batch in batches) == 0
    rollup = tracer.rollup()
    assert rollup.unexplained_frac("driver") < run.COVERAGE_LIMIT
    assert rollup.unexplained_frac("worker") < run.COVERAGE_LIMIT
    shares = layers.layer_shares(rollup)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["unexplained"] < 0.1


def _run_last_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_coverage_check_fails_when_a_hot_layer_is_unwrapped(monkeypatch):
    monkeypatch.setattr(workloads.SimGossip, "shards", 32)
    argv = ["--workload", "sim-gossip", "--seed", "3", "--seconds", "0", "--trace", "1"]
    result = _run_last_line(argv)
    assert result["correct"] and result["failed"] == 0
    unexplained = result["metrics"]["trace.driver_thread.unexplained_frac"]["value"]
    assert 0 < unexplained < run.COVERAGE_LIMIT

    round_path = "repro.dist.gossip:GossipCoordinator.round"
    assert round_path in [target.path for target in layers.TARGETS]
    monkeypatch.setattr(
        layers, "TARGETS", [t for t in layers.TARGETS if t.path != round_path]
    )
    result = _run_last_line(argv)
    assert result["failed"] == 0
    assert not result["correct"]
    unexplained = result["metrics"]["trace.driver_thread.unexplained_frac"]["value"]
    assert unexplained > run.COVERAGE_LIMIT


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_output_line_contract():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "sim-placement", "--seed", "4", "--seconds", "0.3",
             "--trace", "0"]
        )
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resident-locality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
