"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest -q bench
"""

import json
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import speed
from run import ROOT, SRC, tail
from tracing import inclusive_times, layer_metrics, self_times
from workloads import (
    CYCLIC_DIMS,
    VARIANTS,
    WORKLOADS,
    call_cli,
    cyclic_group_algebra,
    write_documents,
)

# root (0..10) has children a (1..4) and b (5..9); a has child c (2..3);
# b has a child named b (6..8), i.e. recursion.
SPANS = [
    ("root", 0.0, 10.0, -1),
    ("a", 1.0, 4.0, 0),
    ("c", 2.0, 3.0, 1),
    ("b", 5.0, 9.0, 0),
    ("b", 6.0, 8.0, 3),
]


def test_self_time_subtracts_direct_children_only():
    own = self_times(SPANS)
    assert own == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}
    assert sum(own.values()) == 10.0  # self times partition the root span


def test_inclusive_time_counts_recursion_once():
    assert inclusive_times(SPANS) == {"root": 10.0, "a": 3.0, "c": 1.0, "b": 4.0}


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    assert tail(samples) == (90.0, 90.0)
    samples = [float(i) for i in range(1, 26)]
    pct, value = tail(samples)
    assert (pct, value) == (60.0, 15.0)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_of_a_short_run_is_capped_at_the_median():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0]
    assert tail(samples) == (pytest.approx(100 * 4 / 7), 4.0)
    assert tail(samples)[1] == statistics.median(samples)
    assert tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert tail([7.0]) == (100.0, 7.0)


def test_speed_is_the_mean_of_the_sampled_speeds():
    ref = speed.REF_SECONDS
    assert speed.speed([ref, ref / 2]) == pytest.approx(1.5)  # speeds 1 and 2


def test_sampler_samples_during_the_work_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.005) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.inside) >= 5
    assert len(sampler.samples) == len(sampler.inside) + 2
    own = sampler.wall - sum(sampler.inside)
    assert sampler.scaled() == pytest.approx(own * speed.speed(sampler.samples))


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(layer_metrics([], Counter())) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(SRC))
    import equihh.cli

    return equihh.cli


def test_cyclic_generator_is_seeded_and_keeps_the_answer(cli, tmp_path):
    assert cyclic_group_algebra(5) == cyclic_group_algebra(5)
    docs = {json.dumps(cyclic_group_algebra(s), sort_keys=True) for s in range(8)}
    assert len(docs) > 1
    for seed in range(4):
        path = Path(tmp_path, f"z6-{seed}.json")
        path.write_text(json.dumps(cyclic_group_algebra(seed)))
        code, out = call_cli(cli, ["validate", str(path), "--output", "json"])
        assert code == 0 and json.loads(out)["valid"]
        code, out = call_cli(cli, ["hh", str(path), "--degrees=-1..0", "--output", "json"])
        result = json.loads(out)
        assert code == 0 and result["certification"] == "Exact"
        assert result["dims"] == {k: CYCLIC_DIMS[k] for k in ("0", "-1")}


def test_a_seed_gives_the_same_distinct_documents(cli, tmp_path):
    workload = WORKLOADS["hh-cyclic"]
    first = [Path(p).read_text() for p in write_documents(cli, workload, 7, tmp_path)]
    again = [Path(p).read_text() for p in write_documents(cli, workload, 7, tmp_path)]
    other = [Path(p).read_text() for p in write_documents(cli, workload, 8, tmp_path)]
    assert first == again
    assert len(set(first)) == VARIANTS
    assert first != other


def test_tracer_reaches_names_imported_elsewhere_and_restores_them(cli, tmp_path):
    import equihh.decomposition as decomposition
    import equihh.hochschild as hochschild
    from tracing import Tracer

    path = Path(tmp_path, "e1.json")
    code, text = call_cli(cli, ["examples", "E1"])
    path.write_text(text)
    original = hochschild.compose_induced
    tracer = Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        assert decomposition.compose_induced is not original
        code, _ = call_cli(cli, ["decompose", str(path), "--output", "json"])
    finally:
        tracer.uninstall()
    metrics = tracer.end_op()
    assert code == 0
    assert decomposition.compose_induced is original is hochschild.compose_induced
    assert metrics["hochschild.functoriality_s"] > 0  # called from decomposition
    assert metrics["hochschild.window_builds"] == 4
    assert metrics["documents.parse_s"] > 0  # called from cli
    assert metrics["dgcat.compose_calls"] > 0
    assert 0 < metrics["hochschild.homology_basis_hit_ratio"] < 1
