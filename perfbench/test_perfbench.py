"""The benchmark's own tests: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import alignsim  # noqa: E402
from alignsim import ChangingPattern, build_blind_scheme, generic_free_dims  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, profile, self_times  # noqa: E402
from workloads import WORKLOADS, blind_network, build_ops  # noqa: E402

# root 0..100 calls a linalg function 10..40 (which calls another linalg
# function 20..30) and a channel function 50..90
TREE = [("harness.run_trials", 0, 100, -1, 0),
        ("linalg.is_subspace", 10, 40, 0, 0),
        ("linalg.numeric_rank", 20, 30, 1, 0),
        ("channel.sample_network", 50, 90, 0, 0)]


def test_self_time_arithmetic_on_synthetic_tree():
    assert self_times(TREE) == [30, 20, 10, 40]
    calls, layer_ns, function_ns, spans_by_name = profile(TREE)
    assert calls == {"harness": 1, "linalg": 1, "channel": 1}
    assert layer_ns == {"harness": 30, "linalg": 30, "channel": 40}
    assert function_ns["linalg.numeric_rank"] == 10
    assert sum(layer_ns.values()) == 100
    assert spans_by_name["linalg.is_subspace"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    ops = build_ops(workload, 7)
    assert ops == build_ops(workload, 7)
    assert ops != build_ops(workload, 8)
    assert len({op.label for op in ops}) > 1


def test_blind_generator_stays_in_regime():
    rng = np.random.default_rng(0)
    for _ in range(50):
        for sigma in range(4):
            for rho in (1, 2):
                network, dof = blind_network(rng, sigma, rho)
                n, K = network["n"], network["K"]
                cross = ChangingPattern(n, tuple(network["patterns"][0][1]))
                blocks = np.diff([1, *cross.change_points, n + 1])
                assert len(cross.change_points) == sigma
                assert blocks.min() >= rho
                scheme = build_blind_scheme(cross, rho, K, seed=1)
                free = sum(generic_free_dims(
                    scheme, ChangingPattern(n, tuple(network["patterns"][k][k])))
                    for k in range(K))
                assert dof == alignsim.blind_total_dof([free], n)


def _short_list(workload):
    ops = build_ops(workload, 3)
    first = {}
    for op in ops:
        first.setdefault(op.label, op)
    return list(first.values())


@pytest.mark.filterwarnings("ignore:power-basis degree")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_verdicts_are_equal(workload):
    specs = _short_list(workload)
    calls = [worker.materialize(spec) for spec in specs]
    originals = (alignsim.linalg.is_subspace, alignsim.harness.run_trials,
                 alignsim.fastfading.is_subspace, np.linalg.svd)
    untraced = worker.run_phase(workload, specs, calls, 0)
    tracer = Tracer()
    tracer.install()
    try:
        assert alignsim.fastfading.is_subspace is not originals[2]
        traced = worker.run_phase(workload, specs, calls, 0, tracer)
    finally:
        rebound = tracer.restore()
    assert rebound > 0
    assert (alignsim.linalg.is_subspace, alignsim.harness.run_trials,
            alignsim.fastfading.is_subspace, np.linalg.svd) == originals
    assert traced.verdicts == untraced.verdicts
    assert untraced.wrong == traced.wrong == 0
    assert not any(untraced.verdicts)   # no op class fails
    calls_by_layer = profile(tracer.spans)[0]
    if workload == "decompose":
        assert tracer.svd_calls == 0 and calls_by_layer["rational"] > 0
    else:
        assert tracer.svd_calls > 0 and calls_by_layer["harness"] == len(specs)


def test_benchmark_json_declares_the_printed_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
