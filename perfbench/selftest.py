#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

Checks that traced spans nest and have non-negative self times, that a
different seed gives different inputs, that every wrapper is gone after a
traced run, and that BENCHMARK.json names exactly the metrics run.py prints.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import ccakit  # noqa: E402
from ccakit import appgrad, planted, stochastic  # noqa: E402
from run import END_TO_END, TARGETS, per_layer_units  # noqa: E402
from tracer import ROOT, Tracer, changed_references, package_state, roots, self_times_ns  # noqa: E402
from workloads import WORKLOADS, data_seeds, solve_seed  # noqa: E402

SMALL = planted.PlantedParams(n=300, p1=8, p2=9, correlations=(0.9, 0.7))


def traced_small_runs():
    """A small batch and minibatch solve under the tracer, each under a root span."""
    inst = planted.generate_planted(SMALL, seed=3)
    tracer = Tracer(TARGETS)
    with tracer.active():
        with tracer.span("bench.op"):
            appgrad.run_appgrad(inst.x, inst.y, 2, max_iters=20, record_every=5,
                                oracle=inst.empirical)
        with tracer.span("bench.op"):
            plan = stochastic.MinibatchPlan(m=50, seed=1)
            stochastic.run_stochastic(inst.x, inst.y, 2, plan,
                                      stochastic.StepSchedule("constant", eta0=0.1),
                                      max_iters=20, oracle=inst.empirical, record_every=5)
    return tracer


def test_spans_nest_and_self_times_are_nonnegative():
    tracer = traced_small_runs()
    spans = tracer.spans
    assert all(s is not None for s in spans), "a span was never closed"
    names = {name for _, _, name, _, _ in spans}
    for label in ("appgrad.run", "appgrad.step", "appgrad.normalize", "linalg.sym_inv_sqrt",
                  "metrics.tcc", "stochastic.run", "stochastic.step", "stochastic.sample"):
        assert label in names, f"no span recorded for {label}"
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent == ROOT:
            assert name == "bench.op"
            continue
        assert parent < sid
        _, _, _, pstart, pend = spans[parent]
        assert pstart <= start and end <= pend, f"{name} is not inside its parent"
    self_ns = self_times_ns(spans)
    assert min(self_ns) >= 0
    root_of = roots(spans)
    for sid, parent, _, start, end in spans:
        if parent == ROOT:
            covered = sum(v for i, v in enumerate(self_ns) if root_of[i] == sid)
            assert covered == end - start, "self times do not add up to the root span"
    # the step bound as run_appgrad's default argument is reached too
    steps = [s for s in spans if s[2] == "appgrad.step"]
    assert len(steps) == 20


def test_span_closes_when_the_call_raises():
    tracer = Tracer([("linalg.sym_inv_sqrt", "ccakit.linalg:sym_inv_sqrt")])
    with tracer.active():
        try:
            ccakit.linalg.sym_inv_sqrt(np.eye(2), floor=-1.0)
        except ValueError:
            pass
        else:
            raise AssertionError("sym_inv_sqrt accepted a negative floor")
    assert len(tracer.spans) == 1 and tracer.spans[0] is not None
    assert not tracer._stack


def test_every_wrapper_is_removed_after_a_traced_run():
    before = package_state()
    original_step = appgrad.appgrad_step
    tracer = traced_small_runs()
    assert tracer.spans
    assert changed_references(before, package_state()) == []
    assert appgrad.run_appgrad.__defaults__[-1] is original_step
    assert stochastic._Sampler.next_batch.__name__ == "next_batch"
    assert not hasattr(stochastic.normalize_columns, "__wrapped__")
    # and while installed, the references really were replaced
    with Tracer(TARGETS).active():
        assert changed_references(before, package_state())
        assert hasattr(stochastic.normalize_columns, "__wrapped__")
        assert appgrad.run_appgrad.__wrapped__.__defaults__[-1] is not original_step
    assert changed_references(before, package_state()) == []


def test_different_seeds_give_different_inputs():
    assert data_seeds(1) == data_seeds(1)
    assert not set(data_seeds(1)) & set(data_seeds(2))
    assert len(set(data_seeds(1))) == len(data_seeds(1))
    assert solve_seed(1, 0) != solve_seed(2, 0) and solve_seed(1, 0) != solve_seed(1, 1)
    # every workload builds its inputs from data_seeds (csv-compare writes
    # a planted draw with its own parameters to CSV)
    build = WORKLOADS["batch-rank5"].build
    a, b = (build(data_seeds(seed)[0], None) for seed in (1, 2))
    assert a.x.shape == b.x.shape and not np.array_equal(a.x, b.x)
    assert np.array_equal(a.x, build(data_seeds(1)[0], None).x)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
