"""Tests of the benchmark's own machinery: span arithmetic, percentiles,
seeded inputs and the tracer's install/uninstall."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import smoothgan.cli  # noqa: E402,F401  (loads every submodule)
from harness import percentile, samples_beyond  # noqa: E402
from run import Loop, end_to_end, run_op  # noqa: E402
from smoothgan import divergences, nnsmooth, trainer  # noqa: E402
from tracer import (Tracer, layer_metrics, package_modules, self_times,  # noqa: E402
                    update_intervals_ms)
from workloads import BUILDERS, Op, Workload  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),      # grandchild of a: not subtracted from a
        ("b", 5.0, 7.0, 0),
        ("a", 20.0, 21.0, -1),
    ]
    calls, self_s = self_times(spans)
    assert calls == {"a": 2, "b": 2, "c": 1}
    assert self_s["a"] == pytest.approx((10.0 - 3.0 - 2.0) + 1.0)
    assert self_s["b"] == pytest.approx((3.0 - 1.0) + 2.0)
    assert self_s["c"] == pytest.approx(1.0)
    # self times partition the root spans' total
    assert sum(self_s.values()) == pytest.approx(11.0)


def test_update_gaps_stay_within_one_train_call():
    marks = [(0.0, 3), (0.010, 3), (0.030, 3), (1.0, 9), (1.005, 9)]
    assert update_intervals_ms(marks) == pytest.approx([10.0, 20.0, 5.0])


def test_percentile_interpolates_like_numpy():
    vals = sorted(np.random.default_rng(0).uniform(size=37).tolist())
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert percentile(vals, q) == pytest.approx(float(np.percentile(vals, 100 * q)))
    assert percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_samples_beyond_p90():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(101, 0.9) == 10
    assert samples_beyond(90, 0.9) == 9
    for n in (10, 57, 100, 250):
        vals = list(range(n))
        assert sum(v > percentile(vals, 0.9) for v in vals) == samples_beyond(n, 0.9)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_inputs(name):
    digests = []
    for seed in (5, 5, 6):
        workload = BUILDERS[name](seed)
        workload.close()
        digests.append(workload.digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _bindings() -> dict:
    out = {}
    for mod_name, mod in package_modules().items():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
    for cls in (divergences.KernelSpec, nnsmooth.MlpNet):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_install_uninstall_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # both the defining module and the importing module see the wrapper
        assert trainer.mmd_sq is divergences.mmd_sq
        assert before[("trainer", "mmd_sq")] is not trainer.mmd_sq
        assert divergences.KernelSpec.gram is not before[("KernelSpec", "gram")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_descent_pass():
    workload = BUILDERS["descent"](3)
    tracer = Tracer()
    tracer.install()
    try:
        for op in workload.ops[:2]:
            tracer.active = True
            out = op.run()
            tracer.active = False
            assert op.check(out)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_exactly():
    spec = [{"name": n} for n in ("trainer.train_particles.calls", "trainer.steps_done",
                                  "divergences.mmd_sq.calls", "divergences.gram.cells",
                                  "measures.atoms_in", "cli.main.calls")]
    first = layer_metrics(_traced_descent_pass(), spec)
    second = layer_metrics(_traced_descent_pass(), spec)
    assert first == second
    assert first["trainer.train_particles.calls"] == 2
    assert first["divergences.mmd_sq.calls"] == first["trainer.steps_done"] == 200
    assert first["cli.main.calls"] == 0


def test_spans_nest_under_their_caller():
    tracer = _traced_descent_pass()
    names = [s[0] for s in tracer.spans]
    parents = {names[s[3]] for s in tracer.spans if s[0] == "divergences.mmd_sq"}
    assert parents == {"trainer.train_particles"}
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_failing_ops_are_counted_not_raised():
    def boom():
        raise ValueError("bad input")

    _, ok, err = run_op(Op("raises", boom, lambda out: True))
    assert not ok and "ValueError" in err
    _, ok, err = run_op(Op("wrong", lambda: 1.0, lambda out: out == 2.0))
    assert not ok and err == "output check failed"
    elapsed, ok, err = run_op(Op("fine", lambda: 2.0, lambda out: out == 2.0))
    assert ok and err == "" and elapsed >= 0.0


def test_op_times_are_in_reference_units():
    clock = iter([2.0, 4.0, 6.0, 2.0, 2.0, 2.0, 2.0, 2.0])    # reference kernel times
    ops = [Op("fast", lambda: None, lambda out: True)] * 3
    loop = Loop(Workload("fake", ops, digest=""), reference=lambda: next(clock))
    loop.one_pass()
    loop.one_pass()
    # each op's time is divided by the mean of the reference runs around it
    refs = [3.0, 5.0, 4.0, 2.0, 2.0, 2.0]
    assert loop.rel_latencies == pytest.approx([t / r for t, r in zip(loop.latencies, refs)])
    assert loop.rel_pass_walls == pytest.approx([sum(loop.rel_latencies[:3]),
                                                 sum(loop.rel_latencies[3:])])
    spec = {"end_to_end": [{"name": n, "unit": u} for n, u in
                           (("wall_ref", "ref"), ("op_p50_ref", "ref"), ("setup_s", "s"))]}
    m = end_to_end(loop, [0.5, 0.7, 0.6], spec)
    assert m["wall_ref"]["value"] == pytest.approx(sum(loop.rel_latencies) / 2)
    assert m["op_p50_ref"]["value"] == pytest.approx(percentile(sorted(loop.rel_latencies), 0.5))
    assert m["setup_s"] == {"value": 0.6, "unit": "s"}
