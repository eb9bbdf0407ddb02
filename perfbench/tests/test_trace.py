"""Span accounting of the traced run."""

import pytest

import checks
import layers
import rahman.cli
import rahman.polynomials
import rahman.theorems
import run
import spans
import workloads


class FakeClock:
    def __init__(self, *times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    tracer.end(tracer.begin("b"))
    tracer.end(a)
    tracer.end(tracer.begin("c"))
    tracer.end(root)
    assert tracer.self_times() == [10 - 3 - 4, 3 - 1, 1, 4]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "self_s": 2, "total_s": 3}
    assert sum(tracer.self_times()) == 10


def test_overlapping_children_are_counted_once():
    tracer = spans.Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1],
        ["x", 1.0, 5.0, 0],
        ["y", 3.0, 7.0, 0],    # overlaps x on [3, 5]
        ["z", 9.0, 12.0, 0],   # runs past the parent's end
    ]
    assert tracer.self_times()[0] == pytest.approx(10 - 6 - 1)


def test_spans_must_close_in_order():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrappers_replace_every_binding_and_restore():
    original = rahman.polynomials.eval_P
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        for module in (rahman.polynomials, rahman.theorems, rahman.cli):
            assert module.eval_P is not original
            assert module.eval_P.__wrapped__ is original
    finally:
        tracer.restore()
    for module in (rahman.polynomials, rahman.theorems, rahman.cli):
        assert module.eval_P is original


def traced_pass(batch):
    tracer = spans.Tracer()
    plain, traced = run.run_pass(batch, checks.Checker(0), tracer=tracer)
    assert plain.failures == traced.failures == []
    return tracer, plain, traced


def test_layer_self_times_cover_the_traced_wall_time(tmp_path):
    p = (1, 2, 3, 5)
    text = workloads.p_option(p)
    batch = [
        workloads.Request("verify", ("verify", "all", "--p", text, "--N", "1"), p=p, n=1),
        workloads.Request("table", ("table", "--p", text, "--N", "2"), p=p, n=2, detail=("json",)),
        workloads.Request("eval", ("eval", "1", "0", "1", "0", "--p", text, "--N", "1"),
                          p=p, n=1, detail=(1, 0, 1, 0)),
        workloads.Request("export", ("export", "dual-bases", "--p", text, "--N", "2"),
                          p=p, n=2, detail=("dual-bases", "json")),
    ]
    tracer, plain, traced = traced_pass(batch)
    assert plain.rounds == traced.rounds == run.MIN_ROUNDS == 2
    own = tracer.self_times()
    assert all(x >= 0 for x in own)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli"] * 8
    wall = sum(end - start for _, start, end, _ in roots)
    assert 2 * traced.mean_batch_s() == pytest.approx(wall, rel=1e-9)
    assert sum(own) == pytest.approx(wall, rel=1e-9)

    metrics = layers.layer_metrics(tracer, 2, wall / 2, plain.mean_batch_s())
    layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in layers.ALL_LAYERS)
    assert layer_total == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert metrics["cli.requests"][0] == 4
    assert metrics["polynomials.eval_P.calls"][0] > 0
    assert metrics["theorems.operators.checked"][0] == 6  # 2 slots x 3 lattice points
    # each verifier builds its own cache, so the same values are recomputed
    assert 0 < metrics["polynomials.eval_P.repeat_ratio"][0] < 1
    assert plain.attempted == traced.attempted == 8


def test_every_child_lies_inside_its_parent():
    p = (2, 1, 7, 3)
    request = workloads.Request("verify", ("verify", "all", "--p", workloads.p_option(p),
                                           "--N", "1"), p=p, n=1)
    tracer, _, _ = traced_pass([request])
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            _, parent_start, parent_end, _ = tracer.spans[parent]
            assert parent_start <= start <= end <= parent_end, name
