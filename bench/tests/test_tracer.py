"""Tracer hygiene: install and remove cleanly, nest spans, tolerate gaps."""
import types

import numpy as np
import pytest

import tracer
from tracer import COUNT, Probe, Tracer


def _fake_package():
    """Two modules whose functions call each other through module lookups,
    the way fracheat's modules do."""
    low = types.SimpleNamespace()
    top = types.SimpleNamespace()

    def leaf(x):
        return sum(range(2000)) + x

    def middle(xs):
        return [low.leaf(x) for x in xs]

    def entry(xs):
        return top.middle(xs), top.untraced(xs)

    def untraced(xs):
        return len(xs)

    low.leaf = leaf
    top.middle, top.entry, top.untraced = middle, entry, untraced
    return {"low": low, "top": top}


PROBES = (Probe("top", "entry", "fake.entry"),
          Probe("top", "middle", "fake.middle",
                measure=lambda args, result: {"points": len(args[0])}),
          Probe("low", "leaf", "fake.leaf", COUNT),
          Probe("low", "gone", "fake.gone"))


def test_install_and_uninstall_restore_every_attribute():
    mods = _fake_package()
    before = {name: dict(vars(m)) for name, m in mods.items()}
    tr = Tracer()
    tr.install(mods, PROBES)
    assert mods["top"].entry is not before["top"]["entry"]
    assert mods["top"].untraced is before["top"]["untraced"]
    assert tr.absent == ["low.gone"]
    tr.uninstall()
    assert {name: dict(vars(m)) for name, m in mods.items()} == before


def test_self_times_nest_and_sum_within_wall():
    mods = _fake_package()
    tr = Tracer()
    tr.install(mods, PROBES)
    try:
        start = tr.clock()
        for _ in range(3):
            mods["top"].entry([1, 2, 3])
        wall = tr.clock() - start
    finally:
        tr.uninstall()
    layers = [s[0] for s in tr.spans]
    assert layers == ["fake.entry", "fake.middle"] * 3
    for i, (layer, begin, end, parent) in enumerate(tr.spans):
        if layer == "fake.middle":
            outer = tr.spans[parent]
            assert outer[0] == "fake.entry"
            assert outer[1] <= begin <= end <= outer[2]
    own, total = tr.times()
    assert all(v >= 0.0 for v in own.values())
    assert sum(own.values()) == pytest.approx(total["fake.entry"])
    assert sum(own.values()) <= wall
    assert tr.counts["fake.leaf.calls"] == 9
    assert tr.counts["fake.middle.points"] == 9


def test_missing_probe_reads_zero():
    import fracheat.kernel
    import fracheat.solver
    import fracheat.specfun
    import fracheat.timechange
    specfun = types.SimpleNamespace(**vars(fracheat.specfun))
    del specfun._ml_taylor_mp
    mods = {"solver": fracheat.solver, "specfun": specfun,
            "timechange": fracheat.timechange, "kernel": fracheat.kernel}
    tr = Tracer()
    tr.install(mods)
    tr.uninstall()
    assert tr.absent == ["specfun._ml_taylor_mp"]
    metrics = tracer.per_layer_metrics(tr, 1.0, 1, 1, 0.0, 1.0)
    assert metrics["specfun.ml_taylor_mp.calls"]["value"] == 0.0
    assert metrics["specfun.ml_taylor_mp.share"]["value"] == 0.0
    assert [(k, m["unit"]) for k, m in metrics.items()] == \
        list(tracer.PER_LAYER)


def test_traced_solve_matches_untraced_and_leaves_fracheat_untouched():
    import fracheat as fh
    import fracheat.kernel
    import fracheat.solver
    import fracheat.specfun
    import fracheat.timechange
    mods = {"solver": fh.solver, "specfun": fh.specfun,
            "timechange": fh.timechange, "kernel": fh.kernel}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    req = fh.SolutionRequest(spec=fh.make_equation_spec(3, 1), alpha=0.5,
                             t=1.0, x_grid=(-1.0, 0.0, 1.0),
                             route="subordination")
    plain = fh.solve(req).grid_values()
    tr = Tracer()
    tr.install(mods)
    try:
        traced = tr.span(tracer.ROOT, fh.solve)(req).grid_values()
    finally:
        tr.uninstall()
    assert {name: dict(vars(m)) for name, m in mods.items()} == before
    assert tr.absent == []
    np.testing.assert_array_equal(plain, traced)
    own, total = tr.times()
    assert sum(own.values()) == pytest.approx(total[tracer.ROOT])
    assert tr.counts["kernel.density_grid.calls"] > 0
    assert tr.counts["quadrature.jacobi.calls"] == 1
