"""Closed loop, deadlines and failure accounting, on stub solvers."""
import json
import signal
import time
from pathlib import Path

import pytest

import harness
import oracle
import tracer
from workloads import Request


class StubError(Exception):
    pass


def _req(stratum):
    return Request("subordination", 3, 1, 0.5, 1.0, (0.0, 1.0), stratum)


def stub_solve(route, n, sign, alpha, t, xs):
    return [0.1] * len(xs), [1e-9] * len(xs)


def overrunning_solve(route, n, sign, alpha, t, xs):
    # pure-Python work, the kind the alarm interrupts inside mpmath loops
    end = time.perf_counter() + 30.0
    while time.perf_counter() < end:
        pass
    return stub_solve(route, n, sign, alpha, t, xs)


def failing_solve(route, n, sign, alpha, t, xs):
    raise StubError("refused")


def test_deadline_hit_is_a_failure_and_the_timer_is_cleared():
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    out = harness.serve(_req("slow"), overrunning_solve, 0.2, (StubError,))
    assert time.perf_counter() - start < 5.0
    assert out.status == "deadline" and not out.ok
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    nxt = harness.serve(_req("next"), stub_solve, 0.2, (StubError,))
    assert nxt.ok and list(nxt.values) == [0.1, 0.1]


def test_closed_loop_counts_failures_against_attempts():
    reqs = [_req("slow"), _req("ok"), _req("bad"), _req("ok")]
    solvers = {"slow": overrunning_solve, "bad": failing_solve,
               "ok": stub_solve}
    order = iter(reqs)

    def dispatch(route, n, sign, alpha, t, xs):
        return solvers[next(order).stratum](route, n, sign, alpha, t, xs)

    outcomes, wall, served = harness.closed_loop(
        iter([reqs]), 0.0, dispatch, 0.2, (StubError,))
    assert served == 1
    assert [o.status for o in outcomes] == ["deadline", "ok", "error", "ok"]
    report = oracle.CheckReport(checked=4)
    metrics, extras = harness.end_to_end(outcomes, 0.01, 50.0, report)
    assert metrics["solved_frac"]["value"] == 0.5
    assert extras["failed_frac"] == 0.5
    assert extras["points"] == 4


def test_closed_loop_serves_whole_rounds_until_time_is_up():
    ticks = iter(range(100))

    def clock():
        return float(next(ticks))

    rnd = [_req("a"), _req("b")]
    outcomes, wall, served = harness.closed_loop(
        iter([rnd] * 10), 6.0, stub_solve, 1.0, (StubError,), clock)
    # each request spends two ticks: the check after round one reads 5
    assert served == 2 and len(outcomes) == 4


@pytest.mark.parametrize("count, expected", [(39, None), (40, 75),
                                             (100, 90), (84, 88)])
def test_tail_percentile_leaves_ten_solves_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_benchmark_json_names_every_metric():
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == \
        set(harness.DEADLINES)


@pytest.mark.parametrize("cost, runs", [(3.0, 2), (1.0, 3), (0.1, 5)])
def test_setup_repeats_long_set_ups_less(monkeypatch, cost, runs):
    now = [0.0]
    calls = []

    def fake_setup(fh, workload, solve):
        calls.append(workload)
        now[0] += cost

    monkeypatch.setattr(harness, "setup", fake_setup)
    scaled, median = harness.timed_setup(None, "warm_field", None,
                                         lambda: now[0])
    assert len(calls) == runs
    assert median == pytest.approx(cost) and scaled == median
    # on a machine at half the reference speed the probe takes twice as
    # long, and set-up is charged half its wall time
    sampler = harness.SpeedSampler()
    sampler.samples.append(2.0 * harness.REF_PROBE_S)
    scaled, median = harness.timed_setup(None, "warm_field", None,
                                         lambda: now[0], sampler=sampler)
    assert scaled == pytest.approx(cost / 2.0)


def test_sampler_probes_through_cpu_bound_work_and_restores_signals():
    previous = signal.getsignal(signal.SIGPROF)
    with harness.SpeedSampler(every_s=0.05, work=lambda: None) as sampler:
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
    # one sample on entry, then about one per 0.05 s of CPU time
    assert 4 <= len(sampler.samples) <= 12
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous


def test_charge_takes_out_probing_and_scales_by_the_probes_around():
    sampler = harness.SpeedSampler()
    ref = harness.REF_PROBE_S
    sampler.samples[:] = [ref, 2.0 * ref, 4.0 * ref]
    # a stretch that began after the first sample: two probes inside it,
    # three setting its speed (scales 1, 1/2, 1/4)
    ref_s, probing = sampler.charge(1.0, 1)
    assert probing == pytest.approx(6.0 * ref)
    assert ref_s == pytest.approx((1.0 - 6.0 * ref) * (1.75 / 3.0))


def test_closed_loop_charges_reference_time_except_deadline_hits():
    reqs = [_req("slow"), _req("ok")]
    solvers = {"slow": overrunning_solve, "ok": stub_solve}
    order = iter(reqs)

    def dispatch(route, n, sign, alpha, t, xs):
        return solvers[next(order).stratum](route, n, sign, alpha, t, xs)

    sampler = harness.SpeedSampler()
    sampler.samples.append(4.0 * harness.REF_PROBE_S)
    outcomes, _, _ = harness.closed_loop(
        iter([reqs]), 0.0, dispatch, 0.2, (StubError,), sampler=sampler)
    slow, ok = outcomes
    assert slow.status == "deadline" and slow.ref_s == slow.wall
    assert ok.ref_s == pytest.approx(ok.wall / 4.0)
