"""Seeded generators: same seed, same requests; new seed, same strata."""
import itertools
from collections import Counter

import pytest

import workloads
from workloads import rounds


def _take(workload, seed, count=3):
    return list(itertools.islice(rounds(workload, seed), count))


def _strata(workload, rnd):
    """Counts that must not depend on the seed."""
    counts = Counter()
    for req in rnd:
        counts[("stratum", req.stratum)] += 1
        counts[("parity", req.n % 2)] += 1
        if req.n % 2:
            counts[("odd sign", req.sign)] += 1
        counts[("points", len(req.xs))] += 1
        counts[("has x=0", 0.0 in req.xs)] += 1
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert _take(workload, 7) == _take(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_new_requests_same_strata(workload):
    a, b = _take(workload, 7), _take(workload, 8)
    assert a != b
    for ra, rb in zip(a, b):
        assert _strata(workload, ra) == _strata(workload, rb)


def test_cold_sweep_strata_and_one_probe_per_run():
    first, *later = _take("cold_sweep", 3, 3)
    probes = [r for r in first if r.stratum == "alpha_probe"]
    assert len(probes) == 1 and first[-1] is probes[0]
    assert probes[0].alpha >= 0.95
    assert all(r.stratum != "alpha_probe" for rnd in later for r in rnd)
    for rnd in [first[:-1], *later]:
        assert [(r.n, r.sign) for r in rnd] == list(workloads.COLD_CONFIGS)
        for centre, r in zip(workloads.COLD_CENTRES, rnd):
            assert abs(r.alpha - centre) <= workloads.COLD_JITTER
            assert len(r.xs) == 7
    fresh = [r.alpha for rnd in _take("cold_sweep", 3, 4) for r in rnd]
    assert len(set(fresh)) == len(fresh)


def test_warm_field_fixed_configurations():
    for rnd in _take("warm_field", 3, 4):
        assert [(r.n, r.sign, r.alpha) for r in rnd] == \
            list(workloads.WARM_CONFIGS)
        assert all(1e-2 <= r.t <= 1e2 for r in rnd)


def test_fourier_opens_every_round_with_a_far_field_request():
    lo, hi = workloads.FAR_X_BAND
    for rnd in _take("fourier", 5, 4):
        assert [r.stratum for r in rnd].count("far_field") == 1
        assert rnd[0].stratum == "far_field" and rnd[0].n == 2
        assert lo <= max(abs(x) for x in rnd[0].xs) <= hi
        assert all(r.route == "fourier_ml" for r in rnd)
        assert all(max(abs(x) for x in r.xs) < lo for r in rnd[1:])
        assert sorted(r.n for r in rnd[1:]) == sorted(list(range(2, 8)) * 2)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        rounds("nope", 1)
