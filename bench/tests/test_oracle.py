"""The reference oracle: exact special cases and the point accounting."""
import pytest

import oracle
from harness import Outcome
from workloads import Request


def test_self_test_passes():
    assert oracle.self_test() == []


@pytest.mark.parametrize("x", [0.0, 0.8, -3.0])
def test_closed_form_matches_fracheat_at_half(x):
    import fracheat as fh
    req = fh.SolutionRequest(spec=fh.make_equation_spec(2), alpha=0.5, t=2.0,
                             x_grid=(x,), route="fourier_ml")
    field = fh.solve(req)
    ref, ref_err = oracle.closed_form_n2(x, 0.5, 2.0)
    assert abs(field.grid_values()[0] - ref) <= \
        field.grid_errors()[0] + ref_err + oracle.ROUNDING_FLOOR


def _outcome(n, values, errors, xs=(0.5, 1.0)):
    req = Request("subordination", n, 1, 0.6, 1.0, xs, "test")
    return Outcome(req, "ok", 0.1, list(values), list(errors))


def test_check_counts_violations_wrong_and_unchecked_points():
    exact = [oracle.closed_form_n2(x, 0.6, 1.0)[0] for x in (0.5, 1.0)]
    outs = [
        _outcome(2, exact, [1e-9, 1e-9]),
        _outcome(2, [exact[0] + 1e-6, exact[1] + 1.0], [1e-9, 1e-9]),
        _outcome(3, [0.1, 0.2], [1e-9, 1e-9]),
    ]

    def unavailable(*args):
        raise oracle.ReferenceUnavailable("no reference")

    report = oracle.check(outs, unavailable)
    assert (report.checked, report.unchecked) == (4, 2)
    assert (report.violations, report.wrong) == (2, 1)


def test_check_mirrors_odd_orders_of_negative_sign():
    calls = []

    def reference(route, n, sign, alpha, t, ys):
        calls.append((sign, ys))
        return [float(y) for y in ys], [0.0] * len(ys)

    plus = Request("fourier_ml", 3, 1, 0.6, 1.0, (0.5, 1.0), "test")
    minus = Request("fourier_ml", 3, -1, 0.6, 1.0, (-1.0, 2.0), "test")
    outs = [Outcome(plus, "ok", 0.1, [0.5, 1.0], [0.0, 0.0]),
            Outcome(minus, "ok", 0.1, [1.0, -2.0], [0.0, 0.0])]
    report = oracle.check(outs, reference)
    assert calls == [(1, (-2.0, 0.5, 1.0))]
    assert (report.checked, report.violations) == (4, 0)


def test_check_scales_the_reference_by_self_similarity():
    calls = []

    def reference(route, n, sign, alpha, t, ys):
        calls.append((route, t, ys))
        return [1.0] * len(ys), [0.0] * len(ys)

    t = 16.0
    scale = t ** (-0.6 / 4)
    req = Request("fourier_ml", 4, 1, 0.6, t, (-1.0, 2.0), "test")
    out = Outcome(req, "ok", 0.1, [scale, scale], [0.0, 0.0])
    report = oracle.check([out], reference)
    assert calls == [("subordination", 1.0, (-scale, 2.0 * scale))]
    assert (report.checked, report.violations) == (2, 0)
