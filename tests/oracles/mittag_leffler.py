"""The Mittag-Leffler function from its real-integral representation, as
an oracle.

For 0 < alpha < 1 and ``arg z != +-alpha pi`` (Gorenflo, Loutchko &
Luchko, Fract. Calc. Appl. Anal. 5 (2002) 491-518, with beta = 1)

    E_alpha(z) = -(z sin(alpha pi) / (alpha pi))
                 int_0^inf e^(-r^(1/alpha)) / (r^2 - 2 r z cos(alpha pi) + z^2) dr
                 + [|arg z| < alpha pi] e^(z^(1/alpha)) / alpha.

The integral carries no cancellation, so 20 digits give the value to far
below any float64 bar, at a cost that does not grow with ``|z|``: the
Taylor sum ``specfun._ml_taylor_mp`` needs ``0.434 |z|^(1/alpha)`` extra
digits and about ``|z|^(1/alpha) / alpha`` terms.  It shares no code with
:mod:`fracheat.specfun`.
"""
from __future__ import annotations

import mpmath as mp


def ml_integral(z: complex, alpha: float) -> complex:
    """E_alpha(z) at one point, for alpha in (0, 1) and ``z`` off the rays
    ``arg z = +-alpha pi``."""
    with mp.workdps(20):
        zm, am = mp.mpc(z), mp.mpf(alpha)
        cos_a, sin_a = mp.cos(mp.pi * am), mp.sin(mp.pi * am)

        def f(r):
            return mp.exp(-r ** (1 / am)) / (r * r - 2 * r * zm * cos_a
                                             + zm * zm)

        # split where e^(-r^(1/alpha)) falls off and where the denominator
        # comes nearest to zero, |r| = |z|
        edges = sorted({mp.mpf(0), mp.mpf(1), abs(zm)}) + [mp.inf]
        value = -zm * sin_a / (am * mp.pi) * mp.quad(f, edges)
        if abs(mp.arg(zm)) < am * mp.pi:
            value += mp.exp(zm ** (1 / am)) / am
        return complex(value)
