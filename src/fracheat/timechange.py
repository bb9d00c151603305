"""The law of the random time that subordinates the signed kernel.

The random time at physical time ``t`` has the law of ``t^alpha`` times
the one at ``t = 1``, so its density is ``v(u, t) = t^{-alpha}
F(u t^{-alpha})``.  ``F`` comes from the first-passage duality with the
one-sided stable law (Meerschaert & Scheffler 2004):
``F(x) = (1/alpha) x^{-1-1/alpha} g_alpha(x^{-1/alpha})``, float64
throughout.  It is the density that the subordination solve fits, and
the only one the package computes.

``alpha = 1`` is the degenerate point mass at ``u = t`` and has no
density.  The moment formula
``Gamma(1+delta) t^{alpha delta} / Gamma(1+alpha delta)`` closes the
loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from ._errors import DomainError, require_alpha, require_positive
from .specfun import _stable_one_sided, closed_form

# bench/tracer.py probes these by name in this module; nothing here calls them
from .specfun import stable_spec_neg_density_grid, wright_w_extended, wright_w_grid  # noqa: E501,F401

__all__ = [
    "TimeChangeLaw",
    "time_density_grid",
    "time_moment",
]


@dataclass(frozen=True)
class TimeChangeLaw:
    """One random-time law: order ``alpha`` and horizon ``t``."""

    alpha: float
    t: float

    def __post_init__(self) -> None:
        require_alpha(self.alpha)
        require_positive(self.t, "t")


def time_density_grid(law: TimeChangeLaw, u) -> np.ndarray:
    """Density of the random time over an array of ``u``, by duality.

    Zero for ``u < 0`` and ``t^{-alpha} / Gamma(1 - alpha)`` at ``u = 0``.
    Each point ``x = u t^{-alpha} > 0`` takes the stable law at its own
    scale, ``F(x) = g(1; scale x) / (alpha x)``, so the stable density's
    argument stays 1 instead of ``x^{-1/alpha}``, which overflows near
    ``x = 0`` for small ``alpha``.  All points go to the stable density in
    one call, and each keeps the relative accuracy of its own evaluation
    far into the tail, where the density underflows to 0.
    """
    alpha = law.alpha
    if alpha == 1.0:
        raise DomainError(
            "at alpha = 1 the random time is a point mass at u = t and has "
            "no density")
    scale = law.t ** -alpha
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(u)):
        raise DomainError("u must be finite")
    x = u * scale
    profile = np.where(x == 0.0, float(rgamma(1.0 - alpha)), 0.0)
    pos = x > 0.0
    g = _stable_one_sided(np.ones(np.count_nonzero(pos)), alpha,
                          np.log(x[pos]))
    profile[pos] = g / (alpha * x[pos])
    return scale * profile


def time_moment(alpha: float, delta: float, t: float) -> float:
    """``E[T^delta] = Gamma(1+delta) t^{alpha delta} / Gamma(1+alpha delta)``
    (equals ``t^delta`` at ``alpha = 1``)."""
    require_alpha(alpha)
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"delta must be nonnegative and finite, got {delta}")
    require_positive(t, "t")
    return closed_form(
        1.0,
        float(gammaln(1.0 + delta) - gammaln(1.0 + alpha * delta))
        + alpha * delta * math.log(t),
        lambda: (math.gamma(1.0 + delta) * t ** (alpha * delta)
                 / math.gamma(1.0 + alpha * delta)),
        f"moment {delta} of the random time")
