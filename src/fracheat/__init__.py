"""fracheat: a cross-validating laboratory for time-fractional
higher-order heat-type equations.

The package evaluates the fundamental solution of

    d^alpha u / dt^alpha = k_n d^n u / dx^n,    u(x, 0) = delta(x),

with a Dzherbashyan-Caputo time derivative of order alpha in (0, 1], by
several independent analytic routes (time-changed signed kernels, Fourier
inversion through Mittag-Leffler functions, Wright-function closed forms),
and checks every route against the others.  A finite-difference residual
check closes the loop.
"""
from __future__ import annotations

from ._errors import (
    ContourError,
    ConvergenceError,
    DomainError,
    FracheatError,
    SeriesRangeError,
    StencilUnderflowError,
)
from .kernel import (
    EquationSpec,
    SignedDensitySample,
    kernel_density,
    kernel_density_grid,
    kernel_laplace,
    kernel_moment,
    make_equation_spec,
)
from .solver import (
    SolutionField,
    SolutionRequest,
    caputo_residual,
    laplace_relation_check,
    solution_char_fn,
    solution_moment,
    solve,
)
from .timechange import (
    TimeChangeLaw,
    time_density,
    time_density_grid,
    time_moment,
)

__version__ = "0.1.0"

__all__ = [
    "FracheatError",
    "DomainError",
    "SeriesRangeError",
    "ConvergenceError",
    "ContourError",
    "StencilUnderflowError",
    "EquationSpec",
    "SignedDensitySample",
    "make_equation_spec",
    "kernel_density",
    "kernel_density_grid",
    "kernel_moment",
    "kernel_laplace",
    "TimeChangeLaw",
    "time_density",
    "time_density_grid",
    "time_moment",
    "SolutionRequest",
    "SolutionField",
    "solve",
    "solution_char_fn",
    "solution_moment",
    "laplace_relation_check",
    "caputo_residual",
    "__version__",
]
