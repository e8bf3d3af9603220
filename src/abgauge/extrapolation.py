"""Refinement until two levels agree, and polynomial extrapolation of value
sequences to a vanishing step parameter."""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def refine(level_value, converged, max_levels: int, what: str):
    """(value, previous, level) at the first level >= 1 where converged(value, previous);
    after max_levels + 1 levels without one, NoConvergence naming what, the budget
    and the last two iterates."""
    previous = value = None
    for level in range(max_levels + 1):
        previous, value = value, level_value(level)
        if level and converged(value, previous):
            return value, previous, level
    raise NoConvergence(f"{what} did not converge within {max_levels} doublings; "
                        f"last two iterates {previous!r} and {value!r}")


def neville_to_zero(xs, ys):
    """Neville tableau for the interpolating polynomial, evaluated at 0.

    xs are positive step parameters (for example 1/L**2 or eps**2) and ys the
    matching values, scalars or equal-shape arrays.  Returns (limit,
    diagonal) where diagonal[k] is the extrapolant using the first k+1
    points; the spread of the last two entries is the usual error estimate.
    """
    n = len(xs)
    if n == 0 or len(ys) != n:
        raise ValueError("need matching, nonempty xs and ys")
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][0] = np.asarray(ys[i], dtype=float)
    for j in range(1, n):
        for i in range(j, n):
            x_lo, x_hi = xs[i - j], xs[i]
            table[i][j] = (x_lo * table[i][j - 1] - x_hi * table[i - 1][j - 1]) / (x_lo - x_hi)
    diagonal = [table[i][i] for i in range(n)]
    return diagonal[-1], diagonal
