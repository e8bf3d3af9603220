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

    xs are positive step parameters (for example eps**2) and ys the matching
    values, scalars or equal-shape arrays.  Returns the extrapolant through
    all the points.
    """
    n = len(xs)
    if n == 0 or len(ys) != n:
        raise ValueError("need matching, nonempty xs and ys")
    column = [np.asarray(y, dtype=float) for y in ys]
    for j in range(1, n):
        column = [(xs[i - j] * column[i - j + 1] - xs[i] * column[i - j]) / (xs[i - j] - xs[i])
                  for i in range(j, n)]
    return column[0]
