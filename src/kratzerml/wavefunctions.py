"""Exact normalized radial bound-state wavefunctions and their special functions.

The radial part is R(r) = N (r/re)^(lam-1) exp(-alpha r/re) M(-n, 2 lam; 2 alpha r/re)
with M a terminating confluent hypergeometric (Kummer) polynomial and

    N = re^(-3/2) (2 alpha)^(lam+1/2) / Gamma(2 lam) * sqrt(Gamma(2 lam + n) / (2 n! (lam + n))).

The normalization constant is assembled in log space: Gamma(2 lam + n)
overflows double precision already for gamma around 36.  oracle
evaluates R(r) from a RadialState and kummer_sum, in batches.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .physmodel import QuantumNumbers, ShapeNumbers, require_positive, shape_numbers

__all__ = [
    "RadialState",
    "kummer_sum",
    "make_radial_state",
]


def kummer_sum(n, b, z):
    """M(-n, b; z) as the terms t_{k+1} = t_k (k - n) z / ((b + k)(k + 1)),
    t_0 = 1, summed in order; the arguments are not checked.

    n, b and z are numbers or numpy arrays that broadcast together, and
    the result has their broadcast shape.  Rows of smaller n need no
    padding: at k = n the factor k - n zeroes every later term.
    """
    degree = n if isinstance(n, int) else int(n.max())
    term = acc = 1.0
    for k in range(degree):
        term = term * ((k - n) * z / ((b + k) * (k + 1.0)))
        acc = acc + term
    if degree == 0 and not all(isinstance(v, (int, float)) for v in (n, b, z)):
        return np.ones(np.broadcast_shapes(*map(np.shape, (n, b, z))))
    return acc


class RadialState(NamedTuple):
    """One normalized radial bound state.

    Attributes
    ----------
    qn : QuantumNumbers
    shape : ShapeNumbers
    re : float
        Length scale of the state in m (the equilibrium distance on the
        molecular branch, gamma^2/scale in general).
    log_norm : float
        log N, with N the normalization constant in m^(-3/2); N itself
        overflows a double for heavy molecules (gamma ~ 700 at re = 0.74 A).
    """

    qn: QuantumNumbers
    shape: ShapeNumbers
    re: float
    log_norm: float


def _log_norm(qn: QuantumNumbers, shape: ShapeNumbers, re: float) -> float:
    lam, alpha, n = shape.lam, shape.alpha, qn.n
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for a bound state")
    return (
        -1.5 * math.log(re)
        + (lam + 0.5) * math.log(2.0 * alpha)
        - math.lgamma(2.0 * lam)
        + 0.5 * (
            math.lgamma(2.0 * lam + n)
            - math.log(2.0)
            - math.lgamma(n + 1.0)
            - math.log(lam + n)
        )
    )


def make_radial_state(gamma: float, qn: QuantumNumbers, re: float) -> RadialState:
    """Build the radial state for shape number gamma and length scale re."""
    require_positive(re, "length scale re")
    shape = shape_numbers(gamma, qn)
    return RadialState(qn=qn, shape=shape, re=re, log_norm=_log_norm(qn, shape, re))

