"""Exact normalized radial bound-state wavefunctions and their special functions.

The radial part is R(r) = N (r/re)^(lam-1) exp(-alpha r/re) M(-n, 2 lam; 2 alpha r/re)
with M a terminating confluent hypergeometric (Kummer) polynomial and

    N = re^(-3/2) (2 alpha)^(lam+1/2) / Gamma(2 lam) * sqrt(Gamma(2 lam + n) / (2 n! (lam + n))).

The normalization constant is assembled in log space: Gamma(2 lam + n)
overflows double precision already for gamma around 36.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physmodel import QuantumNumbers, ShapeNumbers, require_int, shape_numbers

__all__ = [
    "KummerParameterError",
    "RadialState",
    "kummer_polynomial",
    "kummer_sum",
    "make_radial_state",
    "radial_wavefunction",
]


class KummerParameterError(ValueError):
    """Second Kummer parameter too close to a nonpositive integer."""


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


def kummer_polynomial(n: int, b: float, z: float) -> float:
    """Terminating Kummer function M(-n, b; z), checked, by kummer_sum.

    Parameters
    ----------
    n : int
        Degree of the polynomial; the first Kummer parameter is -n.
    b : float
        Second Kummer parameter, positive.
    z : float
        Argument.

    Returns
    -------
    float
        sum_{k=0}^{n} [(-n)_k / (b)_k] z^k / k!

    The terms are generated by the stable ratio recurrence
    t_{k+1} = t_k * (k - n) * z / ((b + k) (k + 1)) and summed in order.
    """
    n = require_int(n, "polynomial degree n")
    if not math.isfinite(b):
        raise ValueError("parameter b must be finite")
    if abs(b - round(b)) < 1.0e-12 and round(b) <= 0:
        raise KummerParameterError(
            f"b = {b!r} is within 1e-12 of a nonpositive integer"
        )
    return kummer_sum(n, b, z)


@dataclass(frozen=True)
class RadialState:
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
    if not (math.isfinite(re) and re > 0.0):
        raise ValueError("length scale re must be positive")
    shape = shape_numbers(gamma, qn)
    return RadialState(qn=qn, shape=shape, re=re, log_norm=_log_norm(qn, shape, re))


def radial_wavefunction(state: RadialState, r: float) -> float:
    """Radial wavefunction R(r) in m^(-3/2), assembled in log space."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    lam, alpha = state.shape.lam, state.shape.alpha
    u = r / state.re
    poly = kummer_sum(state.qn.n, 2.0 * lam, 2.0 * alpha * u)
    if poly == 0.0:
        return 0.0
    log_mag = (
        state.log_norm
        + (lam - 1.0) * math.log(u)
        - alpha * u
        + math.log(abs(poly))
    )
    return math.copysign(math.exp(log_mag), poly)
