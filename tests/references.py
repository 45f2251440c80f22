"""Pointwise and finite-difference references that the tests hold the
library to.

radial_wavefunction is R(r) at one r, the scalar form of the density
that oracle integrates in batches; ode_rhs_deformed is phi'' of the
deformed momentum equation at one p, from the same B and C that
momentum.integrate_branch steps with; heun_residual pushes a numerical
solution through the chart of a Heun-type parameter set and checks it
by finite differences, independently of the original equation.
"""

import math
from dataclasses import dataclass

import numpy as np

from kratzerml.momentum import (
    HeunParams,
    HeunParamsIS,
    MomentumProblem,
    OdeSolution,
    _coefficients,
    _ratios,
    indicial_exponents,
)
from kratzerml.wavefunctions import RadialState, kummer_sum


def radial_wavefunction(state: RadialState, r: float) -> float:
    """Radial wavefunction R(r) in m^(-3/2), assembled in log space; r > 0."""
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


def ode_rhs_deformed(
    prob: MomentumProblem, p: float, phi: complex, dphi: complex
) -> complex:
    """phi'' solved from the deformed equation for phi = p psi at p > 0.
    At beta = 0 it reduces to the undeformed equation, (p^2 + k^2) phi''
    + (4 p + 2 i sigma2) phi' + (2 - sigma1) phi = 0."""
    b_ratio, c_ratio = _ratios(_coefficients(*prob), p)
    return -(b_ratio * dphi + c_ratio * phi)


@dataclass(frozen=True)
class HypergeometricParams:
    """beta = 0 reduction: phi = p psi in x = 1/2 + i p/(2 k).

    a b = 2 - sigma1 and a + b = 3; a, b turn complex together with nu
    in the singular regime.  Divided by x (1 - x), the hypergeometric
    equation has the weights c and a + b + 1 - c at x = 0 and 1 and the
    accessory numerator a b over x (x - 1).
    """

    a: complex
    b: complex
    c: float
    k: float


def hypergeometric_params(prob: MomentumProblem) -> HypergeometricParams:
    """Parameters of the beta = 0 reduction (a = 3/2 + nu, b = 3/2 - nu,
    c = 2 + sigma2/k) of an undeformed problem.

    phi = p psi decays as p^-a and p^-b, so a and b are minus the psi
    exponents of indicial_exponents, less one.
    """
    fast, slow = indicial_exponents(prob)
    return HypergeometricParams(
        a=-1.0 - fast, b=-1.0 - slow, c=2.0 + prob.sigma2 / prob.k, k=prob.k
    )


def _five_point(params: HeunParams, p, psi):
    z = 0.5 * (1.0 - 1.0j * math.sqrt(6.0 * params.beta) * p)
    return (
        z,
        p * psi,
        (0.0, 1.0, params.z1, params.z2),
        (params.c, params.d, params.e, params.f),
        params.a * params.b * z * z + params.rho1 * z + params.rho2,
    )


def _four_point(params: HeunParamsIS, p, psi):
    blow = 1.0 + 6.0 * params.beta * p * p
    xi = 6.0 * params.beta * p * p / blow
    return (
        xi,
        psi * blow,
        (0.0, 1.0, params.xi0),
        (params.c, params.d, params.e),
        params.a * params.b * xi + params.q,
    )


def _hypergeometric(params: HypergeometricParams, p, psi):
    return (
        0.5 + 0.5j * p / params.k,
        p * psi,
        (0.0, 1.0),
        (params.c, params.a + params.b + 1.0 - params.c),
        params.a * params.b,
    )


#: each parameter class's Fuchsian form as a function of (params, p, psi):
#: the chart x(p), f, the singular points x_j, their weights w_j and the
#: accessory numerator N(x)
_CHARTS = {
    HeunParams: _five_point,
    HeunParamsIS: _four_point,
    HypergeometricParams: _hypergeometric,
}


def _fd_derivatives(x: np.ndarray, f: np.ndarray):
    # non-uniform three-point stencils at interior nodes; complex-safe
    # since the transformed abscissae lie on a straight line where the
    # solutions are analytic
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    d1 = (
        -(h2 / (h1 * (h1 + h2))) * f0
        + ((h2 - h1) / (h1 * h2)) * f1
        + (h1 / (h2 * (h1 + h2))) * f2
    )
    d2 = 2.0 * (
        f0 / (h1 * (h1 + h2)) - f1 / (h1 * h2) + f2 / (h2 * (h1 + h2))
    )
    return d1, d2


def _max_normalized_residual(t1, t2, t3) -> float:
    num = np.abs(t1 + t2 + t3)
    den = np.abs(t1) + np.abs(t2) + np.abs(t3)
    out = np.zeros_like(num)
    live = den > 0.0
    out[live] = num[live] / den[live]
    return float(out.max()) if out.size else 0.0


def heun_residual(
    params: HeunParams | HeunParamsIS | HypergeometricParams,
    solution: OdeSolution,
) -> float:
    """Max normalized residual of a transformed solution in the Heun form.

    Pushes the numerical (p, psi) data through the chart of one problem's
    params (_CHARTS) and differentiates by finite differences on the
    transformed abscissae.  Each chart gives its equation in the one
    Fuchsian form

        f'' + sum_j w_j/(x - x_j) f' + N(x)/prod_j (x - x_j) f = 0.

    The residual at each interior node is |sum of the three terms| /
    (sum of their moduli); an identically-zero solution gives 0.
    """
    x, f, points, weights, numerator = _CHARTS[type(params)](
        params, solution.grid, solution.values
    )
    d1, d2 = _fd_derivatives(x.astype(complex), f)
    pre = sum(w / (x - xj) for w, xj in zip(weights, points))
    rat = numerator / math.prod(x - xj for xj in points)
    return _max_normalized_residual(d2, pre[1:-1] * d1, (rat * f)[1:-1])
