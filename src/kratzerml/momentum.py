"""Momentum-space machinery for the deformed Kratzer problem.

Numerical integration of the deformed and undeformed momentum-space
equations, large-momentum exponent analysis, the s-wave quantization
rule with its closed-form wavefunction, and the Heun-type
parameterizations with their Fuchsian checks.

All integrations work on phi = p psi, which is regular at the origin
where psi itself is not; solutions are reported as psi on the grid.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .physmodel import batch_columns, require_beta, require_int, require_mass

__all__ = [
    "BRANCHES",
    "GridError",
    "NonQuantizedError",
    "QuantizationBreakdownError",
    "StiffnessError",
    "MomentumProblem",
    "OdeSolution",
    "HeunParams",
    "HeunParamsIS",
    "HypergeometricParams",
    "ode_rhs_deformed",
    "integrate_branch",
    "fit_slope",
    "indicial_exponents",
    "quantize_swave",
    "momentum_wavefunction_undeformed",
    "heun_params_general",
    "heun_params_inverse_square",
    "hypergeometric_params",
    "heun_residual",
]

BRANCHES = ("fast-decay", "slow-decay")

#: density floor for solution grids
MIN_POINTS_PER_DECADE = 200

#: large-p exponents (fast, slow) of psi with beta > 0: the phi equation
#: at p >> 1 is the Euler equation 3 s(s-1) + 13 s + 7 = 0, with roots
#: -7/3 and -1, and psi = phi/p lowers both by one
_DEFORMED_EXPONENTS = (-10.0 / 3.0, -2.0)


class StiffnessError(RuntimeError):
    """The integration of a branch turned a value non-finite."""


class NonQuantizedError(ValueError):
    """Momentum k does not satisfy the s-wave quantization condition."""


class QuantizationBreakdownError(NonQuantizedError):
    """s-wave quantization requested in the singular regime sigma1 < -1/4."""


class GridError(ValueError):
    """Solution grid too short for the finite-difference residual."""


@dataclass(frozen=True)
class MomentumProblem:
    """Parameter set of the momentum-space equation.

    sigma1 is the dimensionless inverse-square coupling 2 mu g1/hbar^2;
    any sign is admissible, sigma1 < -1/4 being the singular regime.
    sigma2 = mu g2/hbar and k = sqrt(-2 mu E) carry momentum units and
    beta inverse momentum squared.
    """

    sigma1: float
    sigma2: float
    k: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma1) and math.isfinite(self.sigma2)):
            raise ValueError("sigma1 and sigma2 must be finite")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError("k must be positive and finite")
        require_beta(self.beta)


class _Coefficients(NamedTuple):
    """The p-independent parts of the deformed equation's coefficients.

    (p^2 + k^2)(1 + 6 beta p^2) phi'' + b phi' + c phi = 0 expands to

        a = k^2 + (1 + 6 beta k^2) p^2 + 6 beta p^4
        b = 2 i sigma2 + (4 + 2 beta k^2) p + 6 i beta sigma2 p^2 + 26 beta p^3
        c = (2 - sigma1 - 2 beta k^2) - 4 i beta sigma2 p + 14 beta p^2

    Each field is a scalar for one problem, or a numpy column over a
    batch.
    """

    a0: float
    a2: float
    a4: float
    b0: complex
    b1: float
    b2: complex
    b3: float
    c0: float
    c1: complex
    c2: float


def _coefficients(probs) -> _Coefficients:
    """Scalars for one MomentumProblem, numpy columns for a sequence."""
    if not isinstance(probs, MomentumProblem):
        columns = zip(*(_coefficients(prob) for prob in probs))
        return _Coefficients(*(np.array(column) for column in columns))
    beta = probs.beta
    k2 = probs.k * probs.k
    sigma2 = probs.sigma2
    return _Coefficients(
        a0=k2,
        a2=1.0 + 6.0 * beta * k2,
        a4=6.0 * beta,
        b0=complex(0.0, 2.0 * sigma2),
        b1=4.0 + 2.0 * beta * k2,
        b2=complex(0.0, 6.0 * beta * sigma2),
        b3=26.0 * beta,
        c0=2.0 - probs.sigma1 - 2.0 * beta * k2,
        c1=complex(0.0, -4.0 * beta * sigma2),
        c2=14.0 * beta,
    )


def _ratios(co: _Coefficients, p):
    """B = b/a and C = c/a of phi'' = -(B phi' + C phi) at p: the one
    evaluation of the _Coefficients polynomials, on scalars or on numpy
    arrays that broadcast (a column of p against a batch's row)."""
    p2 = p * p
    a = co.a0 + (co.a2 + co.a4 * p2) * p2
    b = co.b0 + (co.b1 + (co.b2 + co.b3 * p) * p) * p
    c = co.c0 + (co.c1 + co.c2 * p) * p
    # times the reciprocal, as numpy divides a complex by a real: the
    # same bits on numpy and on Python scalars
    inverse = 1.0 / a
    return b * inverse, c * inverse


def ode_rhs_deformed(
    prob: MomentumProblem, p: float, phi: complex, dphi: complex
) -> complex:
    """phi'' solved from the deformed equation for phi = p psi, from the
    B and C that integrate_branch steps with.  At beta = 0 they reduce to
    the undeformed equation, (p^2 + k^2) phi'' + (4 p + 2 i sigma2) phi'
    + (2 - sigma1) phi = 0, with no special-casing.  p = 0 is a singular
    point of the coefficients: start integrations at p > 0.
    """
    if p <= 0.0:
        raise ValueError("p must be positive; p = 0 is a singular point")
    b_ratio, c_ratio = _ratios(_coefficients(prob), p)
    return -(b_ratio * dphi + c_ratio * phi)


def indicial_exponents(prob: MomentumProblem) -> tuple[complex, complex]:
    """Large-p power-law exponents of psi, as a (fast, slow) pair.

    The regime follows from prob.beta.  Deformed (beta > 0): {-10/3, -2},
    independent of sigma1 and sigma2.  Undeformed (beta = 0): -5/2 -+ nu
    with nu = sqrt(1/4 + sigma1), a complex-conjugate pair once
    sigma1 < -1/4.
    """
    if prob.beta > 0.0:
        fast, slow = _DEFORMED_EXPONENTS
        return (complex(fast), complex(slow))
    nu = cmath.sqrt(0.25 + prob.sigma1)
    return (-2.5 - nu, -2.5 + nu)


def _branch_phi_exponent(prob: MomentumProblem, branch: str) -> complex:
    s = indicial_exponents(prob)[BRANCHES.index(branch)]
    return s + 1.0  # psi -> phi = p psi raises the exponent by one


@dataclass(frozen=True)
class OdeSolution:
    """psi(p) on an ascending log-spaced grid."""

    grid: np.ndarray
    values: np.ndarray
    branch: str

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be one-dimensional with >= 2 points")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid shape")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        steps = np.diff(np.log10(grid))
        if steps.max() > (1.0 / MIN_POINTS_PER_DECADE) * (1.0 + 1e-9):
            raise ValueError(
                f"grid coarser than {MIN_POINTS_PER_DECADE} points per decade"
            )
        for name, arr in (("grid", grid), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")


def _rk4_step(top, mid, bottom, h):
    """The matrix ((t11, t12), (t21, t22)) of one classical RK4 step of
    length h in s = ln p for phi' = chi, chi' = drift chi - pull phi
    (chi = p dphi/dp); top, mid and bottom are (drift, pull) at the
    step's stage abscissae, arrays over steps and members like each t.
    """

    def slope(stage, phi, chi):
        drift, pull = stage
        return chi, drift * chi - pull * phi

    # the unit states on a leading axis: their images are the columns
    phi, chi = np.eye(2)[:, :, None, None]
    k1 = slope(top, phi, chi)
    k2 = slope(mid, phi + 0.5 * h * k1[0], chi + 0.5 * h * k1[1])
    k3 = slope(mid, phi + 0.5 * h * k2[0], chi + 0.5 * h * k2[1])
    k4 = slope(bottom, phi + h * k3[0], chi + h * k3[1])
    return tuple(
        y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip((phi, chi), k1, k2, k3, k4)
    )


#: RK4 substeps per grid interval: the fewest m with (h/m) max(|drift| +
#: sqrt|pull|) <= _STEP_BOUND, h = ln 10/points_per_decade.  Against
#: DOP853 at rtol 1e-12 (tests/test_verify.py): the exponent checks' grids
#: reach a rate of 5.0, so m = 1, and their slopes move by <= 1.4e-7; the
#: undeformed sigma1 = 1278 (H2, l = 0) reaches 38.7, and m = 5 moves its
#: slope by 1.6e-5, where m = 1 moved it by 7.3e-3
_STEP_BOUND = 0.1


def integrate_branch(
    prob: MomentumProblem | Iterable[MomentumProblem],
    branch: str | Iterable[str],
    p_range: tuple[float, float],
    *,
    points_per_decade: int = MIN_POINTS_PER_DECADE,
    ic: tuple[complex, complex] | None = None,
    p_stop: float | None = None,
) -> OdeSolution | list[OdeSolution]:
    """Integrate decay branches inward from p_max.

    prob and branch are each one item or a batch, paired by
    physmodel.batch_columns: one OdeSolution, or a list in batch order.
    The members share p_range, the grid and p_stop; a single problem is
    a batch of one.

    Initial conditions at p_max follow the branch's asymptotic power law
    phi = p^s, phi' = s p^(s-1) with s = -7/3 (fast) or -1 (slow) when
    beta > 0 and s = -3/2 -+ nu when beta = 0; pass ic=(phi, dphi) to
    override them for every member (used by continuity checks that pin
    identical starting data on two problems).  Inward integration is the
    stable direction: the fast branch grows relative to the slow one as
    p decreases, so contamination decays; integrating outward would
    bury it.

    The range must span at least three decades when the power-law
    initial conditions are used, so that p_max sits in the asymptotic
    regime.  Classical RK4 in s = ln p steps along the output grid, of
    points_per_decade (>= 200) nodes per decade, with m equal substeps
    per interval (_STEP_BOUND) chosen over the whole p_range: m is all a
    member's bits take from its batch-mates.  Raises StiffnessError,
    naming the batch's sigma1 range, if a value turns non-finite.

    p_stop (< p_max) ends the integration early: each solution then holds
    the grid points from the last one at or below p_stop up to p_max, and
    every value is == the same point of the full run, which only takes
    more steps.  p_stop <= p_min gives the full solution.
    """
    (probs, branches), single = batch_columns(prob, branch)
    for member in branches:
        if member not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {member!r}")
    if points_per_decade < MIN_POINTS_PER_DECADE:
        raise ValueError(f"points_per_decade must be >= {MIN_POINTS_PER_DECADE}")
    p_min, p_max = p_range
    if not (0.0 < p_min < p_max):
        raise ValueError("p_range must satisfy 0 < p_min < p_max")
    if p_stop is not None and not p_stop < p_max:
        raise ValueError("p_stop must lie below p_max")
    decades = math.log10(p_max / p_min)
    if ic is None and decades < 3.0 * (1.0 - 1e-12):
        raise ValueError(
            "p_range must span >= 3 decades for asymptotic initial conditions"
        )

    size = len(probs)
    scales = np.empty(size, dtype=complex)
    # phi and chi = p phi' at p_max, one column per member
    phi = np.empty(size, dtype=complex)
    chi = np.empty(size, dtype=complex)
    if ic is None:
        for i, (member, member_branch) in enumerate(zip(probs, branches)):
            s = _branch_phi_exponent(member, member_branch)
            log0 = s * cmath.log(p_max)
            # integrate the unit-normalized ray and restore the power-law
            # amplitude afterwards; skip the restore only if p_max^s is
            # not representable (the ray is the same up to that constant)
            scales[i] = cmath.exp(log0) if abs(log0.real) < 690.0 else 1.0
            phi[i] = 1.0
            chi[i] = s
    else:
        phi_raw, dphi_raw = complex(ic[0]), complex(ic[1])
        norm = max(abs(phi_raw), abs(dphi_raw) * p_max)
        if norm == 0.0:
            raise ValueError("initial conditions must not both vanish")
        scales[:] = norm
        phi[:] = phi_raw / norm
        chi[:] = dphi_raw * p_max / norm

    coefficients = _coefficients(probs)

    def rates(p: np.ndarray):
        # (drift, pull) = (1 - p B, p^2 C): rows p, columns members
        p = p[:, None]
        b_ratio, c_ratio = _ratios(coefficients, p)
        return 1.0 - p * b_ratio, p * p * c_ratio

    intervals = int(math.ceil(points_per_decade * decades))
    grid = np.geomspace(p_min, p_max, intervals + 1)
    drift, pull = rates(grid)
    rate = float(np.max(np.abs(drift) + np.sqrt(np.abs(pull))))
    substeps = max(1, math.ceil(math.log(10.0) / points_per_decade * rate
                                / _STEP_BOUND))
    # the last grid point at or below p_stop is the last one kept
    first = 0
    if p_stop is not None:
        first = max(int(np.searchsorted(grid, p_stop, side="right")) - 1, 0)
    # the steps taken, from p_max down, laid over the whole p_range
    taken = substeps * (intervals - first)
    nodes = np.geomspace(p_max, p_min, substeps * intervals + 1)[: taken + 1]
    drift, pull = rates(nodes)
    (t11, t12), (t21, t22) = _rk4_step(
        (drift[:-1], pull[:-1]),
        rates(np.sqrt(nodes[:-1] * nodes[1:])),
        (drift[1:], pull[1:]),
        -math.log(p_max / p_min) / (substeps * intervals),
    )
    states = np.empty((taken + 1, size), dtype=complex)
    states[0] = phi
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(taken):
            phi, chi = t11[i] * phi + t12[i] * chi, t21[i] * phi + t22[i] * chi
            states[i + 1] = phi
    values = states[::substeps]
    if not np.isfinite(values).all():
        low = min(member.sigma1 for member in probs)
        high = max(member.sigma1 for member in probs)
        span = f"= {low:g}" if low == high else f"in [{low:g}, {high:g}]"
        raise StiffnessError(
            f"integration failed between p = {p_max:g} and {p_min:g} "
            f"(sigma1 {span}): a value turned non-finite"
        )
    grid = grid[first:]
    psi = values[::-1].T * scales[:, None] / grid
    solutions = [
        OdeSolution(grid=grid, values=member_values, branch=member_branch)
        for member_values, member_branch in zip(psi, branches)
    ]
    return solutions[0] if single else solutions


def fit_slope(solution: OdeSolution, window_decades: float = 1.0) -> float:
    """Least-squares log-log slope of |psi| over the top decade(s).

    The window is anchored at the top of the grid because the power laws
    are asymptotic statements; the default single decade is where the
    branch exponents are clean of both subleading terms and the
    contamination that inward integration leaves near p_min.  A window
    reaching below the grid (a solution cut short by p_stop) is refused.
    """
    if window_decades <= 0.0:
        raise ValueError("window_decades must be positive")
    p = solution.grid
    p_low = p[-1] / 10.0**window_decades
    if p[0] > p_low * (1.0 + 1e-12):
        raise ValueError("the fit window reaches below the solution's grid")
    mag = np.abs(solution.values)
    mask = p >= p_low
    if int(mask.sum()) < 2:
        raise ValueError("fewer than two points in the fit window")
    if np.any(mag[mask] == 0.0):
        raise ValueError("|psi| vanishes inside the fit window")
    slope, _ = np.polyfit(np.log(p[mask]), np.log(mag[mask]), 1)
    return float(slope)


def _require_undeformed(prob: MomentumProblem) -> None:
    if prob.beta != 0.0:
        raise ValueError(
            f"beta = {prob.beta!r}: the hypergeometric reduction and the "
            "s-wave pole condition hold only at beta = 0"
        )


def _swave_nu(prob: MomentumProblem) -> float:
    """nu of the s-wave pole condition sigma2/k_n = n + 1/2 + nu.

    It holds at beta = 0 for sigma1 >= -1/4, where nu = sqrt(1/4 + sigma1)
    is real; the Hardy constant 1/4 is sharp, so the fall to the centre
    begins strictly below -1/4.
    """
    _require_undeformed(prob)
    if prob.sigma1 < -0.25:
        raise QuantizationBreakdownError(
            "sigma1 < -1/4: the pole condition no longer selects a "
            "discrete real spectrum"
        )
    return math.sqrt(0.25 + prob.sigma1)


def quantize_swave(prob: MomentumProblem, n_max: int, mu: float) -> list[float]:
    """Bound energies -k_n^2/(2 mu), n = 0..n_max, from the s-wave pole
    condition sigma2/k_n = n + 1/2 + nu (beta = 0, sigma1 >= -1/4).

    The k field of prob is not consulted: it is the unknown here.
    """
    nu = _swave_nu(prob)
    if prob.sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive for an attractive tail")
    n_max = require_int(n_max, "n_max")
    require_mass(mu)
    energies = []
    for n in range(n_max + 1):
        k_n = prob.sigma2 / (n + 0.5 + nu)
        energies.append(-k_n * k_n / (2.0 * mu))
    return energies


def _hyp2f1_terminating(a: complex, n: int, c: complex, z: complex) -> complex:
    # F(a, -n; c; z) with integer n >= 0: finite Gauss series of degree n
    total = complex(1.0)
    term = complex(1.0)
    for k in range(n):
        term *= (a + k) * (k - n) * z / ((c + k) * (k + 1.0))
        total += term
    return total


def momentum_wavefunction_undeformed(p: float, n: int, prob) -> complex:
    """Unnormalized momentum-space s-wave bound state, beta = 0.

    psi(p) = (1/p) (1 + i p/k)^(-3/2 - nu) F(3/2 + nu, -n, 1 + 2 nu; 2/(1 + i p/k))

    k must be the n-th pole of quantize_swave, to within 1e-9 in sigma2/k,
    so that the series terminates at degree n.  Complex powers are taken on
    the principal branch, which 1 + i p/k (p real, k > 0) never leaves.
    """
    if p <= 0.0:
        raise ValueError("p must be positive")
    n = require_int(n, "n")
    nu = _swave_nu(prob)
    off = prob.sigma2 / prob.k - (n + 0.5 + nu)
    if abs(off) > 1.0e-9:
        raise NonQuantizedError(
            f"k does not satisfy the quantization condition: "
            f"sigma2/k - (n + 1/2 + nu) = {off!r} at n = {n}"
        )
    w = 1.0 + 1j * p / prob.k
    a = 1.5 + nu
    c = 1.0 + 2.0 * nu
    poly = _hyp2f1_terminating(a, n, c, 2.0 / w)
    return poly * w ** (-1.5 - nu) / p


@dataclass(frozen=True)
class HeunParams:
    """Five-regular-point form in z = (1 - i sqrt(6 beta) p)/2, phi = p psi.

    The source prints them with sigma1 and sigma2 exchanged; that reading is
    heun_params_general of the swapped problem, and heun_residual rejects it.
    From a batch, every field but a and b is a numpy column, and
    fuchsian_residual gives a column too; heun_residual takes one
    problem's parameters.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    rho1: float
    rho2: float
    z1: float
    z2: float
    beta: float

    def fuchsian_residual(self) -> float:
        return abs(self.a + self.b + 1.0 - (self.c + self.d + self.e + self.f))

    def _fuchsian_form(self, p: np.ndarray, psi: np.ndarray):
        z = 0.5 * (1.0 - 1.0j * math.sqrt(6.0 * self.beta) * p)
        return (
            z,
            p * psi,
            (0.0, 1.0, self.z1, self.z2),
            (self.c, self.d, self.e, self.f),
            self.a * self.b * z * z + self.rho1 * z + self.rho2,
        )


@dataclass(frozen=True)
class HeunParamsIS:
    """Four-regular-point form of the sigma2 = 0 (inverse-square) case.

    The equation lives in the chart xi = 6 beta p^2/(1 + 6 beta p^2),
    with psi = (1 - xi) phi.  From a batch, q, xi0 and beta are numpy
    columns, and fuchsian_residual gives a column too; heun_residual
    takes one problem's parameters.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    q: float
    xi0: float
    beta: float

    def fuchsian_residual(self) -> float:
        """|a + b + 1 - (c + d + e)|, blind to the problem.

        It reads only the five constants heun_params_inverse_square sets,
        never q or xi0, so it is 0.0 on every input and no error in the
        problem-dependent fields can move it (ROADMAP item 13 replaces
        the sum rule with the coefficient identity).  A batch gets the
        value once per member.
        """
        residual = abs(self.a + self.b + 1.0 - (self.c + self.d + self.e))
        return residual if np.ndim(self.q) == 0 else np.full(len(self.q), residual)

    def _fuchsian_form(self, p: np.ndarray, psi: np.ndarray):
        blow = 1.0 + 6.0 * self.beta * p * p
        xi = 6.0 * self.beta * p * p / blow
        return (
            xi,
            psi * blow,
            (0.0, 1.0, self.xi0),
            (self.c, self.d, self.e),
            self.a * self.b * xi + self.q,
        )


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

    def _fuchsian_form(self, p: np.ndarray, psi: np.ndarray):
        return (
            0.5 + 0.5j * p / self.k,
            p * psi,
            (0.0, 1.0),
            (self.c, self.a + self.b + 1.0 - self.c),
            self.a * self.b,
        )


def _problem_columns(prob) -> tuple[np.ndarray, bool]:
    """sigma1, sigma2, k and beta as numpy columns over one problem or a
    batch (physmodel.batch_columns), and whether prob was one problem."""
    (probs,), single = batch_columns(prob)
    columns = np.array(
        [(member.sigma1, member.sigma2, member.k, member.beta) for member in probs]
    ).T
    return columns, single


def _params(cls, single: bool, **fields):
    # one problem's fields as floats, a batch's problem-dependent ones as
    # numpy columns in batch order
    if single:
        fields = {
            name: value.item() if isinstance(value, np.ndarray) else value
            for name, value in fields.items()
        }
    return cls(**fields)


def heun_params_general(
    prob: MomentumProblem | Iterable[MomentumProblem],
) -> HeunParams:
    """Parameters of the five-point form for beta > 0.

    c + d = 1/3 and e + f = 4 exactly (the sigma2 terms cancel
    pairwise), hence the Fuchsian sum 13/3.  prob is one problem, giving
    float fields, or a batch (physmodel.batch_columns), giving one
    HeunParams whose problem-dependent fields are numpy columns in batch
    order, each entry the bits of the member's own call; the validation
    raises if any member fails it.
    """
    (sigma1, sigma2, k, beta), single = _problem_columns(prob)
    # overflow to inf and nan pass silently, as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        if (beta <= 0.0).any():
            raise ValueError(
                "beta must be positive: at beta = 0 the singular points "
                "coalesce; use hypergeometric_params instead"
            )
        root = np.sqrt(6.0 * beta)
        denom = 1.0 - 6.0 * beta * k * k
        if (abs(denom) < 1e-12).any():
            raise ValueError("parameter pole: 6 beta k^2 = 1")
        half_cd = 0.5 * sigma2 * root / denom
        half_ef = (sigma2 / k) * (1.0 - 3.0 * beta * k * k) / denom
        return _params(
            HeunParams,
            single,
            a=1.0,
            b=7.0 / 3.0,
            c=1.0 / 6.0 + half_cd,
            d=1.0 / 6.0 - half_cd,
            e=2.0 + half_ef,
            f=2.0 - half_ef,
            rho1=-7.0 / 3.0 - (sigma2 / 3.0) * root,
            rho2=0.5 * beta * k * k + (sigma2 / 6.0) * root + 1.0 / 12.0
            + 0.25 * sigma1,
            z1=0.5 + 0.5 * k * root,
            z2=0.5 - 0.5 * k * root,
            beta=beta,
        )


def heun_params_inverse_square(
    prob: MomentumProblem | Iterable[MomentumProblem],
) -> HeunParamsIS:
    """Parameters of the four-point form on the sigma2 = 0 branch.

    One problem or a batch, as heun_params_general: q, xi0 and beta are
    the problem-dependent fields.
    """
    (sigma1, sigma2, k, beta), single = _problem_columns(prob)
    with np.errstate(over="ignore", invalid="ignore"):
        if (sigma2 != 0.0).any():
            raise ValueError("the four-point form holds only at sigma2 = 0")
        if not (beta > 0.0).all():
            raise ValueError("beta must be positive for the deformed chart")
        six_bk2 = 6.0 * beta * (k * k)
        denom = 1.0 - six_bk2
        if (abs(denom) < 1e-12).any():
            raise ValueError("parameter pole: 6 beta k^2 = 1")
        xi0 = -six_bk2 / denom
        if (xi0 >= 0.0).any():
            raise ValueError(
                "xi0 must be negative for a bound-state chart; "
                "6 beta k^2 exceeds 1 here"
            )
        return _params(
            HeunParamsIS,
            single,
            a=11.0 / 6.0,
            b=1.0,
            c=1.5,
            d=1.0 / 3.0,
            e=2.0,
            q=-1.5 + 0.25 * sigma1 / denom,
            xi0=xi0,
            beta=beta,
        )


def hypergeometric_params(prob: MomentumProblem) -> HypergeometricParams:
    """Parameters of the beta = 0 reduction (a = 3/2 + nu, b = 3/2 - nu,
    c = 2 + sigma2/k).

    phi = p psi decays as p^-a and p^-b, so a and b are minus the psi
    exponents of indicial_exponents, less one.
    """
    _require_undeformed(prob)
    fast, slow = indicial_exponents(prob)
    return HypergeometricParams(
        a=-1.0 - fast, b=-1.0 - slow, c=2.0 + prob.sigma2 / prob.k, k=prob.k
    )


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

    Pushes the numerical (p, psi) data through the chart of the params
    object and differentiates by finite differences on the transformed
    abscissae, so the check is independent of the original equation.
    Each params type gives its equation in the one Fuchsian form

        f'' + sum_j w_j/(x - x_j) f' + N(x)/prod_j (x - x_j) f = 0

    as the chart x(p), f, the singular points x_j, their weights w_j and
    the accessory numerator N(x).  The residual at each interior node is
    |sum of the three terms| / (sum of their moduli); an identically-zero
    solution gives 0.  Raises GridError when the grid has too few points
    for the stencils; OdeSolution already guarantees
    MIN_POINTS_PER_DECADE density.
    """
    p = solution.grid
    if p.size < 5:
        raise GridError("need at least 5 grid points for finite differences")
    form = getattr(params, "_fuchsian_form", None)
    if form is None:
        raise TypeError(f"unsupported parameter object {type(params).__name__}")
    x, f, points, weights, numerator = form(p, solution.values)
    d1, d2 = _fd_derivatives(x.astype(complex), f)
    pre = sum(w / (x - xj) for w, xj in zip(weights, points))
    rat = numerator / math.prod(x - xj for xj in points)
    return _max_normalized_residual(d2, pre[1:-1] * d1, (rat * f)[1:-1])
