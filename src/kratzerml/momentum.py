"""Momentum-space machinery for the deformed Kratzer problem.

Numerical integration of the deformed and undeformed momentum-space
equations, large-momentum exponent analysis, the s-wave quantization
rule with its closed-form wavefunction, and the Heun-type
parameterizations with their Fuchsian sum rules.

All integrations work on phi = p psi, which is regular at the origin
where psi itself is not; solutions are reported as psi on the grid.
The equation is first order in beta: its phi'' coefficient carries
1 + 6 beta p^2, not (1 + 3 beta p^2)^2 (tests/test_derivation.py).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .physmodel import batch_columns, require_beta, require_int, require_positive

__all__ = [
    "BRANCHES",
    "SLOPE_DECADES",
    "NonQuantizedError",
    "QuantizationBreakdownError",
    "StiffnessError",
    "MomentumProblem",
    "OdeSolution",
    "HeunParams",
    "HeunParamsIS",
    "integrate_branch",
    "fit_slope",
    "indicial_exponents",
    "quantize_swave",
    "momentum_wavefunction_undeformed",
    "heun_params_general",
    "heun_params_inverse_square",
]

BRANCHES = ("fast-decay", "slow-decay")

#: density floor for solution grids, and the density integrate_branch
#: steps along
MIN_POINTS_PER_DECADE = 200

#: decades at the top of a grid that fit_slope fits: where the branch
#: exponents are clean of both subleading terms and the contamination
#: that inward integration leaves near p_min
SLOPE_DECADES = 1.0

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


class MomentumProblem(namedtuple("MomentumProblem", "sigma1 sigma2 k beta")):
    """Parameter set of the momentum-space equation.

    sigma1 is the dimensionless inverse-square coupling 2 mu g1/hbar^2;
    any sign is admissible, sigma1 < -1/4 being the singular regime.
    sigma2 = mu g2/hbar and k = sqrt(-2 mu E) carry momentum units and
    beta inverse momentum squared.
    """

    __slots__ = ()

    def __new__(
        cls, sigma1: float, sigma2: float, k: float, beta: float = 0.0
    ) -> MomentumProblem:
        if not (math.isfinite(sigma1) and math.isfinite(sigma2)):
            raise ValueError("sigma1 and sigma2 must be finite")
        require_positive(k, "k")
        require_beta(beta)
        return super().__new__(cls, sigma1, sigma2, k, beta)


def _problem_columns(probs: list[MomentumProblem]) -> np.ndarray:
    """sigma1, sigma2, k and beta as numpy columns over the problems of a
    batch, the list physmodel.batch_columns gives."""
    return np.array(
        [(member.sigma1, member.sigma2, member.k, member.beta) for member in probs]
    ).T


def _coefficients(sigma1, sigma2, k, beta) -> tuple:
    """The p-independent parts of the deformed equation's coefficients.

    (p^2 + k^2)(1 + 6 beta p^2) phi'' + b phi' + c phi = 0 expands to

        a = k^2 + (1 + 6 beta k^2) p^2 + 6 beta p^4
        b = 2 i sigma2 + (4 + 2 beta k^2) p + 6 i beta sigma2 p^2 + 26 beta p^3
        c = (2 - sigma1 - 2 beta k^2) - 4 i beta sigma2 p + 14 beta p^2

    to first order in beta: a carries 1 + 6 beta p^2, not the
    (1 + 3 beta p^2)^2 of the untruncated position operator squared.
    The ten parts (a0, a2, a4, b0, b1, b2, b3, c0, c1, c2), each a
    scalar on one problem's floats, or a numpy column on a batch's
    columns (_problem_columns).
    """
    k2 = k * k
    return (
        k2,
        1.0 + 6.0 * beta * k2,
        6.0 * beta,
        2.0 * sigma2 * 1j,
        4.0 + 2.0 * beta * k2,
        6.0 * beta * sigma2 * 1j,
        26.0 * beta,
        2.0 - sigma1 - 2.0 * beta * k2,
        -4.0 * beta * sigma2 * 1j,
        14.0 * beta,
    )


def _ratios(co: tuple, p):
    """B = b/a and C = c/a of phi'' = -(B phi' + C phi) at p: the one
    evaluation of the _coefficients polynomials, on scalars or on numpy
    arrays that broadcast (a column of p against a batch's row)."""
    a0, a2, a4, b0, b1, b2, b3, c0, c1, c2 = co
    p2 = p * p
    a = a0 + (a2 + a4 * p2) * p2
    b = b0 + (b1 + (b2 + b3 * p) * p) * p
    c = c0 + (c1 + c2 * p) * p
    # times the reciprocal, as numpy divides a complex by a real: the
    # same bits on numpy and on Python scalars
    inverse = 1.0 / a
    return b * inverse, c * inverse


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


class OdeSolution(namedtuple("OdeSolution", "grid values branch")):
    """psi(p) on an ascending log-spaced grid, held in read-only arrays."""

    __slots__ = ()

    def __new__(cls, grid, values, branch: str) -> OdeSolution:
        grid = np.array(grid, dtype=float)
        values = np.array(values, dtype=complex)
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
        grid.flags.writeable = values.flags.writeable = False
        if branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
        return super().__new__(cls, grid, values, branch)


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
#: sqrt|pull|) <= _STEP_BOUND, h = ln 10/MIN_POINTS_PER_DECADE.  Against
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
    ic: tuple[complex, complex] | None = None,
    p_stop: float = 0.0,
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
    MIN_POINTS_PER_DECADE nodes per decade, with m equal substeps
    per interval (_STEP_BOUND) chosen over the whole p_range: m is all a
    member's bits take from its batch-mates.  Raises StiffnessError,
    naming the batch's sigma1 range, if a value turns non-finite.

    p_stop (< p_max; default 0, the whole range) ends the integration
    early: each solution then holds the grid points from the last one at
    or below p_stop up to p_max, each value == the same point of the full
    run, which only takes more steps.  p_stop <= p_min gives the full run.
    """
    (probs, branches), single = batch_columns(prob, branch)
    for member in branches:
        if member not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {member!r}")
    p_min, p_max = p_range
    if not (0.0 < p_min < p_max):
        raise ValueError("p_range must satisfy 0 < p_min < p_max")
    if not p_stop < p_max:
        raise ValueError("p_stop must lie below p_max")
    decades = math.log10(p_max / p_min)
    if not math.isfinite(decades):
        raise ValueError("p_range must span a finite number of decades")
    if ic is None and decades < 3.0 * (1.0 - 1e-12):
        raise ValueError(
            "p_range must span >= 3 decades for asymptotic initial conditions"
        )

    # one row (phi, chi = p phi', scale) at p_max per member
    if ic is None:
        starts = []
        for member, member_branch in zip(probs, branches):
            # psi -> phi = p psi raises the exponent by one
            s = indicial_exponents(member)[BRANCHES.index(member_branch)] + 1.0
            log0 = s * cmath.log(p_max)
            # integrate the unit-normalized ray and restore the power-law
            # amplitude afterwards; skip the restore only if p_max^s is
            # not representable (the ray is the same up to that constant)
            scale = cmath.exp(log0) if abs(log0.real) < 690.0 else 1.0
            starts.append((1.0, s, scale))
    else:
        phi_raw, dphi_raw = complex(ic[0]), complex(ic[1])
        if not (cmath.isfinite(phi_raw) and cmath.isfinite(dphi_raw)):
            raise ValueError("initial conditions must be finite")
        norm = max(abs(phi_raw), abs(dphi_raw) * p_max)
        if norm == 0.0:
            raise ValueError("initial conditions must not both vanish")
        if norm == math.inf:
            raise ValueError("initial conditions overflow when scaled by p_max")
        starts = [(phi_raw / norm, dphi_raw * p_max / norm, norm)] * len(probs)
    phi, chi, scales = np.array(starts, dtype=complex).T

    sigma1, sigma2, k, beta = _problem_columns(probs)
    coefficients = _coefficients(sigma1, sigma2, k, beta)

    def rates(p: np.ndarray):
        # (drift, pull) = (1 - p B, p^2 C): rows p, columns members
        p = p[:, None]
        b_ratio, c_ratio = _ratios(coefficients, p)
        return 1.0 - p * b_ratio, p * p * c_ratio

    intervals = int(math.ceil(MIN_POINTS_PER_DECADE * decades))
    grid = np.geomspace(p_min, p_max, intervals + 1)
    drift, pull = rates(grid)
    rate = float(np.max(np.abs(drift) + np.sqrt(np.abs(pull))))
    substeps = max(1, math.ceil(math.log(10.0) / MIN_POINTS_PER_DECADE * rate
                                / _STEP_BOUND))
    # the last grid point at or below p_stop is the last one kept
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
    states = np.empty((taken + 1, len(probs)), dtype=complex)
    states[0] = phi
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(taken):
            phi, chi = t11[i] * phi + t12[i] * chi, t21[i] * phi + t22[i] * chi
            states[i + 1] = phi
    values = states[::substeps]
    if not np.isfinite(values).all():
        low, high = sigma1.min(), sigma1.max()
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


def fit_slope(solution: OdeSolution) -> float:
    """Least-squares log-log slope of |psi| over the top SLOPE_DECADES.

    The window is anchored at the top of the grid because the power laws
    are asymptotic statements.  A window reaching below the grid (a
    solution cut short by p_stop) is refused.
    """
    p = solution.grid
    p_low = p[-1] / 10.0**SLOPE_DECADES
    if p[0] > p_low * (1.0 + 1e-12):
        raise ValueError("the fit window reaches below the solution's grid")
    mag = np.abs(solution.values)
    mask = p >= p_low
    if np.any(mag[mask] == 0.0):
        raise ValueError("|psi| vanishes inside the fit window")
    slope, _ = np.polyfit(np.log(p[mask]), np.log(mag[mask]), 1)
    return float(slope)


def _swave_nu(prob: MomentumProblem) -> float:
    """nu of the s-wave pole condition sigma2/k_n = n + 1/2 + nu.

    It holds at beta = 0 for sigma1 >= -1/4, where nu = sqrt(1/4 + sigma1)
    is real; the Hardy constant 1/4 is sharp, so the fall to the centre
    begins strictly below -1/4.
    """
    if prob.beta != 0.0:
        raise ValueError(
            f"beta = {prob.beta!r}: the hypergeometric reduction and the "
            "s-wave pole condition hold only at beta = 0"
        )
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
    require_positive(mu, "reduced mass")
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
    require_positive(p, "p")
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


class HeunParams(NamedTuple):
    """Five-regular-point form in z = (1 - i sqrt(6 beta) p)/2, phi = p psi.

    The source prints them with sigma1 and sigma2 exchanged; that reading is
    heun_params_general of the swapped problem, which a numerical solution
    of the problem itself does not satisfy.  From a batch, every field but
    a and b is a numpy column, and fuchsian_residual gives a column too.
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


class HeunParamsIS(NamedTuple):
    """Four-regular-point form of the sigma2 = 0 (inverse-square) case.

    The equation lives in the chart xi = 6 beta p^2/(1 + 6 beta p^2),
    with psi = (1 - xi) phi.  From a batch, q, xi0 and beta are numpy
    columns, and fuchsian_residual gives a column too.
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
    (probs,), single = batch_columns(prob)
    sigma1, sigma2, k, beta = _problem_columns(probs)
    # overflow to inf and nan pass silently, as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        if (beta <= 0.0).any():
            raise ValueError(
                "beta must be positive: at beta = 0 the singular points "
                "coalesce into the hypergeometric reduction"
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
    (probs,), single = batch_columns(prob)
    sigma1, sigma2, k, beta = _problem_columns(probs)
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
