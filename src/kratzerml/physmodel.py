"""Physical constants, unit conversions, and the core domain types.

Everything downstream works in SI units; wavenumbers, angstroms, atomic
mass units and electronvolts appear only at input/output boundaries.

Records follow one rule: every record is a named tuple.  It is built
faster than a frozen dataclass, and the dataclasses module would load
inspect, ast and dis into every fresh process.  A record that checks
its fields does so in __new__ on a collections.namedtuple base with
__slots__ = (), as typing.NamedTuple refuses a __new__ in its class
body; the others are typing.NamedTuple classes.  Being tuples, records
equal a tuple of their values, iterate, numpy unpacks them into their
fields, and _replace skips __new__'s checks.  A record is still one
item, never a batch of its fields: batch_columns tells it by its
_fields.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable

__all__ = [
    "PLANCK_H",
    "SPEED_OF_LIGHT",
    "HBAR",
    "AMU_TO_KG",
    "EV_TO_JOULE",
    "WAVENUMBER_TO_JOULE",
    "ANGSTROM_TO_M",
    "LAMBDA_GUARD_TOL",
    "ENERGY_UNITS",
    "InputError",
    "LambdaGuardError",
    "require_lambda_regular",
    "energy_to_joule",
    "energy_from_joule",
    "Molecule",
    "QuantumNumbers",
    "KratzerCouplings",
    "ShapeNumbers",
    "gamma_of",
    "lambda_of",
    "couplings_from_kratzer",
    "shape_numbers",
    "require_beta",
    "require_positive",
    "minimal_length",
    "beta_from_min_length",
]

# CODATA-2018 fixed constants of the build (read-only module attributes).
PLANCK_H = 6.62607015e-34        # J s, exact
SPEED_OF_LIGHT = 299792458.0     # m / s, exact
HBAR = PLANCK_H / (2.0 * math.pi)
AMU_TO_KG = 1.66053906660e-27    # kg per unified atomic mass unit
EV_TO_JOULE = 1.602176634e-19    # J per eV, exact
WAVENUMBER_TO_JOULE = PLANCK_H * SPEED_OF_LIGHT * 100.0   # J per cm^-1
ANGSTROM_TO_M = 1.0e-10

#: guard half-width around the lambda values that make closed-form
#: denominators vanish (1/2, 1, 3/2)
LAMBDA_GUARD_TOL = 1.0e-6

_SINGULAR_LAMBDAS = (0.5, 1.0, 1.5)


def _near(lam: float, pivot: float) -> bool:
    # lam lies in the guard window of pivot
    return pivot - LAMBDA_GUARD_TOL <= lam <= pivot + LAMBDA_GUARD_TOL


class InputError(ValueError):
    """An argument refused as given, before any computation."""


class LambdaGuardError(ValueError):
    """Raised when lambda sits too close to a singular denominator value,
    or below the one a closed form needs it above."""

    def __init__(self, lam: float, pivot: float) -> None:
        self.lam = lam
        self.pivot = pivot
        if _near(lam, pivot):
            why = (f"is within {LAMBDA_GUARD_TOL} of the singular value "
                   f"{pivot}; closed-form denominators are unreliable here")
        else:
            why = (f"is below the singular value {pivot}; the closed form "
                   f"holds only above it")
        super().__init__(f"lambda = {lam!r} {why}")


def require_lambda_regular(lam: float, minimum: float) -> None:
    """Check that lambda exceeds `minimum` with a safe margin.

    `minimum` is the largest denominator pivot appearing in the closed
    form being evaluated (one of 1/2, 1, 3/2).  Values of lambda at or
    below the pivot, or within LAMBDA_GUARD_TOL of any pivot up to it,
    raise LambdaGuardError instead of returning a poisoned float.  The
    pivots sit 1/2 apart, so both cases come to lam <= minimum + TOL;
    the error names the pivot whose window holds lam, else `minimum`.
    """
    if lam <= minimum + LAMBDA_GUARD_TOL:
        pivot = next(
            (p for p in _SINGULAR_LAMBDAS if p <= minimum and _near(lam, p)),
            minimum,
        )
        raise LambdaGuardError(lam, pivot)


#: size of each energy unit accepted at I/O boundaries, in J
_JOULES_PER_UNIT = {"cm-1": WAVENUMBER_TO_JOULE, "eV": EV_TO_JOULE, "J": 1.0}
ENERGY_UNITS = tuple(_JOULES_PER_UNIT)


def _joules_per(unit: str) -> float:
    try:
        return _JOULES_PER_UNIT[unit]
    except KeyError:
        raise ValueError(f"unknown energy unit {unit!r}; expected one of "
                         f"{', '.join(ENERGY_UNITS)}") from None


def energy_to_joule(value: float, unit: str) -> float:
    """value, given in one of ENERGY_UNITS, expressed in J."""
    return value * _joules_per(unit)


def energy_from_joule(value: float, unit: str) -> float:
    """value in J expressed in one of ENERGY_UNITS."""
    return value / _joules_per(unit)


class Molecule(namedtuple(
    "Molecule", "name de_cm1 re_angstrom mu_amu zpe_exp_cm1"
)):
    """Constants of a diatomic species in conventional spectroscopic units.

    Parameters
    ----------
    name : str
        Species label, e.g. "H2".
    de_cm1 : float
        Dissociation energy (potential well depth) in cm^-1.
    re_angstrom : float
        Equilibrium internuclear distance in angstrom.
    mu_amu : float
        Reduced mass in unified atomic mass units.
    zpe_exp_cm1 : float, optional
        Experimental zero-point energy G = E00 + De in cm^-1.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        de_cm1: float,
        re_angstrom: float,
        mu_amu: float,
        zpe_exp_cm1: float | None = None,
    ) -> Molecule:
        require_positive(de_cm1, "de_cm1")
        require_positive(re_angstrom, "re_angstrom")
        require_positive(mu_amu, "mu_amu")
        if zpe_exp_cm1 is not None and not math.isfinite(zpe_exp_cm1):
            raise ValueError("zpe_exp_cm1 must be finite when present")
        return super().__new__(cls, name, de_cm1, re_angstrom, mu_amu, zpe_exp_cm1)

    @property
    def de_joule(self) -> float:
        return self.de_cm1 * WAVENUMBER_TO_JOULE

    @property
    def re_m(self) -> float:
        return self.re_angstrom * ANGSTROM_TO_M

    @property
    def mu_kg(self) -> float:
        return self.mu_amu * AMU_TO_KG


class QuantumNumbers(namedtuple("QuantumNumbers", "n l")):
    """Radial (vibrational) and orbital (rotational) quantum numbers."""

    __slots__ = ()

    def __new__(cls, n: int, l: int) -> QuantumNumbers:
        return super().__new__(cls, require_int(n, "n"), require_int(l, "l"))

    @property
    def principal(self) -> int:
        """Principal quantum number n + l + 1 of the Coulomb limit."""
        return self.n + self.l + 1


class KratzerCouplings(namedtuple("KratzerCouplings", "g1 g2")):
    """Couplings of the general potential V(r) = g1/r^2 - g2/r, in SI
    (g1 in J m^2, g2 in J m).

    The molecular branch has g1 = De re^2 and g2 = 2 De re, both positive.
    The general branch admits any real g1 (the strongly attractive regime
    sigma1 <= -1/4 included) and g2 >= 0.
    """

    __slots__ = ()

    def __new__(cls, g1: float, g2: float) -> KratzerCouplings:
        if not (math.isfinite(g1) and math.isfinite(g2)):
            raise ValueError("couplings must be finite")
        if g2 < 0.0:
            raise ValueError("g2 must be nonnegative")
        return super().__new__(cls, g1, g2)

    def sigma1(self, mu_kg: float) -> float:
        """Dimensionless inverse-square coupling 2 mu g1 / hbar^2."""
        return 2.0 * mu_kg * self.g1 / (HBAR * HBAR)

    def sigma2(self, mu_kg: float) -> float:
        """Momentum-scaled Coulomb coupling mu g2 / hbar."""
        return mu_kg * self.g2 / HBAR


class ShapeNumbers(namedtuple("ShapeNumbers", "gamma lam alpha")):
    """Dimensionless shape numbers of the bound-state problem.

    gamma = (re/hbar) sqrt(2 mu De), lam = 1/2 + sqrt((l+1/2)^2 + gamma^2)
    and alpha = gamma^2 / (lam + n).
    """

    __slots__ = ()

    def __new__(cls, gamma: float, lam: float, alpha: float) -> ShapeNumbers:
        if lam < 1.0 - LAMBDA_GUARD_TOL:
            raise ValueError("lambda must satisfy lam >= 1")
        return super().__new__(cls, gamma, lam, alpha)


def gamma_of(mol: Molecule) -> float:
    """Dimensionless well-shape number gamma = (re/hbar) sqrt(2 mu De)."""
    gamma = mol.re_m * math.sqrt(2.0 * mol.mu_kg * mol.de_joule) / HBAR
    if not math.isfinite(gamma):
        raise ValueError("gamma is not finite; molecular constants invalid")
    return gamma


def lambda_of(gamma: float, l: int) -> float:
    """Shape number lam = 1/2 + sqrt((l + 1/2)^2 + gamma^2), unchecked."""
    return 0.5 + math.hypot(l + 0.5, gamma)


def couplings_from_kratzer(mol: Molecule) -> KratzerCouplings:
    """Molecular-branch couplings g1 = De re^2, g2 = 2 De re in SI."""
    de = mol.de_joule
    re = mol.re_m
    return KratzerCouplings(g1=de * re * re, g2=2.0 * de * re)


def shape_numbers(gamma: float, qn: QuantumNumbers) -> ShapeNumbers:
    """Shape numbers (gamma, lambda, alpha) for one level.

    Lambda near a singular denominator value is not rejected here; the
    operations that actually divide by those factors raise.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError("gamma must be a nonnegative finite number")
    lam = lambda_of(gamma, qn.l)
    alpha = gamma * gamma / (lam + qn.n)
    return ShapeNumbers(gamma=gamma, lam=lam, alpha=alpha)


def require_beta(beta: float) -> None:
    """Check that beta is a valid deformation: finite and nonnegative."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise InputError(f"beta must be nonnegative and finite, got {beta!r}")


def require_positive(value: float, name: str) -> None:
    """Check that value is finite and > 0, else InputError naming it."""
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{name} must be positive and finite, got {value!r}")


def require_int(value, name: str, high: int | None = None) -> int:
    """value as a plain int: what operator.index takes but a bool, in
    0..high (high None: no cap); else InputError naming the argument."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < 0 or (high is not None and number > high):
        span = ("a nonnegative integer" if high is None
                else f"an integer in 0..{high}")
        raise InputError(f"{name} must be {span}, got {value!r}")
    return number


def nan_worst(value: float) -> tuple[bool, float]:
    """max key ranking NaN above every number; bare max keeps it only first."""
    return math.isnan(value), value


def batch_columns(*args) -> tuple[list[list], bool]:
    """One list per argument of a call that takes one item or a batch.

    A str, a record (a named tuple, told by its _fields) or any
    non-iterable is one item, which pairs with every member of the other
    arguments; any other iterable is a batch, refused when empty, and
    batches pair element by element, so their lengths must agree.  Also
    returns whether every argument was one item: the caller then returns
    its one result bare, else a list in batch order.
    """
    single = [isinstance(arg, str) or hasattr(arg, "_fields")
              or not isinstance(arg, Iterable) for arg in args]
    columns = [[arg] if one else list(arg) for arg, one in zip(args, single)]
    if not all(columns):
        raise ValueError("the batch is empty")
    sizes = [len(column) for column, one in zip(columns, single) if not one]
    for size in sizes:
        if size != sizes[0]:
            raise ValueError(
                f"a batch pairs two sequences element by element; cannot "
                f"pair {sizes[0]} items with {size}"
            )
    size = max(sizes, default=1)
    return [
        column * size if one else column for column, one in zip(columns, single)
    ], all(single)


def minimal_length(beta: float) -> float:
    """Minimal position uncertainty hbar sqrt(3 beta + beta'), in angstrom.

    The deformation is taken on the beta' = 2 beta branch throughout, so
    the length is hbar sqrt(5 beta).  The sum is kept unfolded: in
    float64 3 beta + 2 beta and 5 beta differ in the last bit for about a
    quarter of random beta, and the reports are pinned to the unfolded
    form bit for bit.  Raises ValueError for a beta whose sum overflows
    double precision (beta beyond ~3.6e307).
    """
    require_beta(beta)
    total = 3.0 * beta + 2.0 * beta
    if total == math.inf:
        raise ValueError(
            f"minimal length overflows double precision at beta = {beta!r}"
        )
    return HBAR * math.sqrt(total) / ANGSTROM_TO_M


def beta_from_min_length(x_angstrom: float) -> float:
    """Invert hbar sqrt(5 beta) = x_min (in angstrom) for beta in (kg m/s)^-2.

    Raises InputError for a negative or non-finite length, and
    ValueError for one whose beta overflows double precision (x_min / hbar
    beyond ~1.3e154 in SI, ~1.4e130 angstrom).
    """
    if not (math.isfinite(x_angstrom) and x_angstrom >= 0.0):
        raise InputError(f"minimal length must be nonnegative and finite, "
                         f"got {x_angstrom!r} angstrom")
    try:
        beta = (x_angstrom * ANGSTROM_TO_M / HBAR) ** 2 / 5.0
    except OverflowError:
        beta = math.inf
    if not math.isfinite(beta):
        raise ValueError(f"minimal length {x_angstrom!r} angstrom overflows "
                         f"beta in double precision")
    return beta
