"""Closed-form energies of the Kratzer problem with a minimal length.

Unperturbed levels, the first-order p^4 correction in both the general
coupling form and the (De, re) form, the exact hydrogen (g1 = 0) limit,
and the large-gamma rovibrational expansion with labeled terms.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .physmodel import (
    HBAR,
    KratzerCouplings,
    Molecule,
    QuantumNumbers,
    ShapeNumbers,
    gamma_of,
    lambda_of,
    require_beta,
    require_lambda_regular,
)

__all__ = [
    "EnergyLevel",
    "Term",
    "energy_unperturbed",
    "matrix_element_closed",
    "correction_general",
    "correction_hydrogen_limit",
    "level_energies",
    "energy_deformed",
    "require_bound",
    "energy_expansion",
    "term_decomposition",
]

#: |de/e0| ratio above which the first-order treatment is flagged
PERTURBATIVE_WARN_RATIO = 0.1


class EnergyLevel(NamedTuple):
    """One bound level: unperturbed energy, correction, and their sum (J)."""

    n: int
    l: int
    e0: float
    de: float
    e: float
    warning: str | None = None


def energy_unperturbed(mol: Molecule, qn: QuantumNumbers) -> float:
    """Unperturbed bound-state energy -gamma^2 De / (lam + n)^2 in J."""
    return level_energies(mol, 0.0, ((qn.n, qn.l),))[0][0]


def matrix_element_closed(
    p: int, qn: QuantumNumbers, shape: ShapeNumbers, scale: float
) -> float:
    """Closed-form radial expectation value <1/r^p> for p in 1..4.

    Parameters
    ----------
    p : int
        Inverse power, 1 to 4.
    qn, shape : quantum numbers and shape numbers of the state.
    scale : float
        The inverse length mu g2 / hbar^2 in m^-1; the result carries
        scale^p.

    The denominators require lam > 1/2 for p = 2, lam > 1 for p = 3 and
    lam > 3/2 for p = 4 (these are also the integrability thresholds of
    the underlying integrals); violations raise LambdaGuardError.
    """
    lam = shape.lam
    n = qn.n
    ln = lam + n
    if p == 1:
        return scale / ln**2
    if p == 2:
        require_lambda_regular(lam, 0.5)
        return scale**2 / ((lam - 0.5) * ln**3)
    if p == 3:
        require_lambda_regular(lam, 1.0)
        return scale**3 / (lam * (lam - 0.5) * (lam - 1.0) * ln**3)
    if p == 4:
        require_lambda_regular(lam, 1.5)
        num = 1.0 + (3.0 * n / lam) * (1.0 + (n - 1.0) / (2.0 * lam + 1.0))
        return scale**4 * num / (
            (lam - 0.5) * (lam - 1.0) * (lam - 1.5) * ln**5
        )
    raise ValueError(f"p must be 1, 2, 3 or 4, got {p!r}")


def _correction_brace(lam: float, n: int, u: float) -> float:
    # u = mu g1 / hbar^2; the brace of the first-order p^4 correction
    ln = lam + n
    middle = (ln / (lam - 0.5)) * (
        1.0 + u * (1.0 / ln**2 - 2.0 / (lam * (lam - 1.0)))
    )
    tail = (
        u * u
        * (1.0 + 3.0 * n * (2.0 * lam + n) / (lam * (2.0 * lam + 1.0)))
        / ((lam - 0.5) * (lam - 1.0) * (lam - 1.5) * ln)
    )
    return -0.75 + middle + tail


def correction_hydrogen_limit(
    g2: float, mu: float, beta: float, qn: QuantumNumbers
) -> float:
    """First-order p^4 shift for the pure Coulomb problem (g1 = 0), in J.

    (4 beta mu^3 g2^4 / (hbar^4 np^4)) * (-3/4 + np / (l + 1/2))
    """
    require_beta(beta)
    np_ = qn.principal
    t = mu * g2 / (HBAR * np_)          # momentum scale, kg m/s
    return 4.0 * (beta * t * t) * (t * t / mu) * (-0.75 + np_ / (qn.l + 0.5))


def correction_general(
    c: KratzerCouplings, mu: float, beta: float, qn: QuantumNumbers
) -> float:
    """First-order p^4 energy shift for general couplings, in J.

    Dispatches to the exact hydrogen branch when g1 = 0: the individual
    matrix elements entering the closed form are singular at lam = 1
    even though their weighted sum stays finite, so the formal expression
    would be a 0 * inf product there.
    """
    require_beta(beta)
    if c.g1 == 0.0:
        return correction_hydrogen_limit(c.g2, mu, beta, qn)
    sigma1 = c.sigma1(mu)
    radicand = (qn.l + 0.5) ** 2 + sigma1
    if radicand <= 0.0:
        raise ValueError(
            "no regular bound-state branch: (l + 1/2)^2 + sigma1 <= 0"
        )
    lam = 0.5 + math.sqrt(radicand)
    require_lambda_regular(lam, 1.5)
    u = 0.5 * sigma1
    t = mu * c.g2 / (HBAR * (lam + qn.n))   # momentum scale, kg m/s
    return 4.0 * (beta * t * t) * (t * t / mu) * _correction_brace(lam, qn.n, u)


def level_energies(
    mol: Molecule, beta: float, nl: Iterable[tuple[int, int]]
) -> list[tuple[float, float]]:
    """(E0, dE) in J of each (n, l) in nl, one molecule at one beta.

    E0 = -gamma^2 De / (lam + n)^2, and dE = beta mu De^2
    (2 gamma / (lam + n))^4 {...} is the first-order shift with the brace
    written in gamma^2/2 where the coupling form has mu g1/hbar^2.  gamma
    and the factors shared by every row are computed once per call, and
    no per-row record is built.  n and l must be nonnegative integers;
    they are not checked here.  At beta = 0 every dE is 0.0 and lambda
    is not guarded; otherwise a row whose lambda fails
    require_lambda_regular(lam, 3/2) raises LambdaGuardError.
    """
    require_beta(beta)
    gamma = gamma_of(mol)
    de_j = mol.de_joule
    top = -gamma * gamma * de_j
    try:
        scale = beta * mol.mu_kg * de_j**2
    except OverflowError:
        raise ValueError(f"molecule {mol.name!r}: De = {mol.de_cm1!r} cm^-1 "
                         f"overflows De^2 in double precision") from None
    two_gamma = 2.0 * gamma
    u = 0.5 * gamma * gamma
    out = []
    for n, l in nl:
        lam = lambda_of(gamma, l)
        ln = lam + n
        de = 0.0
        if beta != 0.0:
            require_lambda_regular(lam, 1.5)
            de = scale * (two_gamma / ln) ** 4 * _correction_brace(lam, n, u)
        out.append((top / ln**2, de))
    return out


def energy_deformed(mol: Molecule, beta: float, qn: QuantumNumbers) -> EnergyLevel:
    """Complete level E = E0 + dE in the (De, re) parameter form.

    The one-level case of level_energies, with a warning when the shift
    is too large for first order.  Numerically identical to
    energy_unperturbed + correction_general to relative 1e-12; the two
    differ only in floating-point grouping.
    """
    ((e0, de),) = level_energies(mol, beta, ((qn.n, qn.l),))
    warning = None
    if abs(de) > PERTURBATIVE_WARN_RATIO * abs(e0):
        warning = (
            f"first-order shift is {abs(de / e0):.3g} of the unperturbed "
            "energy; the perturbative result is unreliable here"
        )
    return EnergyLevel(n=qn.n, l=qn.l, e0=e0, de=de, e=e0 + de, warning=warning)


def require_bound(level: EnergyLevel) -> None:
    """Check that a first-order level is bound, E = E0 + dE < 0; the level
    functions return unbound levels too, for a fit's search to pass over."""
    if not level.e < 0.0:
        raise ValueError(
            f"first-order level E = E0 + dE is at or above the "
            f"dissociation limit (dE = {level.de / -level.e0:.3g} "
            f"|E0|); the level is not bound"
        )


class Term(NamedTuple):
    """One labeled term of the large-gamma expansion (value in J)."""

    tag: str
    value: float


def term_decomposition(
    mol: Molecule, beta: float, qn: QuantumNumbers
) -> tuple[Term, ...]:
    """Terms of the 1/gamma expansion, in printed order, tagged by role.

    The undeformed part carries the well depth, the harmonic ladder, the
    rotational term, two anharmonic terms and the vibration-rotation
    coupling.  The deformation part carries one 1/gamma^2 term (a pure
    anharmonicity correction, independent of l) and three 1/gamma^3
    pieces affecting the harmonic, coupling and anharmonic parts.  The
    sum of the values equals energy_expansion bitwise.
    """
    require_beta(beta)
    gamma = gamma_of(mol)
    de_j = mol.de_joule
    nh = qn.n + 0.5
    lh = qn.l + 0.5
    g1 = 1.0 / gamma
    g2 = g1 * g1
    g3 = g2 * g1
    ml_scale = beta * mol.mu_kg * de_j * de_j
    return (
        Term("depth", -de_j),
        Term("harmonic", de_j * 2.0 * nh * g1),
        Term("rotational", de_j * lh * lh * g2),
        Term("anharmonic", de_j * -3.0 * nh * nh * g2),
        Term("anharmonic", de_j * 4.0 * nh**3 * g3),
        Term("rovib-coupling", de_j * -3.0 * nh * lh * lh * g3),
        Term("ml-anharmonic", ml_scale * 6.0 * (nh * nh + 0.25) * g2),
        Term("ml-harmonic", ml_scale * 2.0 * nh * -0.25 * g3),
        Term("ml-coupling", ml_scale * 2.0 * nh * 4.0 * lh * lh * g3),
        Term("ml-anharmonic", ml_scale * 2.0 * nh * -15.0 * nh * nh * g3),
    )


def energy_expansion(mol: Molecule, beta: float, qn: QuantumNumbers) -> float:
    """Truncated 1/gamma expansion of the deformed energy, in J.

    Exactly the sum of term_decomposition, term by term in printed order,
    so the two views cannot drift apart.
    """
    total = 0.0
    for term in term_decomposition(mol, beta, qn):
        total += term.value
    return total
