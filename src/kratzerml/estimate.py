"""Minimal-length bounds from zero-point energies, and level fitting.

The bound inverts the first-order shift: the correction is linear in
beta, so the largest beta compatible with an observed zero-point gap is
one division, and the minimal length follows as hbar sqrt(5 beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .physmodel import (
    ANGSTROM_TO_M,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    energy_from_joule,
    energy_to_joule,
    minimal_length,
    require_beta,
)
from .spectrum import correction_general, energy_deformed

__all__ = [
    "ATTRIBUTION_LABEL",
    "NoPositiveGapError",
    "BoundResult",
    "FitResult",
    "zpe_theoretical",
    "beta_upper_bound",
    "fit_parameters",
]

#: the whole experiment-theory gap is charged to the deformation; the
#: label travels with every bound so reports cannot drop the caveat
ATTRIBUTION_LABEL = "upper bound under full-attribution assumption"

# imported on first use, so that the closed-form paths never pay for
# scipy; the name stays a module global so that it can be wrapped
optimize = None


class NoPositiveGapError(ValueError):
    """Theory already at or above experiment: no bound derivable."""


@dataclass(frozen=True)
class BoundResult:
    """G(beta = 0), the gap to experiment, the largest admissible beta,
    and the length bound it implies."""

    g_theory_cm1: float
    delta_cm1: float
    beta_max: float
    min_length_max_angstrom: float
    attribution: str = ATTRIBUTION_LABEL


@dataclass(frozen=True)
class FitResult:
    """Fitted Kratzer parameters and deformation with fit diagnostics."""

    de_cm1: float
    re_angstrom: float
    beta: float
    rss_cm2: float
    iterations: int
    converged: bool


def zpe_theoretical(mol: Molecule, beta: float) -> float:
    """Zero-point energy G = E_00(beta) + De in cm^-1.

    Measured from the potential minimum, hence the De offset: the (0,0)
    level energy is referenced to the dissociation limit.
    """
    level = energy_deformed(mol, beta, QuantumNumbers(0, 0))
    return energy_from_joule(level.e, "cm-1") + mol.de_cm1


def beta_upper_bound(mol: Molecule) -> BoundResult:
    """Largest beta (and minimal length) hiding inside the ZPE gap.

    delta = G_exp - G(beta=0) must be positive; beta_max is
    delta / dE_00(beta=1) by linearity of the first-order shift, and the
    length bound is hbar sqrt(5 beta_max) for the beta' = 2 beta algebra.
    The entire gap is attributed to the deformation (no other neglected
    corrections are modeled), so the result is an upper bound only under
    that assumption.
    """
    if mol.zpe_exp_cm1 is None:
        raise ValueError(f"molecule {mol.name!r} has no experimental ZPE")
    g_theory_cm1 = zpe_theoretical(mol, 0.0)
    delta_cm1 = mol.zpe_exp_cm1 - g_theory_cm1
    if delta_cm1 <= 0.0:
        raise NoPositiveGapError(
            f"G_exp - G(beta=0) = {delta_cm1:.6g} cm^-1 is not positive; "
            "the first-order shift only raises levels, so no bound follows"
        )
    unit_shift = correction_general(
        couplings_from_kratzer(mol), mol.mu_kg, 1.0, QuantumNumbers(0, 0)
    )
    beta_max = energy_to_joule(delta_cm1, "cm-1") / unit_shift
    x_max = minimal_length(beta_max)
    return BoundResult(
        g_theory_cm1=g_theory_cm1,
        delta_cm1=delta_cm1,
        beta_max=beta_max,
        min_length_max_angstrom=x_max / ANGSTROM_TO_M,
    )


def _canonical_levels(levels):
    rows = []
    for idx, row in enumerate(levels):
        if len(row) == 3:
            n, l, e_obs = row
            weight = 1.0
        elif len(row) == 4:
            n, l, e_obs, weight = row
        else:
            raise ValueError(
                f"level {idx}: expected (n, l, E_cm1) or (n, l, E_cm1, weight)"
            )
        try:
            whole = int(n) == n and int(l) == l
        except (OverflowError, ValueError):  # int() of an infinity or a NaN
            whole = False
        if not whole or n < 0 or l < 0:
            raise ValueError(f"level {idx}: n and l must be nonnegative integers")
        e_obs, weight = float(e_obs), float(weight)
        if not math.isfinite(e_obs):
            raise ValueError(f"level {idx}: E_cm1 must be finite")
        if not (math.isfinite(weight) and weight > 0.0):
            raise ValueError(f"level {idx}: weight must be positive and finite")
        rows.append((int(n), int(l), e_obs, weight))
    if len(rows) < 4:
        raise ValueError("need at least 4 levels to fit 3 parameters")
    rows.sort(key=lambda r: (r[0], r[1]))
    for prev, cur in zip(rows, rows[1:]):
        if prev[:2] == cur[:2]:
            raise ValueError(f"duplicate level (n={cur[0]}, l={cur[1]})")
    return rows


def fit_parameters(
    levels,
    mu_amu: float,
    init: tuple[float, float, float],
    *,
    max_evaluations: int = 10_000,
) -> FitResult:
    """Fit (De, re, beta) to observed levels by variable projection.

    levels: iterable of (n, l, E_obs_cm1) or (n, l, E_obs_cm1, weight)
        rows, each (n, l) at most once, at least four rows.  The rows
        are put in canonical (n, l) order before any arithmetic, so the
        result is bitwise independent of input permutation.
    init: (De_cm1, re_angstrom, beta_si) starting point; De and re must
        be positive, beta finite and nonnegative.  beta is checked but not
        read.

    The objective is the weighted sum of squared residuals in cm^-1.
    At fixed (De, re) each level is E0 + beta S, linear in beta, so the
    best beta is one division, clamped at 0 (variable projection, Golub
    & Pereyra 1973).  scipy's bounded trust-region least squares moves
    (De, re), scaled by the start, on a finite-difference Jacobian.
    max_evaluations caps its residual evaluations (one level per row
    each, the two per Jacobian not counted); running out gives
    converged=False.  iterations counts the Jacobians.
    """
    rows = _canonical_levels(levels)
    de0, re0, beta0 = (float(v) for v in init)
    if de0 <= 0.0 or re0 <= 0.0:
        raise ValueError("initial De and re must be positive")
    require_beta(beta0)
    if not mu_amu > 0.0:
        raise ValueError("reduced mass must be positive")

    def project(x, *, trial=True) -> tuple[float, list[float]]:
        # a, b: weighted unit slopes S and gaps E_obs - E0 of every level
        a, b = [], []
        try:
            mol = Molecule(name="fit", de_cm1=de0 * float(x[0]),
                           re_angstrom=re0 * float(x[1]), mu_amu=mu_amu)
            for n, l, e_obs, weight in rows:
                level = energy_deformed(mol, 1.0, QuantumNumbers(n, l))
                root_w = math.sqrt(weight)
                a.append(root_w * energy_from_joule(level.de, "cm-1"))
                b.append(root_w * (e_obs - energy_from_joule(level.e0, "cm-1")))
        except ValueError:
            if not trial:
                raise
            return math.nan, [math.inf] * len(rows)  # no defined level
        beta = max(0.0, sum(p * q for p, q in zip(a, b)) / sum(p * p for p in a))
        return beta, [beta * p - q for p, q in zip(a, b)]

    # a start with an undefined level fails here, with the level's reason;
    # every point is projected once: the solver's first call is at the
    # start, and the returned x is a point it has evaluated
    start = (1.0, 1.0)
    evaluated = {start: project(start, trial=False)}

    def residuals(x) -> list[float]:
        key = tuple(x.tolist())
        if key not in evaluated:
            evaluated[key] = project(x)
        return evaluated[key][1]

    global optimize
    if optimize is None:
        from scipy import optimize
    # scipy's 1e-8 defaults leave beta up to 1e-5 off on undeformed truths
    result = optimize.least_squares(
        residuals, start, bounds=(0.0, math.inf), method="trf",
        xtol=1e-12, ftol=1e-15, gtol=1e-15, max_nfev=max_evaluations,
    )
    return FitResult(
        de_cm1=de0 * float(result.x[0]), re_angstrom=re0 * float(result.x[1]),
        beta=evaluated[tuple(result.x.tolist())][0],
        rss_cm2=float(result.fun @ result.fun),
        iterations=int(result.njev), converged=result.status > 0,
    )
