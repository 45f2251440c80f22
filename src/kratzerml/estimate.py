"""Minimal-length bounds from zero-point energies, and level fitting.

The bound inverts the first-order shift: the correction is linear in
beta, so the largest beta compatible with an observed zero-point gap is
one division, and the minimal length follows as hbar sqrt(5 beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physmodel import (
    ANGSTROM_TO_M,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    energy_from_joule,
    energy_to_joule,
    minimal_length,
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
    """Gap, largest admissible beta, and the length bound it implies."""

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
    delta_cm1 = mol.zpe_exp_cm1 - zpe_theoretical(mol, 0.0)
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
        if int(n) != n or int(l) != l or n < 0 or l < 0:
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
    xtol_rel: float = 1e-10,
    max_evaluations: int = 10_000,
) -> FitResult:
    """Fit (De, re, beta) to observed levels by bounded simplex descent.

    levels: iterable of (n, l, E_obs_cm1) or (n, l, E_obs_cm1, weight)
        rows, each (n, l) at most once, at least four rows.  The rows
        are put in canonical (n, l) order before any arithmetic, so the
        result is bitwise independent of input permutation.
    init: (De_cm1, re_angstrom, beta_si) starting point; De and re must
        be positive, beta nonnegative.

    The objective is the weighted sum of squared residuals in cm^-1.
    The simplex works in coordinates scaled by the starting point, so
    the diameter cutoff xtol_rel is relative; beta is kept nonnegative
    by projection and unphysical (De, re) trials score +inf.  Descent is
    monotone in the best vertex; termination on simplex diameter or on
    the evaluation budget, with converged=False in the latter case.
    """
    rows = _canonical_levels(levels)
    de0, re0, beta0 = (float(v) for v in init)
    if de0 <= 0.0 or re0 <= 0.0:
        raise ValueError("initial De and re must be positive")
    if beta0 < 0.0:
        raise ValueError("initial beta must be nonnegative")
    if mu_amu <= 0.0:
        raise ValueError("reduced mass must be positive")

    # beta axis scale: the starting beta when usable, otherwise the beta
    # that shifts the ground level by 1e-3 De (detectability scale)
    if beta0 > 0.0:
        beta_scale = beta0
    else:
        probe = Molecule(name="fit", de_cm1=de0, re_angstrom=re0, mu_amu=mu_amu)
        unit_shift = correction_general(
            couplings_from_kratzer(probe), probe.mu_kg, 1.0, QuantumNumbers(0, 0)
        )
        beta_scale = 1e-3 * probe.de_joule / unit_shift

    def objective(x: np.ndarray) -> float:
        de = de0 * x[0]
        re = re0 * x[1]
        beta = max(0.0, beta_scale * x[2])
        if de <= 0.0 or re <= 0.0:
            return math.inf
        mol = Molecule(name="fit", de_cm1=de, re_angstrom=re, mu_amu=mu_amu)
        rss = 0.0
        try:
            for n, l, e_obs, weight in rows:
                level = energy_deformed(mol, beta, QuantumNumbers(n, l))
                resid = energy_from_joule(level.e, "cm-1") - e_obs
                rss += weight * resid * resid
        except ValueError:
            return math.inf  # lambda guard or non-perturbative corner
        return rss

    x = np.array([1.0, 1.0, beta0 / beta_scale if beta0 > 0.0 else 0.0])
    total_iter = 0
    total_evals = 0
    converged = False
    best = objective(x)
    total_evals += 1
    global optimize
    if optimize is None:
        from scipy import optimize
    # a fresh simplex around the previous best recovers progress when a
    # collapsed simplex stops short of the minimum
    for _ in range(4):
        budget = max_evaluations - total_evals
        if budget <= 3:
            break
        result = optimize.minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "xatol": xtol_rel,
                "fatol": math.inf,
                "maxfev": budget,
                "adaptive": False,
            },
        )
        total_iter += int(result.nit)
        total_evals += int(result.nfev)
        if result.fun <= best:
            x = np.asarray(result.x)
            improved = best - result.fun
            best = float(result.fun)
        else:
            improved = 0.0
        if result.success:
            converged = True
            if improved == 0.0 or best == 0.0:
                break
        else:
            converged = False
            break

    beta_fit = max(0.0, beta_scale * float(x[2]))
    return FitResult(
        de_cm1=de0 * float(x[0]),
        re_angstrom=re0 * float(x[1]),
        beta=beta_fit,
        rss_cm2=best,
        iterations=total_iter,
        converged=converged,
    )
