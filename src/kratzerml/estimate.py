"""Minimal-length bounds from zero-point energies, and level fitting.

The bound inverts the first-order shift: the correction is linear in
beta, so the largest beta compatible with an observed zero-point gap is
one division, and the minimal length follows as hbar sqrt(5 beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .physmodel import (
    ANGSTROM_TO_M,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    energy_from_joule,
    energy_to_joule,
    minimal_length,
    require_beta,
    require_mass,
)
from .spectrum import correction_general, energy_deformed, level_energies

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

#: ln gamma increment of the fit's forward-difference derivative; within
#: it the residuals are linear in ln gamma to ~1e-7, so a shorter step
#: that does not descend has met roundoff, not curvature
_FD_STEP = 1e-7
#: largest ln gamma move of one Gauss-Newton step
_MAX_STEP = 0.5


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


class _Projection(NamedTuple):
    """One level set at gamma = gamma0 e^s and De0, and its best fit.

    a, b and gap are the weighted E0, shift at beta = 1 and E0 - E_obs of
    each level; De = De0 (1 + u) and beta De^2 = c De0^2 fit them best, in
    residuals res with sum of squares rss.  A fit builds about eleven, and
    a named tuple is built ~3x faster than a frozen dataclass.
    """

    s: float
    a: list[float]
    b: list[float]
    gap: list[float]
    u: float
    c: float
    res: list[float]
    rss: float


def _solve_linear(
    s: float, a: list[float], b: list[float], gap: list[float], clamp: bool
) -> _Projection:
    # b is orthogonalised against a (Gram-Schmidt), not put through the
    # normal equations; clamp holds c at 0 when it comes out negative.
    # Each residual is summed as gap + u a + c b, terms small next to E0,
    # so forming it adds roundoff far below an ulp of the level
    aa = math.fsum(map(mul, a, a))
    u = -math.fsum(map(mul, a, gap)) / aa
    along = math.fsum(map(mul, a, b)) / aa
    b_perp = [q - along * p for p, q in zip(a, b)]
    c = -math.fsum(map(mul, b_perp, [g + u * p for p, g in zip(a, gap)]))
    c /= math.fsum(map(mul, b_perp, b_perp))
    if clamp and c < 0.0:
        c = 0.0
    else:
        u -= c * along
    res = [g + u * p + c * q for p, q, g in zip(a, b, gap)]
    return _Projection(s, a, b, gap, u, c, res, math.fsum(map(mul, res, res)))


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
    At fixed gamma and mu each level is De a + c b with c = beta De^2,
    linear in (De, c), so both are one 2x2 least-squares solve (variable
    projection, Golub & Pereyra 1973); re follows from gamma, De and mu.
    That leaves one unknown, ln gamma, which Gauss-Newton steps with step
    halving move, on a forward-difference derivative of the projected
    residuals.  c is fitted free first; only if its best value is
    negative is the search rerun with c clamped at 0 wherever it comes
    out negative.  max_evaluations caps the level sets evaluated (one
    level per row each, derivatives included); running out gives
    converged=False.  iterations counts the level sets.  Levels that fit
    De <= 0 raise ValueError.
    """
    rows = _canonical_levels(levels)
    de0, re0, beta0 = (float(v) for v in init)
    if de0 <= 0.0 or re0 <= 0.0:
        raise ValueError("initial De and re must be positive")
    require_beta(beta0)
    require_mass(mu_amu)
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be at least 1")

    nl = [(n, l) for n, l, _, _ in rows]
    observed = [(e_obs, math.sqrt(weight)) for _, _, e_obs, weight in rows]
    # J per cm^-1 from the unit table, looked up once: x / wavenumber is
    # energy_from_joule(x, "cm-1") bit for bit
    wavenumber = energy_to_joule(1.0, "cm-1")

    def project(s: float, clamp: bool) -> _Projection:
        # at fixed De0 and mu, gamma is proportional to re
        mol = Molecule(name="fit", de_cm1=de0, re_angstrom=re0 * math.exp(s),
                       mu_amu=mu_amu)
        a, b, gap = [], [], []
        levels = level_energies(mol, 1.0, nl)
        for (e0, de), (e_obs, root_w) in zip(levels, observed):
            e0 /= wavenumber
            a.append(root_w * e0)
            b.append(root_w * (de / wavenumber))
            gap.append(root_w * (e0 - e_obs))
        return _solve_linear(s, a, b, gap, clamp)

    used = 1  # level sets evaluated

    def trial(s: float, clamp: bool) -> _Projection | None:
        nonlocal used
        used += 1
        try:
            return project(s, clamp)
        except ValueError:  # a level has no defined value at this gamma
            return None

    def descend(cur: _Projection, clamp: bool) -> tuple[_Projection, bool]:
        # Gauss-Newton on the projected residuals; a step that does not
        # lower the RSS is halved until it is shorter than _FD_STEP
        while used < max_evaluations:
            probe = trial(cur.s + _FD_STEP, clamp)
            if probe is None:
                break
            slope = [(p - q) / _FD_STEP for p, q in zip(probe.res, cur.res)]
            step = -math.fsum(map(mul, slope, cur.res))
            step /= math.fsum(map(mul, slope, slope))
            step = max(-_MAX_STEP, min(_MAX_STEP, step))
            if cur.s + step == cur.s:
                return cur, True
            while used < max_evaluations:
                nxt = trial(cur.s + step, clamp)
                if nxt is not None and nxt.rss < cur.rss:
                    cur = nxt
                    break
                if abs(step) < _FD_STEP:
                    return cur, True
                step *= 0.5
        return cur, False

    # a start with an undefined level fails here, with the level's reason;
    # the rerun with c clamped at 0 starts from the free search's levels
    cur, converged = descend(project(0.0, clamp=False), clamp=False)
    if cur.c < 0.0:
        cur, converged = descend(
            _solve_linear(cur.s, cur.a, cur.b, cur.gap, clamp=True), clamp=True
        )
    scale = 1.0 + cur.u  # De / De0
    if not scale > 0.0:
        raise ValueError(
            f"the levels fit De = {de0 * scale!r} cm^-1; bound levels give De > 0"
        )
    return FitResult(
        de_cm1=de0 * scale, re_angstrom=re0 * math.exp(cur.s) / math.sqrt(scale),
        beta=cur.c / (scale * scale), rss_cm2=cur.rss,
        iterations=used, converged=converged,
    )
