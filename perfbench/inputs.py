"""Seeded benchmark inputs and their mpmath references.

Everything here is computed from the seed and from the closed form of
the Kratzer levels with the first-order minimal-length shift, evaluated
in 40-digit mpmath.  Nothing imports the package under test, so the
inputs and the expected outputs do not depend on the commit measured.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import mpmath

# CODATA-2018 values, the same as the package's physmodel constants
PLANCK_H = mpmath.mpf("6.62607015e-34")
HBAR = PLANCK_H / (2 * mpmath.pi)
AMU_TO_KG = mpmath.mpf("1.66053906660e-27")
WAVENUMBER_TO_JOULE = PLANCK_H * mpmath.mpf(299792458) * 100
ANGSTROM_TO_M = mpmath.mpf("1e-10")

DIGITS = 40

#: gamma ranges of the two molecule classes; heavy covers the regime
#: where the float64 brace of the shift loses the most digits
LIGHT_GAMMA = (20.0, 150.0)
HEAVY_GAMMA = (150.0, 1000.0)

#: generated molecules per class in cli-cold (H2 comes on top, light)
CLI_MOLECULES_PER_CLASS = 8
#: distinct fit inputs per fit-sweep run, more than one run completes
FIT_INPUTS = 320

VERIFY_ARGV = ["verify", "--grid-preset", "paper", "--json"]


def _mp(x: float) -> mpmath.mpf:
    return mpmath.mpf(x)


def gamma_of(de_cm1: float, re_angstrom: float, mu_amu: float) -> mpmath.mpf:
    """gamma = (re / hbar) sqrt(2 mu De)."""
    de_j = _mp(de_cm1) * WAVENUMBER_TO_JOULE
    return (
        _mp(re_angstrom) * ANGSTROM_TO_M
        * mpmath.sqrt(2 * _mp(mu_amu) * AMU_TO_KG * de_j) / HBAR
    )


def mu_for_gamma(gamma: float, de_cm1: float, re_angstrom: float) -> float:
    """Reduced mass in amu that puts a (De, re) molecule at gamma."""
    with mpmath.workdps(DIGITS):
        de_j = _mp(de_cm1) * WAVENUMBER_TO_JOULE
        p = _mp(gamma) * HBAR / (_mp(re_angstrom) * ANGSTROM_TO_M)
        return float(p * p / (2 * de_j) / AMU_TO_KG)


def beta_from_min_length(x_angstrom: float) -> mpmath.mpf:
    """beta of the beta' = 2 beta algebra whose minimal length is x."""
    return (_mp(x_angstrom) * ANGSTROM_TO_M / HBAR) ** 2 / 5


def level_cm1(de_cm1, re_angstrom, mu_amu, beta, n: int, l: int):
    """(E0, dE, E) of level (n, l) in cm^-1, as floats.

    E0 = -gamma^2 De / (lam + n)^2 and dE = beta mu De^2 (2 gamma /
    (lam + n))^4 {brace}, the closed form of the paper.
    """
    with mpmath.workdps(DIGITS):
        de_j = _mp(de_cm1) * WAVENUMBER_TO_JOULE
        mu_kg = _mp(mu_amu) * AMU_TO_KG
        g = gamma_of(de_cm1, re_angstrom, mu_amu)
        half = mpmath.mpf(1) / 2
        lam = half + mpmath.sqrt((l + half) ** 2 + g * g)
        ln = lam + n
        e0 = -g * g * de_j / ln**2
        u = g * g / 2
        middle = (ln / (lam - half)) * (1 + u * (1 / ln**2 - 2 / (lam * (lam - 1))))
        tail = (
            u * u * (1 + 3 * n * (2 * lam + n) / (lam * (2 * lam + 1)))
            / ((lam - half) * (lam - 1) * (lam - 3 * half) * ln)
        )
        brace = -mpmath.mpf(3) / 4 + middle + tail
        shift = _mp(beta) * mu_kg * de_j**2 * (2 * g / ln) ** 4 * brace
        return (
            float(e0 / WAVENUMBER_TO_JOULE),
            float(shift / WAVENUMBER_TO_JOULE),
            float((e0 + shift) / WAVENUMBER_TO_JOULE),
        )


def _zpe(de_cm1, re_angstrom, mu_amu) -> mpmath.mpf:
    # G = E00 + De = De (1 - gamma^2 / lam00^2), kept in mpmath because
    # E00 and De cancel to about 1 / gamma of De
    g = gamma_of(de_cm1, re_angstrom, mu_amu)
    lam = mpmath.mpf(1) / 2 + mpmath.sqrt(mpmath.mpf(1) / 4 + g * g)
    return _mp(de_cm1) * (1 - g * g / lam**2)


def zpe_cm1(de_cm1, re_angstrom, mu_amu) -> float:
    """Undeformed zero-point energy G = E00 + De in cm^-1."""
    with mpmath.workdps(DIGITS):
        return float(_zpe(de_cm1, re_angstrom, mu_amu))


def bound_reference(de_cm1, re_angstrom, mu_amu, zpe_exp_cm1) -> dict:
    """Gap, beta_max and minimal-length bound, as `bound` reports them."""
    with mpmath.workdps(DIGITS):
        g_theory = _zpe(de_cm1, re_angstrom, mu_amu)
        delta = _mp(zpe_exp_cm1) - g_theory
        unit_shift = level_cm1(de_cm1, re_angstrom, mu_amu, 1.0, 0, 0)[1]
        beta_max = delta / _mp(unit_shift)
        x_max = HBAR * mpmath.sqrt(5 * beta_max) / ANGSTROM_TO_M
        return {
            "g_theory": float(g_theory),
            "delta": float(delta),
            "beta_max": float(beta_max),
            "min_length_max": float(x_max),
        }


def _stratified_gammas(rng: random.Random, bounds, count: int) -> list[float]:
    # one log-uniform draw per equal-width stratum of log gamma, shuffled;
    # stratifying keeps the cost mix of a run nearly the same for every seed
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    out = [
        math.exp(lo + (i + rng.random()) / count * (hi - lo)) for i in range(count)
    ]
    rng.shuffle(out)
    return out


def _draw_molecule(rng: random.Random, gamma: float, heavy: bool):
    de = rng.uniform(3e4, 9e4)
    re = rng.uniform(1.5, 3.0) if heavy else rng.uniform(0.7, 1.5)
    return de, re, mu_for_gamma(gamma, de, re)


def _interleaved_classes(rng: random.Random, per_class: int):
    light = _stratified_gammas(rng, LIGHT_GAMMA, per_class)
    heavy = _stratified_gammas(rng, HEAVY_GAMMA, per_class)
    for g_light, g_heavy in zip(light, heavy):
        yield g_light, False
        yield g_heavy, True


def cli_cold_ops(seed: int, workdir: Path) -> list[dict]:
    """bound and spectrum on H2 and on seeded light and heavy molecules.

    Each generated molecule carries a zpe_exp_cm1 0.1 % to 1 % above the
    undeformed zero-point energy, so that `bound` has a positive gap.
    Each spectrum is asked at a seeded minimal length, so that the
    first-order shift is computed and checked too.
    """
    rng = random.Random(f"cli-cold:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    targets = [("H2", None)]
    for i, (gamma, heavy) in enumerate(
        _interleaved_classes(rng, CLI_MOLECULES_PER_CLASS)
    ):
        de, re, mu = _draw_molecule(rng, gamma, heavy)
        zpe = zpe_cm1(de, re, mu) * (1.0 + 10.0 ** rng.uniform(-3.0, -2.0))
        name = f"gen{i:02d}"
        path = workdir / f"{name}.molecule"
        path.write_text(
            f"name = {name}\nDe_cm1 = {de!r}\nre_angstrom = {re!r}\n"
            f"mu_amu = {mu!r}\nzpe_exp_cm1 = {zpe!r}\n",
            encoding="utf-8",
        )
        targets.append((str(path), {"name": name, "de": de, "re": re, "mu": mu,
                                    "zpe_exp": zpe, "heavy": heavy}))
    ops = []
    for ref, molecule in targets:
        ops.append({"kind": "bound", "argv": ["bound", ref, "--json"],
                    "molecule": molecule})
        x_min = 10.0 ** rng.uniform(-2.5, -1.5)
        ops.append({
            "kind": "spectrum",
            "argv": ["spectrum", ref, "--nmax", "10", "--lmax", "10",
                     "--min-length", repr(x_min),
                     "--expansion", "--decompose", "--json"],
            "molecule": molecule,
            "min_length": x_min,
        })
    return ops


def verify_paper_ops(seed: int, workdir: Path) -> list[dict]:
    """The paper-preset self-check.  Its grid is fixed inside the CLI, so
    the seed changes nothing here."""
    del seed, workdir
    return [{"kind": "verify", "argv": list(VERIFY_ARGV)}]


def fit_sweep_ops(seed: int, workdir: Path) -> list[dict]:
    """12-level fits (n < 4, l < 3) drawn like acceptance criterion 11.

    Half the truths are light and half heavy in gamma; beta is
    10^U(-3.5, -1.5) / (mu De) and every start coordinate is perturbed
    by up to +-10 %.  Levels are the mpmath closed form rounded once.
    """
    rng = random.Random(f"fit-sweep:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (gamma, heavy) in enumerate(_interleaved_classes(rng, FIT_INPUTS // 2)):
        de, re, mu = _draw_molecule(rng, gamma, heavy)
        with mpmath.workdps(DIGITS):
            scale = _mp(mu) * AMU_TO_KG * _mp(de) * WAVENUMBER_TO_JOULE
            beta = float(mpmath.power(10, rng.uniform(-3.5, -1.5)) / scale)
        rows = ["n,l,E_cm1"]
        for n in range(4):
            for l in range(3):
                rows.append(f"{n},{l},{level_cm1(de, re, mu, beta, n, l)[2]!r}")
        path = workdir / f"fit{i:03d}.levels"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        init = (
            de * (1.0 + rng.uniform(-0.1, 0.1)),
            re * (1.0 + rng.uniform(-0.1, 0.1)),
            beta * (1.0 + rng.uniform(-0.1, 0.1)),
        )
        ops.append({
            "kind": "fit",
            "argv": ["fit", str(path), "--mu", repr(mu),
                     "--init", ",".join(repr(v) for v in init), "--json"],
            "truth": {"de": de, "re": re, "beta": beta},
            "heavy": heavy,
        })
    return ops


GENERATORS = {
    "cli-cold": cli_cold_ops,
    "verify-paper": verify_paper_ops,
    "fit-sweep": fit_sweep_ops,
}
