"""The self-check suite: closed forms against independent oracles.

One table of nine checks.  Each plays a closed form against a route
that shares no code with it (quadrature, the s-wave pole condition,
momentum-space ODE integration, Fuchsian sum rules) over a fixed grid
chosen by the preset, and yields one deviation per comparison;
run_checks reports the worst of them, and a NaN deviation fails.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import PRESETS
from .momentum import (
    BRANCHES,
    SLOPE_DECADES,
    MomentumProblem,
    fit_slope,
    heun_params_general,
    heun_params_inverse_square,
    indicial_exponents,
    integrate_branch,
    quantize_swave,
)
from .oracle import (
    correction_via_expectations,
    expectation_inverse_power,
    radial_overlap,
)
from .physmodel import (
    AMU_TO_KG,
    ANGSTROM_TO_M,
    HBAR,
    InputError,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    energy_from_joule,
    nan_worst,
    require_positive,
)
from .spectrum import (
    correction_general,
    energy_unperturbed,
    level_energies,
    matrix_element_closed,
)
from .wavefunctions import make_radial_state

__all__ = ["PRESETS", "CheckResult", "Check", "CHECKS", "run_checks",
           "worst_offender"]


class CheckResult(NamedTuple):
    """Worst deviation of one check over its grid, against its tolerance."""

    name: str
    worst: float
    tolerance: float
    comparisons: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


class Check(NamedTuple):
    """One table row: run(grids[preset]) yields one deviation per
    comparison."""

    name: str
    tolerance: float
    detail: str
    grids: dict
    run: Callable[..., Iterator[float]]


def _worst(deviations: Iterable[float]) -> float:
    # the one reduction: the largest deviation, NaN if any is NaN
    return max(deviations, key=nan_worst)


def _synthetic_molecule(
    gamma: float, re_angstrom: float = 1.0, mu_amu: float = 1.0
) -> Molecule:
    # De chosen to land on the target gamma
    de_j = (gamma * HBAR / (re_angstrom * ANGSTROM_TO_M)) ** 2 / (
        2.0 * mu_amu * AMU_TO_KG
    )
    return Molecule(
        name=f"gamma={gamma:g}",
        de_cm1=energy_from_joule(de_j, "cm-1"),
        re_angstrom=re_angstrom,
        mu_amu=mu_amu,
    )


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _states(gamma: float, ns, ls) -> list:
    # radial states of one gamma at re = 1 angstrom, l-major
    return [
        make_radial_state(gamma, QuantumNumbers(n, l), ANGSTROM_TO_M)
        for l in ls for n in ns
    ]


def _oracle_moments(grid) -> Iterator[float]:
    gammas, ns, ls = grid
    for gamma in gammas:
        # one gamma row (144 integrals) per quadrature call: the whole
        # grid in one call evaluates blocks of up to 255 rows, for more
        # peak memory and no gain in time
        scale = gamma * gamma / ANGSTROM_TO_M  # mu g2 / hbar^2 at re = 1 A
        states = _states(gamma, ns, ls)
        ps = (1, 2, 3, 4) * len(states)
        row = [state for state in states for _ in range(4)]
        numeric = expectation_inverse_power(ps, row)
        for p, state, result in zip(ps, row, numeric):
            closed = matrix_element_closed(p, state.qn, state.shape, scale)
            yield _rel_dev(closed, result.value)


def _oracle_correction(grid) -> Iterator[float]:
    gammas, ns, ls = grid
    beta = 1e-46
    for gamma in gammas:
        # one quadrature call per gamma, which has its own couplings
        mol = _synthetic_molecule(gamma)
        c = couplings_from_kratzer(mol)
        states = _states(gamma, ns, ls)
        numeric = correction_via_expectations(states, c, mol.mu_kg, beta)
        for state, result in zip(states, numeric):
            closed = correction_general(c, mol.mu_kg, beta, state.qn)
            yield _rel_dev(closed, result.value)


def _dual_draws(draws: int) -> Iterator[tuple]:
    # one row (ln gamma, re, ln mu, n, l, log10 frac) per draw from five
    # raw PCG64 words: the stream of the scalar calls uniform x 3,
    # integers(0, 9) x 2, uniform, bit for bit; rows are zipped as they
    # are read
    rng = np.random.default_rng(20260814)
    words = rng.bit_generator.random_raw(5 * draws).reshape(draws, 5)
    low = np.array((math.log(2.0), 0.5, math.log(0.2), -8.0))
    high = np.array((math.log(40.0), 2.0, math.log(20.0), -2.0))
    # numpy's next_double, then random_uniform
    uniforms = low + (high - low) * ((words[:, [0, 1, 2, 4]] >> 11) * 2.0**-53)
    # word 3 feeds both integers, low half first (next_uint32), each by
    # Lemire's method on the 9 values; numpy would draw again where the
    # product's low half is below (2^32 - 9) mod 9 = 4
    halves = np.stack((words[:, 3] & 0xFFFFFFFF, words[:, 3] >> 32), axis=1)
    products = halves * 9
    if ((products & 0xFFFFFFFF) < 4).any():
        raise RuntimeError("the stream needs numpy's rejection step here")
    log_gamma, re_angstrom, log_mu, log_frac = uniforms.T.tolist()
    n, l = (products >> 32).T.tolist()
    return zip(log_gamma, re_angstrom, log_mu, n, l, log_frac)


def _dual_formula(draws: int) -> Iterator[float]:
    # E0 and the (De, re) form of the shift straight from level_energies,
    # the one-row call that energy_unperturbed and energy_deformed wrap
    for log_gamma, re_angstrom, log_mu, n, l, log_frac in _dual_draws(draws):
        gamma = math.exp(log_gamma)
        mu_amu = math.exp(log_mu)
        qn = QuantumNumbers(n, l)
        mol = _synthetic_molecule(gamma, re_angstrom, mu_amu)
        c = couplings_from_kratzer(mol)
        shift_unit = correction_general(c, mol.mu_kg, 1.0, qn)
        ((e0, _),) = level_energies(mol, 0.0, ((n, l),))
        frac = 10.0 ** log_frac
        beta = frac * abs(e0) / shift_unit
        ((_, via_kratzer),) = level_energies(mol, beta, ((n, l),))
        via_couplings = correction_general(c, mol.mu_kg, beta, qn)
        yield _rel_dev(via_kratzer, via_couplings)


def _quantization(grid) -> Iterator[float]:
    gammas, n_max = grid
    for gamma in gammas:
        mol = _synthetic_molecule(gamma)
        c = couplings_from_kratzer(mol)
        prob = MomentumProblem(
            sigma1=c.sigma1(mol.mu_kg), sigma2=c.sigma2(mol.mu_kg), k=1.0
        )
        energies = quantize_swave(prob, n_max, mol.mu_kg)
        for n, e_pole in enumerate(energies):
            e_closed = energy_unperturbed(mol, QuantumNumbers(n, 0))
            yield _rel_dev(e_pole, e_closed)


def _exponents(
    beta: float, p_range: tuple[float, float], cases
) -> Iterator[float]:
    # cases: {branch: sigma1 values}, integrated as one batch
    branches = [branch for branch, sigmas in cases.items() for _ in sigmas]
    probs = [
        MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=beta)
        for sigmas in cases.values() for sigma1 in sigmas
    ]
    # integrated only down to the fitted decade(s), which leaves the
    # slopes' bits as they are on the full range
    p_stop = p_range[1] / 10.0**SLOPE_DECADES
    solutions = integrate_branch(probs, branches, p_range, p_stop=p_stop)
    for prob, branch, solution in zip(probs, branches, solutions):
        target = indicial_exponents(prob)[BRANCHES.index(branch)]
        yield abs(fit_slope(solution) - target)


def _fuchsian_draws(draws: int) -> list[list[float]]:
    # one row (sigma1, sigma2, ln k, log10 crowding) per draw, in one call:
    # the stream of four scalar uniform calls per draw, bit for bit
    rng = np.random.default_rng(19081887)
    return rng.uniform(
        (-5.0, 0.0, math.log(1e-2), -6.0),
        (15.0, 5.0, math.log(1e2), math.log10(0.5)),
        size=(draws, 4),
    ).tolist()


def _fuchsian(draws: int) -> Iterator[float]:
    rows = []
    for sigma1, sigma2, log_k, log_crowding in _fuchsian_draws(draws):
        k = math.exp(log_k)
        crowding = 10.0 ** log_crowding
        rows.append((sigma1, sigma2, k, crowding / (6.0 * k * k)))
    # one call per family, each a residual column in draw order: the
    # problem, its sigma-swapped twin (the source's printed reading) and
    # the sigma2 = 0 problem of the four-point form; a family's problems
    # live only for its call, which keeps the peak memory down
    residuals = (
        heun_params_general(
            MomentumProblem(s1, s2, k, beta) for s1, s2, k, beta in rows
        ).fuchsian_residual().tolist(),
        heun_params_general(
            MomentumProblem(s2, s1, k, beta) for s1, s2, k, beta in rows
        ).fuchsian_residual().tolist(),
        heun_params_inverse_square(
            MomentumProblem(s1, 0.0, k, beta) for s1, _, k, beta in rows
        ).fuchsian_residual().tolist(),
    )
    for trio in zip(*residuals):
        yield _worst(trio)


def _normalization(grid) -> Iterator[float]:
    # every gamma's states in one quadrature call, gamma-major
    gammas, ns, ls = grid
    states = [state for gamma in gammas for state in _states(gamma, ns, ls)]
    for r in expectation_inverse_power(0, states):
        yield abs(r.value - 1.0)


def _orthogonality(grid) -> Iterator[float]:
    # off-diagonal pairs within each l, every gamma's in one quadrature
    # call, gamma-major
    gammas, ns, ls = grid
    pairs = [
        pair for gamma in gammas for l in ls
        for pair in combinations(_states(gamma, ns, (l,)), 2)
    ]
    for r in radial_overlap(*zip(*pairs)):
        yield abs(r.value)


_LEVEL_GRIDS = {
    "paper": ((2.0, 5.0, 10.0, 35.755), range(6), range(6)),
    "small": ((2.0, 35.755), (0, 2), (0, 3)),
}

#: the nine checks in report order
CHECKS = (
    Check("oracle-moments", 1e-8,
          "closed-form <1/r^p> vs adaptive quadrature, p = 1..4",
          _LEVEL_GRIDS, _oracle_moments),
    Check("oracle-correction", 1e-8,
          "closed-form shift vs expectation-value assembly",
          _LEVEL_GRIDS, _oracle_correction),
    Check("dual-formula", 1e-12,
          "(De, re) form vs coupling form of the shift",
          {"paper": 1000, "small": 100}, _dual_formula),
    Check("quantization", 1e-12,
          "s-wave pole energies vs closed-form levels",
          {"paper": ((2.0, 5.0, 35.755), 10), "small": ((2.0, 35.755), 5)},
          _quantization),
    Check("exponents-deformed", 0.02,
          "fitted |psi| slopes vs {-10/3, -2}, sigma1-independent",
          {"paper": dict.fromkeys(BRANCHES, (-2.0, -1.0, -0.26, 0.0, 2.0, 10.0)),
           "small": dict.fromkeys(BRANCHES, (-1.0, 0.0, 2.0))},
          partial(_exponents, 1.0, (1.0, 2.0e3))),
    # the slow branch amplifies initial-condition error by (p_max/p)^(2 nu)
    # going inward, so its slope fit is only meaningful for moderate nu;
    # the inward-stable fast branch has no such restriction
    Check("exponents-undeformed", 0.02,
          "fitted |psi| slopes vs -5/2 -+ nu",
          {"paper": {"fast-decay": (0.0, 0.75, 2.0, 6.0),
                     "slow-decay": (0.0, 0.75, 2.0)},
           "small": dict.fromkeys(BRANCHES, (0.0, 2.0))},
          partial(_exponents, 0.0, (0.5, 2.0e3))),
    Check("fuchsian", 1e-12,
          "sum rules of both Heun-type parameterizations",
          {"paper": 1000, "small": 100}, _fuchsian),
    Check("normalization", 1e-8,
          "|integral of R^2 r^2 dr - 1|",
          {"paper": ((2.0, 5.0, 35.755), range(7), (0, 3)),
           "small": ((2.0, 35.755), range(4), (0, 3))},
          _normalization),
    Check("orthogonality", 1e-7,
          "off-diagonal radial overlaps at fixed l, gamma",
          {"paper": ((2.0, 5.0, 35.755), range(5), (0, 2)),
           "small": ((2.0, 35.755), range(3), (0, 2))},
          _orthogonality),
)


def run_checks(
    preset: str = "small", tol: float | None = None
) -> list[CheckResult]:
    """Run every check on the preset's grid, in table order.

    tol, when given, replaces every check's default tolerance and must
    be positive and finite; a bad preset or tol raises InputError.
    """
    if preset not in PRESETS:
        raise InputError(f"unknown preset {preset!r}; use one of {PRESETS}")
    if tol is not None:
        require_positive(tol, "tol")
    results = []
    for check in CHECKS:
        deviations = list(check.run(check.grids[preset]))
        results.append(CheckResult(
            name=check.name,
            worst=_worst(deviations),
            tolerance=check.tolerance if tol is None else tol,
            comparisons=len(deviations),
            detail=check.detail,
        ))
    return results


def worst_offender(results: Iterable[CheckResult]) -> str | None:
    """Name of the failed check furthest over tolerance, NaN first, or None."""
    worst = max((res for res in results if not res.passed), default=None,
                key=lambda res: nan_worst(res.worst / res.tolerance))
    return None if worst is None else worst.name
