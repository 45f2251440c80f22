"""Acceptance suite: eleven go/no-go checks, one printed line each.

Every check recomputes its quantities from the public API at the stated
tolerance and prints a single [PASS]/[FAIL] line before asserting, so a
plain ``pytest -v tests/test_acceptance.py -s`` reads as a checklist.
"""

import math

import numpy as np
from scipy.integrate import quad

from kratzerml.estimate import beta_upper_bound, fit_parameters, zpe_theoretical
from kratzerml.momentum import (
    MomentumProblem,
    fit_slope,
    heun_params_general,
    heun_params_inverse_square,
    integrate_branch,
    quantize_swave,
)
from kratzerml.oracle import correction_via_expectations, expectation_inverse_power
from kratzerml.physmodel import (
    AMU_TO_KG,
    HBAR,
    WAVENUMBER_TO_JOULE,
    KratzerCouplings,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    energy_from_joule,
)
from kratzerml.spectrum import (
    correction_general,
    correction_hydrogen_limit,
    energy_deformed,
    energy_expansion,
    energy_unperturbed,
    matrix_element_closed,
)
from kratzerml.wavefunctions import make_radial_state
from references import radial_wavefunction

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)

# hydrogen-like scales for the Coulomb-limit check
MU_E = 9.1093837015e-31
G2_COULOMB = 2.3070775523e-28
BOHR = 5.29177210903e-11


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {detail}")
    assert ok, detail


def synthetic(gamma, re_angstrom=1.0, mu_amu=1.0):
    """Molecule with the requested shape constant at the given scales."""
    re_m = re_angstrom * 1e-10
    mu = mu_amu * AMU_TO_KG
    de_j = (gamma * HBAR / re_m) ** 2 / (2.0 * mu)
    return Molecule("synth", de_j / WAVENUMBER_TO_JOULE, re_angstrom, mu_amu)


def test_criterion_01_h2_zero_point_energy():
    g0 = zpe_theoretical(H2, 0.0)
    ok = abs(g0 - 2174.9) <= 1.0
    report(1, ok, f"H2 G(beta=0) = {g0:.4f} cm-1, target 2174.9 +- 1.0")


def test_criterion_02_minimal_length_window():
    out = beta_upper_bound(H2)
    x = out.min_length_max_angstrom
    ok = 0.0100 <= x <= 0.0104
    report(2, ok, f"H2 length bound = {x:.6f} angstrom, window [0.0100, 0.0104]")


def test_criterion_03_oracle_equivalence():
    worst_moment = worst_shift = 0.0
    mu = AMU_TO_KG
    for gamma in (2.0, 5.0, 10.0, 35.755):
        mol = synthetic(gamma)
        c = couplings_from_kratzer(mol)
        beta = 1e-2 / (mu * mol.de_joule)
        for n in range(6):
            for l in range(6):
                qn = QuantumNumbers(n, l)
                state = make_radial_state(gamma, qn, mol.re_m)
                scale = gamma * gamma / mol.re_m
                for p in (1, 2, 3, 4):
                    closed = matrix_element_closed(p, qn, state.shape, scale)
                    via_quad = expectation_inverse_power(p, state).value
                    worst_moment = max(
                        worst_moment, abs(via_quad - closed) / abs(closed)
                    )
                de_closed = correction_general(c, mu, beta, qn)
                de_quad = correction_via_expectations(state, c, mu, beta).value
                worst_shift = max(
                    worst_shift, abs(de_quad - de_closed) / abs(de_closed)
                )
    ok = worst_moment <= 1e-8 and worst_shift <= 1e-8
    report(
        3,
        ok,
        "closed vs quadrature over 144 states: moments "
        f"{worst_moment:.2e}, shifts {worst_shift:.2e}, tol 1e-8",
    )


def test_criterion_04_dual_formula_identity():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        gamma = float(np.exp(rng.uniform(np.log(2.0), np.log(40.0))))
        mol = synthetic(gamma)
        qn = QuantumNumbers(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        beta = 10.0 ** rng.uniform(-8.0, -2.0) / (mol.mu_kg * mol.de_joule)
        de_param = energy_deformed(mol, beta, qn).de
        de_coupling = correction_general(
            couplings_from_kratzer(mol), mol.mu_kg, beta, qn
        )
        scale = max(abs(de_param), abs(de_coupling))
        worst = max(worst, abs(de_param - de_coupling) / scale)
    ok = worst <= 1e-12
    report(4, ok, f"(De, re) vs coupling form, 1000 draws: {worst:.2e}, tol 1e-12")


def test_criterion_05_hydrogen_limit():
    beta = 1e20
    worst = 0.0
    exact = True
    for qn in (QuantumNumbers(0, 1), QuantumNumbers(1, 2)):
        hyd = correction_hydrogen_limit(G2_COULOMB, MU_E, beta, qn)
        near = KratzerCouplings(g1=1e-9 * G2_COULOMB * BOHR, g2=G2_COULOMB)
        worst = max(
            worst,
            abs(correction_general(near, MU_E, beta, qn) - hyd) / abs(hyd),
        )
        at_zero = KratzerCouplings(g1=0.0, g2=G2_COULOMB)
        exact = exact and correction_general(at_zero, MU_E, beta, qn) == hyd
    ok = worst <= 1e-6 and exact
    report(
        5,
        ok,
        f"g1 = 1e-9 g2 re vs Coulomb branch: {worst:.2e} (tol 1e-6), "
        f"g1 = 0 dispatch exact: {exact}",
    )


def test_criterion_06_quantization_consistency():
    worst = 0.0
    mu = AMU_TO_KG
    for gamma in (2.0, 5.0, 35.755):
        mol = synthetic(gamma)
        c = couplings_from_kratzer(mol)
        prob = MomentumProblem(sigma1=c.sigma1(mu), sigma2=c.sigma2(mu), k=1.0)
        for n, e in enumerate(quantize_swave(prob, 10, mu)):
            closed = energy_unperturbed(mol, QuantumNumbers(n, 0))
            worst = max(worst, abs(e - closed) / abs(closed))
    ok = worst <= 1e-12
    report(6, ok, f"pole condition vs l = 0 levels, n <= 10: {worst:.2e}, tol 1e-12")


def test_criterion_07_asymptotic_exponents():
    worst = 0.0
    for sigma1 in (-2.0, -1.0, 0.0, 2.0, 10.0):
        prob = MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=1.0)
        for branch, target in (("fast-decay", -10.0 / 3.0), ("slow-decay", -2.0)):
            slope = fit_slope(integrate_branch(prob, branch, (1.0, 2e3)))
            worst = max(worst, abs(slope - target))
    # slow-branch fits need moderate nu: inward integration amplifies the
    # initial-condition error of the subdominant solution by (p_max/p)^(2 nu)
    undeformed = {"fast-decay": (0.0, 0.75, 2.0, 6.0), "slow-decay": (0.0, 0.75, 2.0)}
    for branch, sigmas in undeformed.items():
        sign = -1.0 if branch == "fast-decay" else 1.0
        for sigma1 in sigmas:
            nu = math.sqrt(0.25 + sigma1)
            prob = MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0)
            slope = fit_slope(integrate_branch(prob, branch, (0.5, 2e3)))
            worst = max(worst, abs(slope - (-2.5 + sign * nu)))
    ok = worst <= 0.02
    report(7, ok, f"ODE slopes vs -10/3, -2 and -5/2 -+ nu: {worst:.2e}, tol 0.02")


def test_criterion_08_fuchsian_conditions():
    rng = np.random.default_rng(19081887)
    worst_general = worst_is = 0.0
    for _ in range(1000):
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        beta = 10.0 ** rng.uniform(-6.0, math.log10(0.5)) / (6.0 * k * k)
        prob = MomentumProblem(
            sigma1=rng.uniform(-3.0, 3.0),
            sigma2=rng.uniform(0.0, 3.0),
            k=k,
            beta=beta,
        )
        twin = MomentumProblem(prob.sigma2, prob.sigma1, prob.k, prob.beta)
        for member in (prob, twin):
            residual = heun_params_general(member).fuchsian_residual()
            worst_general = max(worst_general, residual)
        mu = 10.0 ** rng.uniform(-1.0, 1.0)
        energy = -(10.0 ** rng.uniform(-1.0, 1.0))
        share = rng.uniform(1e-6, 0.5)
        beta_is = share / (12.0 * mu * abs(energy))
        k_is = math.sqrt(2.0 * mu * abs(energy))
        params = heun_params_inverse_square(
            MomentumProblem(rng.uniform(-3.0, 3.0), 0.0, k_is, beta_is)
        )
        worst_is = max(worst_is, params.fuchsian_residual())
    ok = worst_general <= 1e-12 and worst_is <= 1e-12
    report(
        8,
        ok,
        "sum-of-exponents residual, 1000 draws: five-point "
        f"{worst_general:.2e}, four-point {worst_is:.2e}, tol 1e-12",
    )


def test_criterion_09_expansion_order():
    de_cm1 = 40000.0
    de_j = de_cm1 * WAVENUMBER_TO_JOULE
    mu = AMU_TO_KG
    beta = 1e-2 / (mu * de_j)
    ratios = []
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(1, 1), QuantumNumbers(2, 1)):
        errs = []
        for gamma in (50.0, 100.0, 200.0):
            re_m = gamma * HBAR / math.sqrt(2.0 * mu * de_j)
            mol = Molecule("synth", de_cm1, re_m / 1e-10, 1.0)
            lev = energy_deformed(mol, beta, qn)
            errs.append(abs(energy_expansion(mol, beta, qn) - lev.e) / de_j)
        ratios.extend((errs[0] / errs[1], errs[1] / errs[2]))
    ok = all(11.0 <= r <= 21.0 for r in ratios)
    report(
        9,
        ok,
        "expansion error contraction per gamma doubling: "
        f"{min(ratios):.1f}..{max(ratios):.1f}, window [11, 21]",
    )


def _overlap(gamma, n1, n2, l):
    """<R_n1 | R_n2> over r^2 dr, via r = u/(1-u) on the unit interval."""
    a = make_radial_state(gamma, QuantumNumbers(n1, l), 1.0)
    b = make_radial_state(gamma, QuantumNumbers(n2, l), 1.0)

    def integrand(u):
        r = u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        return (
            radial_wavefunction(a, r) * radial_wavefunction(b, r) * r * r * jac
        )

    value, _ = quad(integrand, 0.0, 1.0, points=[0.5], limit=200,
                    epsabs=1e-12, epsrel=1e-9)
    return value


def test_criterion_10_wavefunction_suite():
    worst_norm = 0.0
    for gamma, n, l in ((5.0, 0, 0), (5.0, 3, 2), (35.755, 0, 0), (35.755, 3, 1)):
        state = make_radial_state(gamma, QuantumNumbers(n, l), 1.0)
        norm = expectation_inverse_power(0, state).value
        worst_norm = max(worst_norm, abs(norm - 1.0))
    worst_cross = max(
        abs(_overlap(5.0, 0, 2, 1)),
        abs(_overlap(5.0, 1, 3, 0)),
        abs(_overlap(35.755, 0, 3, 0)),
    )
    nodes_exact = True
    r = np.geomspace(1e-3, 60.0, 30001)
    for n in range(7):
        state = make_radial_state(5.0, QuantumNumbers(n, 0), 1.0)
        signs = np.sign([radial_wavefunction(state, x) for x in r])
        flips = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
        nodes_exact = nodes_exact and flips == n
    ok = worst_norm <= 1e-8 and worst_cross <= 1e-7 and nodes_exact
    report(
        10,
        ok,
        f"norm off by {worst_norm:.2e} (tol 1e-8), overlap {worst_cross:.2e} "
        f"(tol 1e-7), node counts exact for n <= 6: {nodes_exact}",
    )


def test_criterion_11_fit_round_trip():
    rng = np.random.default_rng(11)
    passed = 0
    worst = 0.0
    for _ in range(20):
        de = rng.uniform(3e4, 9e4)
        re = rng.uniform(0.7, 1.5)
        mu_amu = rng.uniform(0.5, 3.0)
        mol = Molecule("truth", de, re, mu_amu)
        beta = 10.0 ** rng.uniform(-3.5, -1.5) / (mol.mu_kg * mol.de_joule)
        levels = [
            (n, l, energy_from_joule(
                energy_deformed(mol, beta, QuantumNumbers(n, l)).e, "cm-1"
            ))
            for n in range(4)
            for l in range(3)
        ]
        init = (
            de * (1.0 + rng.uniform(-0.1, 0.1)),
            re * (1.0 + rng.uniform(-0.1, 0.1)),
            beta * (1.0 + rng.uniform(-0.1, 0.1)),
        )
        out = fit_parameters(levels, mu_amu, init)
        devs = (
            abs(out.de_cm1 - de) / de,
            abs(out.re_angstrom - re) / re,
            abs(out.beta - beta) / beta,
        )
        worst = max(worst, *devs)
        if out.converged and all(d <= 1e-6 for d in devs):
            passed += 1
    ok = passed == 20
    report(
        11,
        ok,
        f"12-level synthetic recovery: {passed}/20 trials within rel 1e-6 "
        f"(worst {worst:.2e})",
    )
