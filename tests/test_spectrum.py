import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypervirial
from kratzerml.physmodel import (
    AMU_TO_KG,
    HBAR,
    WAVENUMBER_TO_JOULE,
    InputError,
    KratzerCouplings,
    LambdaGuardError,
    Molecule,
    QuantumNumbers,
    ShapeNumbers,
    couplings_from_kratzer,
    gamma_of,
    shape_numbers,
)
from kratzerml.spectrum import (
    PERTURBATIVE_WARN_RATIO,
    _correction_brace,
    correction_general,
    correction_hydrogen_limit,
    energy_deformed,
    energy_expansion,
    energy_unperturbed,
    level_energies,
    matrix_element_closed,
    term_decomposition,
)

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)

# hydrogen-atom scales: electron mass, e^2/(4 pi eps0), Bohr radius
MU_E = 9.1093837015e-31
G2_COULOMB = 2.3070775523e-28
BOHR = 5.29177210903e-11


def synthetic(gamma):
    """Molecule with re = 1 A, mu = 1 amu and De chosen to hit `gamma`."""
    re_m = 1.0e-10
    de_j = (gamma * HBAR / re_m) ** 2 / (2.0 * AMU_TO_KG)
    return Molecule("synthetic", de_j / WAVENUMBER_TO_JOULE, 1.0, 1.0)


def test_synthetic_gamma_is_exact():
    assert gamma_of(synthetic(2.0)) == pytest.approx(2.0, rel=1e-14)


def test_unperturbed_frozen_ratio():
    """gamma=2 ground level sits at -4 De / lam^2 = -0.60961 De."""
    mol = synthetic(2.0)
    ratio = energy_unperturbed(mol, QuantumNumbers(0, 0)) / mol.de_joule
    assert ratio == pytest.approx(-0.6096117967977924, rel=1e-12)
    assert ratio == pytest.approx(-0.60961, abs=5e-6)


def test_unperturbed_ordering_and_sign():
    mol = synthetic(5.0)
    energies = [
        energy_unperturbed(mol, QuantumNumbers(n, l))
        for n in range(4)
        for l in range(4)
    ]
    assert all(e < 0.0 for e in energies)
    # deepening with n at fixed l
    for l in range(4):
        col = [energy_unperturbed(mol, QuantumNumbers(n, l)) for n in range(4)]
        assert col == sorted(col)


def test_matrix_element_frozen_values():
    qn0 = QuantumNumbers(0, 0)
    m1 = matrix_element_closed(1, qn0, shape_numbers(2.0, qn0), 1.0)
    assert m1 == pytest.approx(0.1524029491994481, rel=1e-12)
    assert m1 == pytest.approx(0.152403, abs=1e-6)  # six-figure reference
    qn1 = QuantumNumbers(1, 0)
    m2 = matrix_element_closed(2, qn1, shape_numbers(2.0, qn1), 1.0)
    assert m2 == pytest.approx(0.010737109170627025, rel=1e-12)
    assert m2 == pytest.approx(0.010737, abs=1e-6)


def test_matrix_element_scale_powers():
    qn = QuantumNumbers(1, 1)
    shape = shape_numbers(3.0, qn)
    s = 2.5e9
    for p in (1, 2, 3, 4):
        unit = matrix_element_closed(p, qn, shape, 1.0)
        assert matrix_element_closed(p, qn, shape, s) == pytest.approx(
            unit * s**p, rel=1e-14
        )


def test_matrix_element_coulomb_reduction():
    """With lam = l + 1 the p=2 form is s^2 / ((l+1/2) np^3)."""
    s = 1.7
    for n, l in ((0, 0), (1, 0), (0, 2), (3, 1)):
        qn = QuantumNumbers(n, l)
        shape = ShapeNumbers(gamma=0.0, lam=float(l + 1), alpha=1.0)
        got = matrix_element_closed(2, qn, shape, s)
        n_p = n + l + 1
        assert got == pytest.approx(s * s / ((l + 0.5) * n_p**3), rel=1e-14)


_EPS = 2.0**-52


@settings(max_examples=300, deadline=None)
@given(
    log_gamma=st.floats(min_value=math.log(2.0), max_value=math.log(5000.0)),
    n=st.integers(0, 20),
    l=st.integers(0, 20),
    re=st.sampled_from([1.0, 1e-10, 0.74e-10]),
)
def test_matrix_element_matches_hypervirial(log_gamma, n, l, re):
    """<1/r^p>, p = 1..4, is the 60-digit hypervirial value to 10 eps.

    Both sides take the same float scale s = gamma^2 / re, so what is
    left is the rounding of lam and of the closed form's own arithmetic:
    measured at most 7.63 eps (p = 4) over 240,000 random draws of this
    box.  gamma >= 2 keeps lam >= 2.56, clear of every guard.
    """
    gamma = math.exp(log_gamma)
    qn = QuantumNumbers(n, l)
    shape = shape_numbers(gamma, qn)
    scale = gamma * gamma / re
    exact = hypervirial.inverse_power_moments(gamma, n, l, scale)
    for p in (1, 2, 3, 4):
        got = matrix_element_closed(p, qn, shape, scale)
        assert abs(got - exact[p - 1]) <= 10.0 * _EPS * exact[p - 1], p


def test_matrix_element_guards():
    qn = QuantumNumbers(0, 0)
    at = lambda lam: ShapeNumbers(gamma=0.0, lam=lam, alpha=1.0)
    with pytest.raises(LambdaGuardError):
        matrix_element_closed(4, qn, at(1.5), 1.0)
    with pytest.raises(LambdaGuardError):
        matrix_element_closed(4, qn, at(1.5 + 5e-7), 1.0)
    with pytest.raises(LambdaGuardError):
        matrix_element_closed(3, qn, at(1.0), 1.0)
    # p=3 is regular at lam = 3/2 and p=2 at lam = 1
    matrix_element_closed(3, qn, at(1.5), 1.0)
    matrix_element_closed(2, qn, at(1.0), 1.0)
    with pytest.raises(ValueError):
        matrix_element_closed(5, qn, at(2.0), 1.0)
    with pytest.raises(ValueError):
        matrix_element_closed(0, qn, at(2.0), 1.0)


def test_level_assembly():
    lev = energy_deformed(H2, 2.0e40, QuantumNumbers(1, 2))
    assert lev.e == lev.e0 + lev.de
    assert lev.e0 == energy_unperturbed(H2, QuantumNumbers(1, 2))
    assert lev.n == 1 and lev.l == 2


def test_correction_positive_on_molecular_grid():
    """The minimal length raises every low-lying molecular level."""
    for g in (2.0, 5.0, 10.0, 35.755):
        mol = synthetic(g)
        for n in range(4):
            for l in range(4):
                assert energy_deformed(mol, 1e40, QuantumNumbers(n, l)).de > 0.0


def test_beta_zero_is_exact():
    lev = energy_deformed(H2, 0.0, QuantumNumbers(0, 0))
    assert lev.de == 0.0
    assert lev.e == lev.e0
    assert lev.warning is None


def test_beta_doubling_is_exact():
    """dE is strictly linear in beta: doubling beta doubles the shift."""
    qn = QuantumNumbers(2, 1)
    beta = 7.3e39
    assert (
        energy_deformed(H2, 2.0 * beta, qn).de
        == 2.0 * energy_deformed(H2, beta, qn).de
    )
    c = couplings_from_kratzer(H2)
    mu = H2.mu_kg
    assert correction_general(c, mu, 2.0 * beta, qn) == 2.0 * correction_general(
        c, mu, beta, qn
    )


def test_negative_beta_rejected():
    qn = QuantumNumbers(0, 0)
    with pytest.raises(ValueError):
        energy_deformed(H2, -1.0, qn)
    with pytest.raises(ValueError):
        correction_general(couplings_from_kratzer(H2), H2.mu_kg, -1.0, qn)
    with pytest.raises(ValueError):
        correction_hydrogen_limit(1e-28, MU_E, -1.0, qn)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_nonfinite_beta_rejected(beta):
    qn = QuantumNumbers(0, 0)
    with pytest.raises(ValueError, match="finite"):
        energy_deformed(H2, beta, qn)
    with pytest.raises(ValueError, match="finite"):
        correction_general(couplings_from_kratzer(H2), H2.mu_kg, beta, qn)


@settings(max_examples=300, deadline=None)
@given(
    log_gamma=st.floats(min_value=math.log(2.0), max_value=math.log(5000.0)),
    nl=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=12
    ),
    beta=st.one_of(
        st.just(0.0), st.floats(min_value=30.0, max_value=50.0).map(lambda e: 10.0**e)
    ),
)
def test_level_energies_is_energy_deformed(log_gamma, nl, beta):
    """Each row of the batched call is energy_deformed's level, bit for bit,
    and both keep the grouping of the one-level-at-a-time reference."""
    mol = synthetic(math.exp(log_gamma))

    def reference(n, l):
        gamma = gamma_of(mol)
        lam = shape_numbers(gamma, QuantumNumbers(n, l)).lam
        e0 = -gamma * gamma * mol.de_joule / (lam + n) ** 2
        if beta == 0.0:
            return e0, 0.0
        brace = _correction_brace(lam, n, 0.5 * gamma * gamma)
        return e0, (
            beta * mol.mu_kg * mol.de_joule**2 * (2.0 * gamma / (lam + n)) ** 4
            * brace
        )

    levels = [energy_deformed(mol, beta, QuantumNumbers(n, l)) for n, l in nl]
    expected = [reference(n, l) for n, l in nl]
    assert [(lev.e0, lev.de) for lev in levels] == expected
    assert level_energies(mol, beta, nl) == expected


@pytest.mark.parametrize(
    "mol, beta, error",
    [
        (synthetic(0.8), 1e40, LambdaGuardError),  # lam(l = 0) = 1.44
        (synthetic(2.0), -1.0, InputError),
        (synthetic(2.0), math.nan, InputError),
        (synthetic(2.0), math.inf, InputError),
        (Molecule("huge", 1e300, 1e300, 1e300), 0.0, ValueError),  # gamma = inf
    ],
)
def test_level_energies_raises_as_energy_deformed(mol, beta, error):
    def raised(call):
        with pytest.raises(ValueError) as info:
            call()
        return type(info.value)

    assert raised(lambda: energy_deformed(mol, beta, QuantumNumbers(0, 0))) is error
    # the first row passes every guard; the second fails like the single level
    assert raised(lambda: level_energies(mol, beta, [(1, 1), (0, 0)])) is error


def test_dual_forms_agree():
    """(De, re) form vs general-coupling form, across the parameter box."""
    rng = np.random.default_rng(20260814)
    for _ in range(300):
        gamma = float(np.exp(rng.uniform(np.log(2.0), np.log(40.0))))
        mol = synthetic(gamma)
        n = int(rng.integers(0, 6))
        l = int(rng.integers(0, 6))
        beta = 10.0 ** rng.uniform(-8.0, -2.0) / (mol.mu_kg * mol.de_joule)
        qn = QuantumNumbers(n, l)
        de_param = energy_deformed(mol, beta, qn).de
        de_coupling = correction_general(
            couplings_from_kratzer(mol), mol.mu_kg, beta, qn
        )
        assert de_param == pytest.approx(de_coupling, rel=1e-12, abs=0.0)


def test_hydrogen_dispatch_is_exact():
    """g1 = 0 routes to the Coulomb branch, bit for bit."""
    qn = QuantumNumbers(1, 1)
    c = KratzerCouplings(g1=0.0, g2=G2_COULOMB)
    assert correction_general(c, MU_E, 1e20, qn) == correction_hydrogen_limit(
        G2_COULOMB, MU_E, 1e20, qn
    )


def test_hydrogen_limit_continuity():
    """Small g1 = eps g2 re deviates from the g1 = 0 branch linearly in eps."""
    beta = 1e20
    for qn in (QuantumNumbers(0, 1), QuantumNumbers(1, 2)):
        hyd = correction_hydrogen_limit(G2_COULOMB, MU_E, beta, qn)
        devs = {}
        for eps in (1e-6, 1e-9):
            c = KratzerCouplings(g1=eps * G2_COULOMB * BOHR, g2=G2_COULOMB)
            gen = correction_general(c, MU_E, beta, qn)
            devs[eps] = abs(gen - hyd) / abs(hyd)
        assert devs[1e-9] < 1e-6
        assert devs[1e-6] / devs[1e-9] == pytest.approx(1e3, rel=0.05)


def test_hydrogen_limit_value():
    """Direct check of the Coulomb shift 4 beta t^4/mu (np/(l+1/2) - 3/4)."""
    qn = QuantumNumbers(2, 1)
    beta, g2, mu = 3.0e19, G2_COULOMB, MU_E
    t = mu * g2 / (HBAR * qn.principal)
    expected = 4.0 * beta * t**4 / mu * (qn.principal / (qn.l + 0.5) - 0.75)
    assert correction_hydrogen_limit(g2, mu, beta, qn) == pytest.approx(
        expected, rel=1e-14, abs=0.0
    )


def test_strongly_attractive_g1_rejected():
    # (l+1/2)^2 + sigma1 <= 0 has no regular bound branch
    qn = QuantumNumbers(0, 0)
    sigma1_target = -0.5
    g1 = sigma1_target * HBAR * HBAR / (2.0 * MU_E)
    with pytest.raises(ValueError):
        correction_general(KratzerCouplings(g1=g1, g2=G2_COULOMB), MU_E, 1e20, qn)


def test_perturbative_warning():
    qn = QuantumNumbers(0, 0)
    strong = energy_deformed(H2, 1e47, qn)
    assert abs(strong.de) > PERTURBATIVE_WARN_RATIO * abs(strong.e0)
    assert strong.warning is not None and "unreliable" in strong.warning
    weak = energy_deformed(H2, 1e40, qn)
    assert weak.warning is None


def test_decomposition_tags_and_sum():
    terms = term_decomposition(H2, 5e39, QuantumNumbers(1, 1))
    assert [t.tag for t in terms] == [
        "depth",
        "harmonic",
        "rotational",
        "anharmonic",
        "anharmonic",
        "rovib-coupling",
        "ml-anharmonic",
        "ml-harmonic",
        "ml-coupling",
        "ml-anharmonic",
    ]
    total = 0.0
    for t in terms:
        total += t.value
    assert total == energy_expansion(H2, 5e39, QuantumNumbers(1, 1))


def test_decomposition_beta_zero():
    terms = term_decomposition(H2, 0.0, QuantumNumbers(2, 1))
    for t in terms[6:]:
        assert t.value == 0.0


def test_leading_deformation_term_ignores_l():
    """The 1/gamma^2 deformation term is a pure anharmonicity: no l."""
    a = term_decomposition(H2, 1e40, QuantumNumbers(2, 0))[6]
    b = term_decomposition(H2, 1e40, QuantumNumbers(2, 3))[6]
    assert a.tag == "ml-anharmonic"
    assert a.value == b.value


def test_expansion_accuracy_large_gamma():
    """At gamma = 100 the truncated series hits the exact level to 1e-7 De."""
    mol = synthetic(100.0)
    qn = QuantumNumbers(0, 0)
    exact = energy_unperturbed(mol, qn)
    approx = energy_expansion(mol, 0.0, qn)
    assert abs(approx - exact) / mol.de_joule < 1e-7


def test_expansion_tracks_closed_form_with_beta():
    """Deformed expansion approaches the closed-form shift as gamma grows."""
    qn = QuantumNumbers(1, 1)
    for gamma, tol in ((50.0, 2e-4), (200.0, 2e-6)):
        mol = synthetic(gamma)
        beta = 1e-4 / (mol.mu_kg * mol.de_joule)
        lev = energy_deformed(mol, beta, qn)
        series = energy_expansion(mol, beta, qn)
        assert series == pytest.approx(lev.e, rel=tol, abs=0.0)
