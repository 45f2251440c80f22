import math

import pytest
from hypothesis import given, strategies as st

from kratzerml.physmodel import (
    AMU_TO_KG,
    ANGSTROM_TO_M,
    HBAR,
    ENERGY_UNITS,
    PLANCK_H,
    SPEED_OF_LIGHT,
    WAVENUMBER_TO_JOULE,
    LAMBDA_GUARD_TOL,
    KratzerCouplings,
    LambdaGuardError,
    Molecule,
    QuantumNumbers,
    beta_from_min_length,
    couplings_from_kratzer,
    energy_from_joule,
    energy_to_joule,
    gamma_of,
    minimal_length,
    require_lambda_regular,
    shape_numbers,
)

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)


def test_fixed_constants():
    assert PLANCK_H == 6.62607015e-34
    assert SPEED_OF_LIGHT == 299792458.0
    assert HBAR == PLANCK_H / (2.0 * math.pi)
    assert AMU_TO_KG == 1.66053906660e-27
    assert WAVENUMBER_TO_JOULE == PLANCK_H * SPEED_OF_LIGHT * 100.0


def test_energy_unit_round_trip():
    for unit in ENERGY_UNITS:
        x = 123.456
        assert energy_from_joule(energy_to_joule(x, unit), unit) == pytest.approx(
            x, rel=1e-15
        )
    with pytest.raises(ValueError):
        energy_to_joule(1.0, "hartree")


def test_wavenumber_to_ev():
    # 1 cm^-1 = h c / (1 cm) expressed in eV
    ev = energy_from_joule(energy_to_joule(1.0, "cm-1"), "eV")
    assert ev == pytest.approx(1.239841984e-4, rel=1e-9)


def test_molecule_validation():
    with pytest.raises(ValueError):
        Molecule("bad", -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Molecule("bad", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Molecule("bad", 1.0, 1.0, math.inf)
    with pytest.raises(ValueError, match="zpe_exp_cm1 must be finite when present"):
        Molecule("bad", 1.0, 1.0, 1.0, zpe_exp_cm1=math.inf)
    mol = Molecule("ok", 1000.0, 1.0, 1.0)
    assert mol.zpe_exp_cm1 is None
    assert mol.de_joule == 1000.0 * WAVENUMBER_TO_JOULE
    assert mol.re_m == 1.0 * ANGSTROM_TO_M
    assert mol.mu_kg == 1.0 * AMU_TO_KG


def test_h2_gamma():
    """The H2 constants give the well-shape number used throughout."""
    assert gamma_of(H2) == pytest.approx(35.7557, abs=5e-4)


def test_quantum_numbers():
    qn = QuantumNumbers(2, 3)
    assert qn.principal == 6
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(1.5, 0)


def test_couplings_molecular_branch():
    c = couplings_from_kratzer(H2)
    de, re = H2.de_joule, H2.re_m
    assert c.g1 == de * re * re
    assert c.g2 == 2.0 * de * re
    # sigma1 equals gamma^2 on the molecular branch
    assert c.sigma1(H2.mu_kg) == pytest.approx(gamma_of(H2) ** 2, rel=1e-14)


def test_couplings_validation():
    with pytest.raises(ValueError):
        KratzerCouplings(g1=0.0, g2=-1.0)
    for g1, g2 in ((math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="couplings must be finite"):
            KratzerCouplings(g1, g2)
    # negative g1 (attractive inverse-square) is a valid general input
    KratzerCouplings(g1=-1e-48, g2=0.0)


@given(
    gamma=st.floats(min_value=0.0, max_value=200.0),
    n=st.integers(min_value=0, max_value=12),
    l=st.integers(min_value=0, max_value=12),
)
def test_shape_numbers_properties(gamma, n, l):
    shape = shape_numbers(gamma, QuantumNumbers(n, l))
    # lam = 1/2 + sqrt((l+1/2)^2 + gamma^2) >= l + 1 >= 1
    assert shape.lam >= l + 1.0 - 1e-12
    assert shape.lam == pytest.approx(
        0.5 + math.hypot(l + 0.5, gamma), rel=1e-15
    )
    assert shape.alpha == pytest.approx(
        gamma * gamma / (shape.lam + n), rel=1e-15, abs=0.0
    )


def test_shape_numbers_never_raises_at_gamma_zero():
    shape = shape_numbers(0.0, QuantumNumbers(0, 0))
    assert shape.lam == 1.0


@pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
def test_shape_numbers_refuses_a_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be a nonnegative finite number"):
        shape_numbers(gamma, QuantumNumbers(0, 0))


def test_lambda_guard():
    require_lambda_regular(2.0, 1.5)  # fine
    with pytest.raises(LambdaGuardError):
        require_lambda_regular(1.5, 1.5)
    with pytest.raises(LambdaGuardError, match="within 1e-06 of the singular"):
        require_lambda_regular(1.5 + 5e-7, 1.5)
    # below the largest pivot and outside every window: no near miss
    with pytest.raises(LambdaGuardError) as caught:
        require_lambda_regular(1.2, 1.5)
    assert str(caught.value) == (
        "lambda = 1.2 is below the singular value 1.5; "
        "the closed form holds only above it"
    )
    with pytest.raises(LambdaGuardError):
        require_lambda_regular(1.0 + 5e-7, 1.0)
    # pivots above the requested minimum are not in play
    require_lambda_regular(1.2, 1.0)


def _lambda_guard_by_pivot_walk(lam: float, minimum: float) -> None:
    # the guard as a walk over the pivots, kept as the reference for the
    # single comparison that require_lambda_regular makes
    for pivot in (0.5, 1.0, 1.5):
        if pivot > minimum + LAMBDA_GUARD_TOL:
            break
        if lam <= pivot + LAMBDA_GUARD_TOL and lam >= pivot - LAMBDA_GUARD_TOL:
            raise LambdaGuardError(lam, pivot)
        if pivot == minimum and lam <= pivot:
            raise LambdaGuardError(lam, pivot)


def _guard_outcome(guard, lam, minimum):
    try:
        guard(lam, minimum)
    except LambdaGuardError as exc:
        return type(exc), exc.pivot, str(exc)
    return None


def test_lambda_guard_matches_the_pivot_walk():
    """One comparison names the same pivot, in the same words, as the walk."""
    tol = LAMBDA_GUARD_TOL
    lams = [math.nan, -math.inf, math.inf, 0.0, 0.500001, 1.000001]
    for pivot in (0.5, 1.0, 1.5):
        for edge in (pivot - tol, pivot, pivot + tol):
            lams += [edge, math.nextafter(edge, -math.inf),
                     math.nextafter(edge, math.inf)]
    lams += [k / 4096.0 for k in range(10 * 1024 + 1)]  # 0 .. 2.5
    raised = 0
    for minimum in (0.5, 1.0, 1.5):
        for lam in lams:
            got = _guard_outcome(require_lambda_regular, lam, minimum)
            want = _guard_outcome(_lambda_guard_by_pivot_walk, lam, minimum)
            assert got == want, (lam, minimum)
            raised += got is not None
    assert 0 < raised < 3 * len(lams)
    # |lam - pivot| <= tol would name 1.0 here: 0.500001 - 0.5 > 1e-6
    assert _guard_outcome(require_lambda_regular, 0.500001, 1.0)[1] == 0.5


def test_deformation_specialized_and_min_length():
    # minimal length hbar sqrt(3 beta + beta') = hbar sqrt(5 beta) at beta' = 2 beta
    beta = 4.0e43
    assert minimal_length(beta) == (
        HBAR * math.sqrt(3.0 * beta + 2.0 * beta) / ANGSTROM_TO_M)
    assert minimal_length(beta) == pytest.approx(
        HBAR * math.sqrt(5.0 * beta) / ANGSTROM_TO_M, rel=1e-15
    )
    assert minimal_length(0.0) == 0.0


@given(x=st.floats(min_value=1e-5, max_value=1.0))  # angstrom
def test_min_length_round_trip(x):
    assert minimal_length(beta_from_min_length(x)) == pytest.approx(
        x, rel=1e-12, abs=0.0
    )


def test_deformation_validation():
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            minimal_length(beta)
    with pytest.raises(ValueError, match="got -0.01 angstrom"):
        beta_from_min_length(-0.01)
    assert beta_from_min_length(0.0) == 0.0
    # non-finite lengths, and one whose beta overflows, are refused
    for x in (math.nan, math.inf, 1e160):
        with pytest.raises(ValueError, match="minimal length"):
            beta_from_min_length(x)
    # the largest lengths that fit keep the plain formula's bits
    assert beta_from_min_length(1e130) == (1e130 * ANGSTROM_TO_M / HBAR) ** 2 / 5.0


def test_overflowing_minimal_length_is_refused():
    # 3 beta + 2 beta overflows past beta ~3.6e307 although beta is finite
    for beta in (1e308, 3.6e307, 1.7976931348623157e308):
        with pytest.raises(ValueError, match="minimal length overflows"):
            minimal_length(beta)
    # finite sums keep the unfolded bits, up to the largest that fits
    for beta in (3.5e307, 1e-46, 0.0):
        assert minimal_length(beta) == (
            HBAR * math.sqrt(3.0 * beta + 2.0 * beta) / ANGSTROM_TO_M)
