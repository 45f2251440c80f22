import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypervirial
from kratzerml import oracle
from kratzerml.oracle import (
    NonIntegrableError,
    QuadratureResult,
    QuadratureSpec,
    ToleranceError,
    correction_via_expectations,
    expectation_inverse_power,
    radial_overlap,
)
from kratzerml.physmodel import (
    HBAR,
    KratzerCouplings,
    Molecule,
    QuantumNumbers,
    couplings_from_kratzer,
    gamma_of,
)
from kratzerml.spectrum import (
    correction_general,
    matrix_element_closed,
)
from kratzerml.wavefunctions import kummer_sum, make_radial_state, radial_wavefunction

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-13)
    # a non-finite tolerance would certify anything or fail only later
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(rel_tol=bad)
    # no error estimate below level 2; a runaway allocation above 12
    for bad in (1, 0, 13, 2.5):
        with pytest.raises(ValueError, match="max_level"):
            QuadratureSpec(max_level=bad)
    default = QuadratureSpec()
    assert default.rel_tol == 1e-10


def test_result_certification():
    spec = QuadratureSpec()
    assert QuadratureResult(1.0, 1e-11).within(spec)
    assert not QuadratureResult(1.0, 1e-9).within(spec)


def test_radial_overlap():
    gamma = gamma_of(H2)
    states = [
        make_radial_state(gamma, QuantumNumbers(n, 2), H2.re_m) for n in range(3)
    ]
    for i, state_a in enumerate(states):
        for state_b in states[i + 1:]:
            assert abs(radial_overlap(state_a, state_b).value) < 1e-7
    # p = 0 integrates the same product in the same order
    for state in states:
        assert radial_overlap(state, state).value == (
            expectation_inverse_power(0, state).value
        )


def test_moments_match_closed_forms():
    """Quadrature oracle vs closed forms vs the hypervirial moments, to 1e-8."""
    for gamma in (2.0, 5.0, 35.755):
        for n in (0, 2):
            for l in (0, 2):
                qn = QuantumNumbers(n, l)
                state = make_radial_state(gamma, qn, 1.0)
                scale = gamma * gamma  # s = gamma^2 / re with re = 1
                exact = hypervirial.inverse_power_moments(gamma, n, l, scale)
                for p in (1, 2, 3, 4):
                    closed = matrix_element_closed(p, qn, state.shape, scale)
                    a = expectation_inverse_power(p, state).value
                    h = exact[p - 1]
                    assert a == pytest.approx(closed, rel=1e-8)
                    assert h == pytest.approx(closed, rel=1e-8)
                    assert a == pytest.approx(h, rel=1e-8)


def test_moment_power_validation():
    state = make_radial_state(2.0, QuantumNumbers(0, 0), 1.0)
    with pytest.raises(ValueError):
        expectation_inverse_power(5, state)
    with pytest.raises(ValueError):
        expectation_inverse_power(-1, state)


def test_shallow_state_not_integrable():
    # 2 lam - 4 <= -1 for gamma = 0.5, l = 0: the r^-4 moment diverges
    state = make_radial_state(0.5, QuantumNumbers(0, 0), 1.0)
    with pytest.raises(NonIntegrableError):
        expectation_inverse_power(4, state)
    # so does the shift, whose (E0 - V)^2 weight goes like r^-4 for g1 != 0
    with pytest.raises(NonIntegrableError):
        correction_via_expectations(
            state, KratzerCouplings(g1=1.0, g2=1.0), 1.0, 1e-46
        )
    # the r^-3 moment is still fine there
    expectation_inverse_power(3, state)


def test_correction_matches_closed_form_across_beta():
    """Quadrature route to the shift vs the closed form, three decades."""
    c = couplings_from_kratzer(H2)
    mu = H2.mu_kg
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(2, 1)):
        state = make_radial_state(gamma_of(H2), qn, H2.re_m)
        for beta in (1e-50, 1e-46, 1e-42):
            closed = correction_general(c, mu, beta, qn)
            exact = hypervirial.shift(c.g1, c.g2, mu, beta, qn.n, qn.l)
            via_quad = correction_via_expectations(state, c, mu, beta)
            assert via_quad.value == pytest.approx(closed, rel=1e-8, abs=0.0)
            assert via_quad.value >= 0.0
            assert exact == pytest.approx(closed, rel=1e-8, abs=0.0)
            assert via_quad.value == pytest.approx(exact, rel=1e-8, abs=0.0)


def test_correction_holds_at_heavy_gamma():
    """One pointwise-squared integral keeps the shift accurate at gamma = 300.

    Assembling E0^2 - 2 E0 <V> + <V^2> from two moments cancels the
    O(gamma^2) terms: measured worst relative error 8.5e-8 on this grid,
    against 3.8e-11 for the single integral.
    """
    gamma, re = 300.0, 0.74e-10
    mu = 1.0e-27
    # g1 = hbar^2 gamma^2 / (2 mu), g2 = 2 g1 / re puts lam on gamma
    g1 = (HBAR * gamma) ** 2 / (2.0 * mu)
    c = KratzerCouplings(g1=g1, g2=2.0 * g1 / re)
    for n in range(5):
        for l in range(4):
            qn = QuantumNumbers(n, l)
            state = make_radial_state(gamma, qn, re)
            via_quad = correction_via_expectations(state, c, mu, 1e-46).value
            closed = correction_general(c, mu, 1e-46, qn)
            assert via_quad == pytest.approx(closed, rel=1e-9, abs=0.0)


def test_correction_exactly_linear_in_beta():
    c = couplings_from_kratzer(H2)
    state = make_radial_state(gamma_of(H2), QuantumNumbers(0, 0), H2.re_m)
    one = correction_via_expectations(state, c, H2.mu_kg, 1e-46).value
    two = correction_via_expectations(state, c, H2.mu_kg, 2e-46).value
    assert two == 2.0 * one


def test_correction_input_validation():
    c = couplings_from_kratzer(H2)
    state = make_radial_state(gamma_of(H2), QuantumNumbers(0, 0), H2.re_m)
    # NaN must fail the guard, not reach the integrator as a NaN weight
    for mu in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="reduced mass"):
            correction_via_expectations(state, c, mu, 1e-46)
    with pytest.raises(ValueError):
        correction_via_expectations(state, c, H2.mu_kg, -1e-46)


def test_error_estimates_are_honest():
    """Tightening rel_tol 100x moves the value by less than the old
    error estimate, for a singular moment and for the shallow gamma = 2,
    re = 1 m states whose estimates were the first to lie."""
    states = [make_radial_state(35.755, QuantumNumbers(2, 0), 1.0)] + [
        make_radial_state(2.0, QuantumNumbers(n, l), 1.0)
        for n in range(6) for l in range(6)
    ]
    ps = (1, 4) * len(states)
    row = [state for state in states for _ in range(2)]
    loose = expectation_inverse_power(ps, row, QuadratureSpec(rel_tol=1e-8))
    tight = expectation_inverse_power(ps, row, QuadratureSpec(rel_tol=1e-10))
    # an estimate of 0 means two levels agreed to the last bit
    for a, b in zip(loose, tight):
        assert abs(a.value - b.value) <= a.error_estimate


def test_certified_moments_are_within_rel_tol():
    """Every certified moment of this sweep is within rel_tol of its
    closed form.

    With the first convergence test at tanh-sinh level 2 (scipy's
    default) 5 of these 2,160 passed at rel_tol 1e-10 while off by up to
    1.1e-7, among them gamma = 2, re = 1 m, (n, l) = (1, 1), p = 4, whose
    estimate read 3.5e-11; from level 5 the worst is 1.6e-12.
    """
    spec = QuadratureSpec()
    worst = 0.0
    for gamma in (2.0, 5.0, 10.0, 35.755):
        for re in (1.0, 1e-10, 0.74e-10):
            states = [
                make_radial_state(gamma, QuantumNumbers(n, l), re)
                for n in range(6) for l in range(6)
            ]
            ps = (0, 1, 2, 3, 4) * len(states)
            row = [state for state in states for _ in range(5)]
            for p, state, result in zip(
                ps, row, expectation_inverse_power(ps, row, spec)
            ):
                closed = 1.0 if p == 0 else matrix_element_closed(
                    p, state.qn, state.shape, gamma * gamma / re
                )
                worst = max(worst, abs(result.value - closed) / closed)
    assert worst <= spec.rel_tol


@pytest.mark.parametrize(
    "gamma, re",
    [(85.0, 1.0), (100.0, 1.0), (700.0, 0.74e-10), (1000.0, 0.74e-10)],
    ids=["85.0", "100.0", "700.0", "1000.0"],
)
def test_heavy_states_match_closed_forms(gamma, re):
    """Heavy molecules: the state builds and its moments hold.

    Against the hypervirial moments the measured relative error of the
    ground state's <1/r^p>, p = 0..4, is at most 1.1e-13 at gamma <= 100
    and 5.7e-13 at gamma = 1000, where it exceeds tanh-sinh's own
    estimate, so the gate is a fixed 1e-12 rather than the error estimate.
    """
    state = make_radial_state(gamma, QuantumNumbers(0, 0), re)
    exact = [1.0] + hypervirial.inverse_power_moments(
        gamma, 0, 0, gamma * gamma / re
    )
    values = expectation_inverse_power(list(range(5)), state)
    for p, result in enumerate(values):
        assert result.value == pytest.approx(exact[p], rel=1e-12, abs=0.0), p


def test_starved_adaptive_rule_fails_loudly():
    """With the level cap starved, certification must raise, not lie,
    and name the integral that failed and why."""
    states = [
        make_radial_state(35.755, QuantumNumbers(n, 0), 1.0) for n in range(4)
    ]
    with pytest.raises(
        ToleranceError,
        match=r"<1/r\^4> at gamma = 35\.755, \(n, l\) = \(\d, 0\) did not "
        r"converge by tanh-sinh level 2 \(4 of 4 integrals failed\)",
    ):
        expectation_inverse_power(
            4, states, QuadratureSpec(max_level=2, rel_tol=1e-10)
        )


def test_missed_rel_tol_names_the_worst_integral():
    """A converged result whose estimate misses rel_tol is refused, and
    the error names the integral that misses it by the most.

    tanh-sinh stops only once its estimate meets rel_tol, so this branch
    is reached at a rounding edge at most; the results are built by hand.
    """
    state = make_radial_state(35.755, QuantumNumbers(5, 2), 1.0)
    spec = QuadratureSpec(rel_tol=1e-12)
    integrals = [
        oracle._Integral(state, state, p, f"<1/r^{p}>") for p in range(5)
    ]
    # relative estimates by p: p = 2 and p = 3 miss, p = 3 by the most
    estimates = (1e-13, 1e-14, 1.3e-12, 1.5e-12, 0.0)
    results = [(QuadratureResult(2.0, 2.0 * e), 0) for e in estimates]
    with pytest.raises(
        ToleranceError,
        match=r"<1/r\^3> at gamma = 35\.755, \(n, l\) = \(5, 2\) missed "
        r"rel_tol: error estimate 3\.000e-12 exceeds 1\.000e-12 \* \|value\| "
        r"\(2 of 5 integrals failed\)",
    ):
        oracle._certified(integrals, results, spec)


def _quantities(gamma: float, n: int, l: int, batched: bool) -> list[float]:
    """<1/r^p> for p = 0..4, the shift and one overlap, in that order.

    batched=True integrates each kind in one call together with the
    integrals of a (5, 2) state, as verify does; batched=False alone.
    """
    re, mu = 0.74e-10, 1.0e-27
    g1 = (HBAR * gamma) ** 2 / (2.0 * mu)
    c = KratzerCouplings(g1=g1, g2=2.0 * g1 / re)
    state = make_radial_state(gamma, QuantumNumbers(n, l), re)
    other = make_radial_state(gamma, QuantumNumbers(5, 2), re)
    above = make_radial_state(gamma, QuantumNumbers(n + 1, l), re)
    if not batched:
        out = [expectation_inverse_power(p, state) for p in range(5)]
        out.append(correction_via_expectations(state, c, mu, 1e-46))
        out.append(radial_overlap(state, above))
        return [result.value for result in out]
    out = expectation_inverse_power(
        list(range(5)) * 2, [state] * 5 + [other] * 5
    )[:5]
    out.append(correction_via_expectations([other, state], c, mu, 1e-46)[1])
    out.append(radial_overlap([other, state], [state, above])[1])
    return [result.value for result in out]


@pytest.mark.parametrize("gamma", [2.0, 35.755])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("l", [0, 3])
def test_batch_keeps_every_value(gamma, n, l):
    """An integral in a batch gives bitwise its value alone: the rows of
    one tanh-sinh call do not see each other."""
    assert _quantities(gamma, n, l, True) == _quantities(gamma, n, l, False)


def test_batches_pair_their_arguments():
    states = [make_radial_state(5.0, QuantumNumbers(n, 1), 1.0) for n in range(3)]
    single = expectation_inverse_power(2, states[0])
    assert isinstance(single, QuadratureResult)
    assert expectation_inverse_power([2], states[0]) == [single]
    assert expectation_inverse_power(2, states) == [
        expectation_inverse_power(2, s) for s in states
    ]
    assert expectation_inverse_power((0, 1, 2), states) == [
        expectation_inverse_power(p, s) for p, s in zip((0, 1, 2), states)
    ]
    assert radial_overlap(states[0], states[1:]) == [
        radial_overlap(states[0], s) for s in states[1:]
    ]
    with pytest.raises(ValueError, match="cannot pair 2 items with 3"):
        expectation_inverse_power((1, 2), states)
    # a one-element sequence is a sequence, not a single item
    with pytest.raises(ValueError, match="cannot pair 1 items with 3"):
        expectation_inverse_power([2], states)
    with pytest.raises(ValueError, match="cannot pair 2 items with 1"):
        radial_overlap(states[:2], states[:1])
    for empty in ((2, []), ([], states[0]), ([], [])):
        with pytest.raises(ValueError, match="empty"):
            expectation_inverse_power(*empty)
    with pytest.raises(ValueError, match="empty"):
        radial_overlap(states[0], ())
    with pytest.raises(ValueError, match="p must be an integer"):
        expectation_inverse_power((1, 5, 2), states)


def test_divergence_order_follows_from_p_and_gap():
    state = make_radial_state(5.0, QuantumNumbers(0, 1), 1.0)
    orders = [
        oracle._Integral(state, state, p, "test", gap).power
        for p, gap in (
            (3, (1.0, 0.0, 0.0)),
            (0, (-1.0, 2.0, -3.0)),
            (0, (-1.0, 0.0, -3.0)),
            (0, (-1.0, 2.0, 0.0)),
            (0, (-1.0, 0.0, 0.0)),
        )
    ]
    assert orders == [3, 4, 4, 2, 0]


_EPS = 2.0**-52


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(0.1, 1000.0),
    n=st.integers(0, 20),
    l=st.integers(0, 10),
    re=st.sampled_from([1.0, 1e-10, 0.74e-10]),
    fractions=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=16),
)
def test_array_density_matches_scalar_wavefunction(gamma, n, l, re, fractions):
    """The batched integrand of <1/r^0> is R(r)^2 r^2 of the scalar
    radial_wavefunction, to 4 (n + 1 + Lambda) ulps of rho_abs.

    rho_abs is R^2 r^2 with the Kummer sum's terms added in absolute
    value.  Both sides sum M with kummer_sum, but the scalar's argument
    passes through r = x re and back, which can move z by an ulp, and
    near a zero of M that moves M by up to (n + 1) ulps of that sum.
    Lambda is the sum of the magnitudes of the terms in the exponent of
    R, each rounded once on either side.  Measured over 80,000 points:
    at most 1.64 of the allowed 4 units.  r covers the state's support,
    z = 2 alpha r/re up to 4 (lam + n) + 40.
    """
    state = make_radial_state(gamma, QuantumNumbers(n, l), re)
    lam, two_alpha = state.shape.lam, 2.0 * state.shape.alpha
    z_max = 4.0 * (lam + n) + 40.0
    x = np.array(fractions) * z_max / two_alpha
    density = oracle._Density([oracle._Integral(state, state, 0, "norm")])
    with np.errstate(all="ignore"):
        got = (density(x[None, :], np.array([0]))[0] / re).tolist()
    for xi, value in zip(x.tolist(), got):
        r = xi * re
        amplitude = radial_wavefunction(state, r)
        expected = amplitude * amplitude * r * r
        z = two_alpha * xi
        term = size = 1.0
        for k in range(n):
            term *= (k - n) * z / ((2.0 * lam + k) * (k + 1.0))
            size += abs(term)
        poly = kummer_sum(n, 2.0 * lam, z)
        rho_abs = expected * (size / poly) ** 2 if poly else math.inf
        lam_sum = (
            abs(state.log_norm) + abs((lam - 1.0) * math.log(xi))
            + abs(state.shape.alpha * xi) + abs(math.log(size))
            + abs(math.log(r))
        )
        # below ~1e-300 the scalar's R^2 r^2 is subnormal
        bound = 4.0 * (n + 1 + lam_sum) * _EPS * rho_abs + 1e-300
        assert abs(value - expected) <= bound, (xi, value, expected)
