import math
import weakref

import pytest

from kratzerml import oracle, verify
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
from kratzerml.verify import run_checks
from kratzerml.wavefunctions import make_radial_state

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)

GL = QuadratureSpec(scheme="gauss-laguerre")


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="monte-carlo")
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    # a non-finite tolerance would certify anything or fail only later
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(abs_tol=bad)
    for bad in (1, 0):
        with pytest.raises(ValueError, match="subdivisions"):
            QuadratureSpec(subdivisions=bad)
    default = QuadratureSpec()
    assert default.scheme == "adaptive"
    assert default.rel_tol == 1e-10


def test_result_certification():
    spec = QuadratureSpec()
    assert QuadratureResult(1.0, 1e-11, "adaptive").within(spec)
    assert not QuadratureResult(1.0, 1e-9, "adaptive").within(spec)


def test_norm_integral_both_schemes():
    state = make_radial_state(5.0, QuantumNumbers(2, 1), 1.0)
    for spec in (QuadratureSpec(), GL):
        out = expectation_inverse_power(0, state, spec)
        assert out.value == pytest.approx(1.0, abs=1e-10)
        assert out.scheme == spec.scheme


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
    """Quadrature oracle vs closed forms, both backends, to 1e-8."""
    for gamma in (2.0, 5.0, 35.755):
        for n in (0, 2):
            for l in (0, 2):
                qn = QuantumNumbers(n, l)
                state = make_radial_state(gamma, qn, 1.0)
                scale = gamma * gamma  # s = gamma^2 / re with re = 1
                for p in (1, 2, 3, 4):
                    closed = matrix_element_closed(p, qn, state.shape, scale)
                    a = expectation_inverse_power(p, state).value
                    g = expectation_inverse_power(p, state, GL).value
                    assert a == pytest.approx(closed, rel=1e-8)
                    assert g == pytest.approx(closed, rel=1e-8)
                    assert a == pytest.approx(g, rel=1e-8)


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
            for spec in (QuadratureSpec(), GL):
                via_quad = correction_via_expectations(state, c, mu, beta, spec)
                assert via_quad.value == pytest.approx(closed, rel=1e-8, abs=0.0)
                assert via_quad.value >= 0.0


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
    with pytest.raises(ValueError):
        correction_via_expectations(state, c, -1.0, 1e-46)
    with pytest.raises(ValueError):
        correction_via_expectations(state, c, H2.mu_kg, -1e-46)


def test_error_estimates_are_honest():
    """Tightening rel_tol 100x moves the value by less than the old
    error estimate, for both backends and a singular moment."""
    state = make_radial_state(35.755, QuantumNumbers(2, 0), 1.0)
    for p in (1, 4):
        loose = expectation_inverse_power(
            p, state, QuadratureSpec(rel_tol=1e-8)
        )
        tight = expectation_inverse_power(
            p, state, QuadratureSpec(rel_tol=1e-10)
        )
        assert abs(loose.value - tight.value) < loose.error_estimate


def test_gl_rule_size_floor():
    state = make_radial_state(5.0, QuantumNumbers(5, 0), 1.0)
    with pytest.raises(ValueError):
        expectation_inverse_power(0, state, QuadratureSpec(
            scheme="gauss-laguerre", nodes=3
        ))


def test_gl_overflow_names_the_cause():
    """Heavy states overflow the rule; say so, not blame the error bar."""
    # gamma = 100: the weights themselves are inf; gamma = 85, p = 4: the
    # weights are finite but their products with the density overflow
    for gamma, p in ((100.0, 0), (85.0, 4)):
        state = make_radial_state(gamma, QuantumNumbers(0, 0), 1.0)
        with pytest.raises(ValueError, match=f"overflow.*2 lam - {p} .*adaptive"):
            expectation_inverse_power(p, state, GL)
        closed = 1.0 if p == 0 else matrix_element_closed(
            p, state.qn, state.shape, gamma * gamma
        )
        assert expectation_inverse_power(p, state).value == pytest.approx(
            closed, rel=1e-10
        )


@pytest.mark.parametrize("gamma", [700.0, 1000.0])
def test_heavy_states_match_closed_forms(gamma):
    """Heavy molecules: the state builds and the adaptive moments hold.

    The measured relative error is at most 4.2e-13 (p = 1, 2 at
    gamma = 1000), above quad's own estimate of 2.1e-13 there, so the
    gate is a fixed 1e-12 rather than the error estimate.
    """
    re = 0.74e-10
    state = make_radial_state(gamma, QuantumNumbers(0, 0), re)
    for p in (0, 1, 2):
        closed = 1.0 if p == 0 else matrix_element_closed(
            p, state.qn, state.shape, gamma * gamma / re
        )
        value = expectation_inverse_power(p, state).value
        assert value == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_starved_adaptive_rule_fails_loudly():
    """With subdivision starved out, certification must raise, not lie."""
    state = make_radial_state(35.755, QuantumNumbers(3, 0), 1.0)
    with pytest.raises(ToleranceError):
        expectation_inverse_power(
            4, state, QuadratureSpec(subdivisions=2, rel_tol=1e-10)
        )


def _memo_quantities(gamma: float, n: int, l: int, fresh: bool) -> list[float]:
    """<1/r^p> for p = 0..4, the shift and one overlap, in that order.

    fresh=False runs them all on one state, so every call after the
    first reads a warm amplitude table; fresh=True builds an equal state
    for each, which starts with an empty table of its own.
    """
    re, mu = 0.74e-10, 1.0e-27
    g1 = (HBAR * gamma) ** 2 / (2.0 * mu)
    c = KratzerCouplings(g1=g1, g2=2.0 * g1 / re)
    runs = [lambda s, p=p: expectation_inverse_power(p, s).value for p in range(5)]
    runs.append(lambda s: correction_via_expectations(s, c, mu, 1e-46).value)
    runs.append(lambda s: radial_overlap(
        s, make_radial_state(gamma, QuantumNumbers(n + 1, l), re)
    ).value)
    state = make_radial_state(gamma, QuantumNumbers(n, l), re)
    out = []
    for run in runs:
        if fresh:
            state = make_radial_state(gamma, QuantumNumbers(n, l), re)
            assert not state.amplitudes
        out.append(run(state))
    return out


@pytest.mark.parametrize("gamma", [2.0, 35.755])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("l", [0, 3])
def test_amplitude_table_keeps_every_value(gamma, n, l):
    """Warm and cold amplitude tables give bitwise the same integrals."""
    warm = _memo_quantities(gamma, n, l, fresh=False)
    cold = _memo_quantities(gamma, n, l, fresh=True)
    assert warm == cold


def _count_amplitudes(monkeypatch) -> list[int]:
    calls = [0]
    real = oracle.radial_wavefunction

    def counted(state, r):
        calls[0] += 1
        return real(state, r)

    monkeypatch.setattr(oracle, "radial_wavefunction", counted)
    return calls


def test_amplitude_table_shares_values_across_weights(monkeypatch):
    """p = 1..4 on one state evaluate R far fewer than 4x as often as p = 1.

    The counter is patched in after the state's table is built and must
    still see the misses of p = 2..4: the table looks the module global
    up at call time, which is what lets a tracer wrap it.
    """
    qn = QuantumNumbers(2, 1)
    state = make_radial_state(35.755, qn, 1.0)
    expectation_inverse_power(1, state)
    calls = _count_amplitudes(monkeypatch)
    for p in (2, 3, 4):
        expectation_inverse_power(p, state)
    misses = calls[0]
    del state
    calls[0] = 0
    expectation_inverse_power(1, make_radial_state(35.755, qn, 1.0))
    alone = calls[0]
    assert 0 < misses and alone + misses < 4 * alone


def test_no_amplitude_table_outlives_its_state(monkeypatch):
    """A second verify run recomputes every value: no cross-run cache.

    Every state a run builds starts with an empty table and is gone, with
    its table, once the run returns.
    """
    calls = _count_amplitudes(monkeypatch)
    real = verify.make_radial_state
    built = []

    def tracked(*args):
        state = real(*args)
        assert not state.amplitudes
        built.append(weakref.ref(state))
        return state

    monkeypatch.setattr(verify, "make_radial_state", tracked)
    counts = []
    for _ in range(2):
        calls[0] = 0
        built.clear()
        run_checks("small")
        counts.append(calls[0])
        assert built and all(ref() is None for ref in built)
    assert counts[0] == counts[1] > 0
