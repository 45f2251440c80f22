import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

import hypervirial
from kratzerml import oracle
from kratzerml.oracle import (
    NonIntegrableError,
    QuadratureResult,
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
from kratzerml.wavefunctions import kummer_sum, make_radial_state
from references import radial_wavefunction

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)


def test_result_certification():
    """A converged result is certified, and one that reached the level cap
    without converging is refused."""
    state = make_radial_state(35.755, QuantumNumbers(0, 0), 1.0)
    integral = oracle._Integral(state, state, 0, "<1/r^0>")
    good = QuadratureResult(1.0, 1e-11)
    assert oracle._certified([integral], [(good, 0)]) == [good]
    with pytest.raises(ToleranceError, match="did not converge by tanh-sinh"):
        oracle._certified([integral], [(QuadratureResult(1.0, 1e-9), -2)])


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


def test_error_estimates_are_honest(monkeypatch):
    """Tightening _REL_TOL 100x moves the value by less than the old
    error estimate, for a singular moment and for the shallow gamma = 2,
    re = 1 m states whose estimates were the first to lie."""
    states = [make_radial_state(35.755, QuantumNumbers(2, 0), 1.0)] + [
        make_radial_state(2.0, QuantumNumbers(n, l), 1.0)
        for n in range(6) for l in range(6)
    ]
    ps = (1, 4) * len(states)
    row = [state for state in states for _ in range(2)]
    monkeypatch.setattr(oracle, "_REL_TOL", 1e-8)
    loose = expectation_inverse_power(ps, row)
    monkeypatch.setattr(oracle, "_REL_TOL", 1e-10)
    tight = expectation_inverse_power(ps, row)
    # an estimate of 0 means two levels agreed to the last bit
    for a, b in zip(loose, tight):
        assert abs(a.value - b.value) <= a.error_estimate


def test_certified_moments_are_within_rel_tol():
    """Every certified moment of this sweep is within _REL_TOL of its
    closed form.

    With scipy.integrate.tanhsinh's error estimate and its first
    convergence test at level 2 (scipy's default) 5 of these 2,160 passed
    at rel_tol 1e-10 while off by up to 1.1e-7, among them gamma = 2,
    re = 1 m, (n, l) = (1, 1), p = 4, whose estimate read 3.5e-11; from
    level 5 the worst was 1.6e-12.  With the package's estimate
    |S_k - S_(k-1)| the worst is 2.4e-12 from any first level 2..5.
    """
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
                ps, row, expectation_inverse_power(ps, row)
            ):
                closed = 1.0 if p == 0 else matrix_element_closed(
                    p, state.qn, state.shape, gamma * gamma / re
                )
                worst = max(worst, abs(result.value - closed) / closed)
    assert worst <= oracle._REL_TOL


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


def test_starved_adaptive_rule_fails_loudly(monkeypatch):
    """With the level cap starved, certification must raise, not lie,
    and name the integral that failed and why."""
    monkeypatch.setattr(oracle, "_MAX_LEVEL", 2)
    states = [
        make_radial_state(35.755, QuantumNumbers(n, 0), 1.0) for n in range(4)
    ]
    with pytest.raises(
        ToleranceError,
        match=r"<1/r\^4> at gamma = 35\.755, \(n, l\) = \(\d, 0\) did not "
        r"converge by tanh-sinh level 2 \(4 of 4 integrals failed\)",
    ):
        expectation_inverse_power(4, states)


def test_missed_rel_tol_names_the_worst_integral(monkeypatch):
    """Results that still miss rel_tol at the level cap are refused, and
    the error names the integral that misses it by the most; the results
    are built by hand."""
    state = make_radial_state(35.755, QuantumNumbers(5, 2), 1.0)
    monkeypatch.setattr(oracle, "_REL_TOL", 1e-12)
    integrals = [
        oracle._Integral(state, state, p, f"<1/r^{p}>") for p in range(5)
    ]
    # relative estimates by p: p = 2 and p = 3 miss, p = 3 by the most
    estimates = (1e-13, 1e-14, 1.3e-12, 1.5e-12, 0.0)
    results = [
        (QuadratureResult(2.0, 2.0 * e), 0 if e < 1e-12 else -2)
        for e in estimates
    ]
    with pytest.raises(
        ToleranceError,
        match=r"<1/r\^3> at gamma = 35\.755, \(n, l\) = \(5, 2\) did not "
        rf"converge by tanh-sinh level {oracle._MAX_LEVEL} "
        r"\(2 of 5 integrals failed\)",
    ):
        oracle._certified(integrals, results)


def test_a_nan_estimate_is_named_ahead_of_an_infinite_excess():
    """A NaN ranks worst among failed integrals, above a zero value's
    infinite excess, whichever comes first."""
    state = make_radial_state(35.755, QuantumNumbers(1, 0), 1.0)
    integrals = [oracle._Integral(state, state, p, f"<1/r^{p}>") for p in (1, 2)]
    results = [(QuadratureResult(0.0, 1e-3), -2),
               (QuadratureResult(2.0, math.nan), -3)]
    with pytest.raises(
        ToleranceError,
        match=r"<1/r\^2> at gamma = 35\.755, \(n, l\) = \(1, 0\) did not "
        r"converge: the estimate is not finite \(2 of 2 integrals failed\)",
    ):
        oracle._certified(integrals, results)


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
    got = (density.integrand(x, np.ones_like(x), np.array([0]))[0] / re).tolist()
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


def _scipy_tanh_sinh(integrals, atol=0.0):
    """The same integrals by scipy.integrate.tanhsinh: (value, estimate,
    status) each, with the oracle's first level, rel_tol and level cap."""
    density = oracle._Density(integrals)

    def f(u, rows):
        # scipy calls f with one abscissa per row, then with a row of
        # abscissae per row: each row is evaluated on its own abscissae
        flat = u.ndim == 1
        if flat:
            u = u[:, None]
        else:
            rows = rows[:, 0]
        out = np.vstack([
            density.integrand(u[i], 1.0 - u[i], rows[i:i + 1])
            for i in range(len(rows))
        ])
        return out[:, 0] if flat else out

    res = scipy.integrate.tanhsinh(
        f, 0.0, 1.0, args=(np.arange(len(integrals)),),
        minlevel=oracle._MIN_LEVEL, maxlevel=oracle._MAX_LEVEL,
        rtol=oracle._REL_TOL, atol=atol,
    )
    return list(zip(res.integral.tolist(), np.abs(res.error).tolist(),
                    res.status.tolist()))


def _agree_with_scipy(integrals, atol=0.0):
    """Both rules' values agree within the sum of their two estimates and
    the rounding of their sums, which weigh the same terms in different
    orders and at nodes whose 1 - u differs in its last bits: 64 ulps of
    the integral of |f| (measured: at most 32), |value| for a moment and
    at most 1 for an overlap by Cauchy-Schwarz."""
    # one block per level: levels 0..5 hold 513 nodes
    assert len(integrals) * 513 <= oracle._CELLS
    ours = oracle._tanh_sinh(integrals, atol)
    theirs = _scipy_tanh_sinh(integrals, atol)
    for it, (result, status), (value, estimate, code) in zip(
        integrals, ours, theirs
    ):
        assert (status, code) == (0, 0), it
        scale = abs(value) if it.a is it.b else 1.0
        roundoff = 64 * _EPS * scale
        assert abs(result.value - value) <= (
            result.error_estimate + estimate + roundoff), it


def test_moments_agree_with_scipy_tanhsinh():
    """The package's tanh-sinh rule and scipy's agree on one batch of
    moments."""
    states = [
        make_radial_state(gamma, QuantumNumbers(n, l), 1.0)
        for gamma in (2.0, 35.755) for n, l in ((0, 0), (3, 2))
    ]
    _agree_with_scipy([
        oracle._Integral(state, state, p, f"<1/r^{p}>")
        for state in states for p in range(5)
    ])


def test_overlaps_agree_with_scipy_tanhsinh():
    """As above on one batch of overlaps with the overlap's absolute stop:
    the pairs of each gamma's l = 1 states, orthogonal ones (whose values
    are roundoff) and the diagonal."""
    pairs = []
    for gamma in (2.0, 35.755):
        states = [make_radial_state(gamma, QuantumNumbers(n, 1), 1.0)
                  for n in range(4)]
        pairs += [(a, b) for i, a in enumerate(states) for b in states[i:]]
    _agree_with_scipy(
        [oracle._Integral(a, b, 0, "overlap") for a, b in pairs],
        atol=oracle._OVERLAP_ATOL,
    )


#: the highest level _MAX_LEVEL may be raised to: _CELLS bounds each
#: evaluation's memory at any level, but each level doubles the time of
#: the integrals still open, and level 12 alone adds 65,536 nodes
_TOP_LEVEL = 12


def test_cached_nodes_keep_their_complements():
    """On every level up to _TOP_LEVEL, which bounds _MAX_LEVEL, u + (1 - u)
    rounds to 1, 1 - u is positive on every node with a nonzero weight,
    and levels 0..k hold 2^(k+4) + 1 nodes."""
    assert 2 <= oracle._MAX_LEVEL <= _TOP_LEVEL
    total = 0
    for k in range(_TOP_LEVEL + 1):
        u, v, w = oracle._level(k)
        assert oracle._level(k) is oracle._level(k)
        total += len(u)
        assert len(v) == len(w) == len(u)
        assert total == 2 ** (k + 4) + 1
        assert np.all(u + v == 1.0), k
        assert np.all(v[w != 0.0] > 0.0), k
        assert np.all((u > 0.0) & (u <= 1.0) & (w >= 0.0)), k


@st.composite
def _chunks(draw):
    """One tanh-sinh batch of 1..24 moments, gapped moments and overlaps,
    each at its own gamma in [2, 3000], re in [1e-11, 1] m and n, l <= 20."""
    integrals = []
    for _ in range(draw(st.integers(1, 24))):
        gamma = draw(st.floats(2.0, 3000.0))
        re = 10.0 ** draw(st.floats(-11.0, 0.0))
        l = draw(st.integers(0, 20))
        a = make_radial_state(gamma, QuantumNumbers(draw(st.integers(0, 20)), l), re)
        kind = draw(st.sampled_from(["moment", "gapped", "overlap"]))
        if kind == "overlap":
            n = draw(st.integers(0, 20))
            b = make_radial_state(gamma, QuantumNumbers(n, l), re)
            integrals.append(oracle._Integral(a, b, 0, "overlap"))
        elif kind == "gapped":
            c0, c1, c2 = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
            gap = (c0, c1 * re, c2 * re * re)
            integrals.append(oracle._Integral(a, a, 0, "gapped", gap))
        else:
            integrals.append(oracle._Integral(a, a, draw(st.integers(0, 4)), "p"))
    return integrals


def _bits(results):
    return [(result.value.hex(), result.error_estimate.hex(), status)
            for result, status in results]


@settings(max_examples=60, deadline=None)
@given(
    integrals=_chunks(),
    max_level=st.integers(5, 10),
    atol=st.sampled_from([0.0, oracle._OVERLAP_ATOL]),
)
def test_window_skips_only_nodes_that_are_zero(integrals, max_level, atol):
    """Outside each row's window the integrand is exactly 0 on every
    node of levels 0..10, and tanh-sinh gives the bits of every value,
    estimate and status it gives with the window widened to [0, inf]."""
    density = oracle._Density(integrals)
    u, v, _ = (np.concatenate(parts)
               for parts in zip(*map(oracle._level, range(11))))
    x = u / v
    values = density.integrand(u, v, np.arange(len(integrals)))
    for i, row in enumerate(values):
        outside = (x < density.x_lo[i, 0]) | (x > density.x_hi[i, 0])
        assert np.all(row[outside] == 0.0), integrals[i]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_MAX_LEVEL", max_level)
        windowed = oracle._tanh_sinh(integrals, atol)
        mp.setattr(oracle, "_LOG_UNDERFLOW", -math.inf)
        everywhere = oracle._tanh_sinh(integrals, atol)
    assert _bits(windowed) == _bits(everywhere)


def test_window_skips_most_nodes_of_verify(monkeypatch):
    """verify's paper grid evaluates its integrands on fewer than half the
    nodes of the levels it reaches (about 43 %)."""
    from kratzerml.verify import run_checks

    evaluated = []
    original = oracle._Density.integrand

    def counted(self, u, v, rows):
        evaluated.append(len(rows) * len(u))
        return original(self, u, v, rows)

    monkeypatch.setattr(oracle._Density, "integrand", counted)
    run_checks("paper")
    inside = sum(evaluated)
    evaluated.clear()
    monkeypatch.setattr(oracle, "_LOG_UNDERFLOW", -math.inf)
    run_checks("paper")
    assert 0 < inside < 0.5 * sum(evaluated)


@st.composite
def _shared_chunks(draw):
    """One tanh-sinh batch of 1..24 rows over a pool of one to six states
    at one re, each drawn into several rows: moments, gapped moments and
    overlaps, or only the density kinds, whose batches share ln M^2 too."""
    re = 10.0 ** draw(st.floats(-11.0, 0.0))
    pool = [
        make_radial_state(draw(st.floats(2.0, 3000.0)), QuantumNumbers(
            draw(st.integers(0, 20)), draw(st.integers(0, 20))), re)
        for _ in range(draw(st.integers(1, 6)))
    ]
    kinds = draw(st.sampled_from([("moment", "gapped", "overlap"),
                                  ("moment", "gapped"), ("overlap",)]))
    integrals = []
    for _ in range(draw(st.integers(1, 24))):
        a = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(kinds))
        if kind == "overlap":
            b = draw(st.sampled_from(pool))
            integrals.append(oracle._Integral(a, b, 0, "overlap"))
        elif kind == "gapped":
            c0, c1, c2 = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
            gap = (c0, c1 * re, c2 * re * re)
            integrals.append(oracle._Integral(a, a, 0, "gapped", gap))
        else:
            integrals.append(oracle._Integral(a, a, draw(st.integers(0, 4)), "p"))
    return integrals


def _copied(integrals):
    """The batch with each row's states replaced by equal copies that no
    other row shares; a row whose a is b keeps one copy for both."""
    rows = []
    for it in integrals:
        a = it.a._replace()
        rows.append(it._replace(a=a, b=a if it.b is it.a else it.b._replace()))
    return rows


@settings(max_examples=60, deadline=None)
@given(
    integrals=_shared_chunks(),
    max_level=st.integers(5, 10),
    atol=st.sampled_from([0.0, oracle._OVERLAP_ATOL]),
)
def test_shared_states_keep_every_bit(integrals, max_level, atol):
    """A batch whose rows share states, each evaluated once per call, gives
    the bits of every value, estimate and status of the same batch built
    from distinct copies; and its integrand on one row of nodes for every
    integral is, bit for bit, its integrand for each integral alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_MAX_LEVEL", max_level)
        shared = oracle._tanh_sinh(integrals, atol)
        copied = oracle._tanh_sinh(_copied(integrals), atol)
    assert _bits(shared) == _bits(copied)
    density = oracle._Density(integrals)
    rows = np.arange(len(integrals))
    u, v, _ = oracle._level(3)
    with np.errstate(all="ignore"):
        on_all = density.integrand(u, v, rows)
        on_each = np.vstack([density.integrand(u, v, rows[i:i + 1])
                             for i in range(len(rows))])
    assert on_all.tobytes() == on_each.tobytes()


def test_kummer_sums_each_state_once_per_call(monkeypatch):
    """On verify's paper grid each integrand call makes one kummer_sum
    call, on at most one row per distinct state of its batch."""
    from kratzerml.verify import run_checks

    states, calls, summed = [], [], []
    init, integrand = oracle._Density.__init__, oracle._Density.integrand

    def counted_init(self, integrals):
        states.append(len({id(s) for it in integrals for s in (it.a, it.b)}))
        init(self, integrals)

    def counted_integrand(self, u, v, rows):
        calls.append(states[-1])
        return integrand(self, u, v, rows)

    def counted_sum(n, b, z):
        summed.append((states[-1], len(z)))
        return kummer_sum(n, b, z)

    monkeypatch.setattr(oracle._Density, "__init__", counted_init)
    monkeypatch.setattr(oracle._Density, "integrand", counted_integrand)
    monkeypatch.setattr(oracle, "kummer_sum", counted_sum)
    run_checks("paper")
    assert len(summed) == len(calls) > 0
    assert all(rows <= distinct for distinct, rows in summed)


@settings(max_examples=60, deadline=None)
@given(
    integrals=st.one_of(_chunks(), _shared_chunks()),
    cells=st.integers(2, 24 * 513),
    max_level=st.integers(5, 10),
    atol=st.sampled_from([0.0, oracle._OVERLAP_ATOL]),
)
def test_bits_do_not_depend_on_the_cell_budget(integrals, cells, max_level,
                                                atol):
    """tanh-sinh gives the bits of every value, estimate and status
    whichever rows share a block: at the default _CELLS, at one row per
    block on every level (_CELLS = 1) and at a drawn budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_MAX_LEVEL", max_level)
        default = oracle._tanh_sinh(integrals, atol)
        mp.setattr(oracle, "_CELLS", 1)
        alone = oracle._tanh_sinh(integrals, atol)
        mp.setattr(oracle, "_CELLS", cells)
        drawn = oracle._tanh_sinh(integrals, atol)
    assert _bits(default) == _bits(alone) == _bits(drawn)


def test_each_evaluation_holds_at_most_the_cell_budget(monkeypatch):
    """No block of rows x level nodes exceeds _CELLS (or one row, where a
    level alone is wider): on verify's paper grid, and on 24 integrals
    that stay open up to level 10, whose 24 x 8,192 cells there split."""
    from kratzerml.verify import run_checks

    blocks = []
    weighted = oracle._weighted

    def spied(density, rows, u, v, w):
        blocks.append((len(rows), len(u)))
        return weighted(density, rows, u, v, w)

    monkeypatch.setattr(oracle, "_weighted", spied)
    run_checks("paper")
    state = make_radial_state(300.0, QuantumNumbers(20, 20), 1e-10)
    with pytest.raises(ToleranceError, match=r"level 10 \(24 of 24"):
        expectation_inverse_power(3, [state] * 24)
    assert max(nodes for _, nodes in blocks) == 8192  # level 10 reached
    assert all(rows * nodes <= max(oracle._CELLS, nodes)
               for rows, nodes in blocks)
