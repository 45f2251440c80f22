import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from kratzerml.momentum import (
    MomentumProblem,
    NonQuantizedError,
    momentum_wavefunction_undeformed,
)
from kratzerml.physmodel import QuantumNumbers
from kratzerml.wavefunctions import kummer_sum, make_radial_state
from references import radial_wavefunction


def test_kummer_frozen_value():
    """M(-3, 5.123; 2.7), cross-checked against 50-digit arithmetic."""
    assert kummer_sum(3, 5.123, 2.7) == pytest.approx(
        0.0280069946313017779566217, abs=1e-13
    )


def test_kummer_low_degrees():
    assert kummer_sum(0, 3.7, 11.0) == 1.0
    for b, z in ((2.0, 0.5), (7.3, -4.0), (1.5, 9.0)):
        assert kummer_sum(1, b, z) == pytest.approx(1.0 - z / b, rel=1e-15)


def _kummer_term_scale(n, b, z):
    # sum of |term| along the ratio recurrence: the roundoff floor of M
    t, s = 1.0, 1.0
    for k in range(n):
        t *= (k - n) * z / ((b + k) * (k + 1.0))
        s += abs(t)
    return s


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    b=st.floats(min_value=0.5, max_value=30.0),
    z=st.floats(min_value=-20.0, max_value=20.0),
)
def test_kummer_contiguous_relation(n, b, z):
    """(b+n) M(-n-1) + (z-b-2n) M(-n) + n M(-n+1) = 0 for M(., b; z)."""
    t1 = (b + n) * kummer_sum(n + 1, b, z)
    t2 = (z - b - 2.0 * n) * kummer_sum(n, b, z)
    t3 = n * kummer_sum(n - 1, b, z)
    # near polynomial zeros |t1|+|t2|+|t3| collapses while the roundoff of
    # each M stays proportional to its internal term sum, so scale by that
    scale = (
        (b + n) * _kummer_term_scale(n + 1, b, z)
        + abs(z - b - 2.0 * n) * _kummer_term_scale(n, b, z)
        + n * _kummer_term_scale(n - 1, b, z)
    )
    assert abs(t1 + t2 + t3) <= 1e-12 * scale


def _forward_recurrence(n, b, z):
    # M(-n, b; z) as the textbook ratio recurrence, summed exactly
    terms = []
    t = 1.0
    for k in range(n):
        terms.append(t)
        t *= (k - n) * z / ((b + k) * (k + 1.0))
    terms.append(t)
    return math.fsum(terms)


_EPS = 2.0**-52


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=20),
    b=st.floats(min_value=1.0, max_value=4000.0),
    z=st.floats(min_value=0.0, max_value=1e4),
)
def test_kummer_sum_is_the_recurrence_summed_in_order(n, b, z):
    """Summed in order, the recurrence's terms stay within (n + 1) ulps of
    their sum of magnitudes from the exactly summed recurrence."""
    bound = (n + 1) * _EPS * _kummer_term_scale(n, b, z)
    assert abs(kummer_sum(n, b, z) - _forward_recurrence(n, b, z)) <= bound


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=20),
    b=st.floats(min_value=1.0, max_value=4000.0),
    z=st.floats(min_value=0.0, max_value=1e4),
    peak=st.none() | st.floats(min_value=0.8, max_value=1.2),
)
def test_kummer_sum_matches_high_precision(n, b, z, peak):
    """M(-n, b; z) against 50-digit mpmath.hyp1f1, with z uniform on
    [0, 1e4] or near the states' peak z ~ b, to 3 (n + 1) ulps of the sum
    of term magnitudes: each term carries up to 5 roundings per step of
    the recurrence and the in-order sum up to n more, (6n + 1)/2 ulps of
    that sum in all."""
    if peak is not None:
        z = peak * b
    with mpmath.workdps(50):
        # an exact zero of M, as M(-1, 1; 1), reads as 0 to 50 digits
        exact = mpmath.hyp1f1(-n, b, z, zeroprec=mpmath.mp.prec)
        error = abs(mpmath.mpf(kummer_sum(n, b, z)) - exact)
    assert error <= 3 * (n + 1) * _EPS * _kummer_term_scale(n, b, z)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 20), st.floats(1.0, 4000.0)),
        min_size=1, max_size=6,
    ),
    z=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
)
def test_kummer_sum_rows_of_mixed_degree_are_their_scalars(rows, z):
    """A row of smaller n in an array call is bitwise its scalar sum, and
    the result has the broadcast shape even when every n is 0."""
    n = np.array([row[0] for row in rows])[:, None]
    b = np.array([row[1] for row in rows])[:, None]
    got = kummer_sum(n, b, np.array(z))
    assert got.shape == (len(rows), len(z))
    assert got.tolist() == [[kummer_sum(m, c, x) for x in z] for m, c in rows]
    assert kummer_sum(0, 2.0, np.array(z)).shape == (len(z),)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(min_value=0.1, max_value=1000.0),
    n=st.integers(min_value=0, max_value=20),
    l=st.integers(min_value=0, max_value=10),
    re=st.floats(min_value=1e-11, max_value=1e-9),
    u=st.floats(min_value=1e-4, max_value=50.0),
)
def test_radial_wavefunction_bits(gamma, n, l, re, u):
    """R(r) is bitwise the formula evaluated with kummer_sum."""
    state = make_radial_state(gamma, QuantumNumbers(n, l), re)
    r = u * re
    lam, alpha = state.shape.lam, state.shape.alpha
    x = r / state.re
    poly = kummer_sum(n, 2.0 * lam, 2.0 * alpha * x)
    if poly == 0.0:
        expected = 0.0
    else:
        log_mag = (
            state.log_norm + (lam - 1.0) * math.log(x) - alpha * x
            + math.log(abs(poly))
        )
        expected = math.copysign(math.exp(log_mag), poly)
    assert radial_wavefunction(state, r) == expected


def test_norm_matches_direct_gamma_evaluation():
    """For small arguments the log-space N agrees with naive Gamma()."""
    state = make_radial_state(3.0, QuantumNumbers(2, 1), 1.0)
    lam, alpha, n = state.shape.lam, state.shape.alpha, 2
    direct = (
        (2.0 * alpha) ** (lam + 0.5)
        / math.gamma(2.0 * lam)
        * math.sqrt(
            math.gamma(2.0 * lam + n)
            / (2.0 * math.factorial(n) * (lam + n))
        )
    )
    assert math.exp(state.log_norm) == pytest.approx(direct, rel=1e-12)


def test_norm_survives_large_gamma():
    # Gamma(2 lam + n) overflows a double here; log-space assembly must not
    state = make_radial_state(35.755, QuantumNumbers(3, 2), 0.7365e-10)
    norm = math.exp(state.log_norm)
    assert math.isfinite(norm) and norm > 0.0


def test_radial_state_refuses_gamma_zero():
    """At gamma = 0 the well has no bound state: alpha = 0 has no norm."""
    with pytest.raises(ValueError, match="alpha must be positive for a bound state"):
        make_radial_state(0.0, QuantumNumbers(0, 0), 1.0)


def _overlap(gamma, n1, n2, l):
    """<R_n1 | R_n2> over r^2 dr, via r = t/(1-t) on the unit interval."""
    s1 = make_radial_state(gamma, QuantumNumbers(n1, l), 1.0)
    s2 = make_radial_state(gamma, QuantumNumbers(n2, l), 1.0)

    def integrand(t):
        r = t / (1.0 - t)
        jac = 1.0 / (1.0 - t) ** 2
        return radial_wavefunction(s1, r) * radial_wavefunction(s2, r) * r * r * jac

    value, _ = quad(integrand, 0.0, 1.0, points=[0.5], limit=200,
                    epsabs=1e-12, epsrel=1e-9)
    return value


def test_normalization():
    for gamma, n, l in ((2.0, 0, 0), (2.0, 2, 1), (5.0, 4, 0), (35.755, 1, 2)):
        assert _overlap(gamma, n, n, l) == pytest.approx(1.0, abs=1e-8)


def test_orthogonality():
    for n1, n2 in ((0, 1), (0, 2), (1, 2), (2, 4)):
        assert abs(_overlap(5.0, n1, n2, 1)) < 1e-7
    assert abs(_overlap(35.755, 0, 3, 0)) < 1e-7


def test_node_counts():
    """The degree-n radial state changes sign exactly n times for r > 0."""
    for n in range(7):
        state = make_radial_state(5.0, QuantumNumbers(n, 0), 1.0)
        r = np.geomspace(1e-3, 60.0, 30001)
        values = np.array([radial_wavefunction(state, x) for x in r])
        signs = np.sign(values)
        flips = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
        assert flips == n


def test_ground_state_peak_location():
    """The nodeless state peaks at r = re (lam - 1) / alpha."""
    state = make_radial_state(4.0, QuantumNumbers(0, 1), 2.0)
    r_star = state.re * (state.shape.lam - 1.0) / state.shape.alpha
    peak = radial_wavefunction(state, r_star)
    assert peak > radial_wavefunction(state, r_star * (1.0 + 1e-4))
    assert peak > radial_wavefunction(state, r_star * (1.0 - 1e-4))


def _quantized_problem(sigma1, sigma2, n):
    nu = math.sqrt(0.25 + sigma1)
    k = sigma2 / (n + 0.5 + nu)
    return MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=k)


def test_momentum_tail_slope():
    """|psi| falls off as p^(-5/2-nu) two decades above k."""
    for sigma1, n in ((0.0, 0), (2.0, 0), (2.0, 2), (6.0, 1)):
        prob = _quantized_problem(sigma1, 1.0, n)
        nu = math.sqrt(0.25 + sigma1)
        p = np.geomspace(1e2 * prob.k, 1e4 * prob.k, 201)
        mags = np.array(
            [abs(momentum_wavefunction_undeformed(x, n, prob)) for x in p]
        )
        slope = np.polyfit(np.log(p), np.log(mags), 1)[0]
        assert slope == pytest.approx(-2.5 - nu, abs=0.01)


def test_momentum_sigma1_zero_closed_form():
    """At sigma1 = 0, n = 0 the wavefunction is (1/p)(1 + ip/k)^-2."""
    prob = _quantized_problem(0.0, 1.0, 0)
    for p in (0.01, 0.3, 1.0, 7.0, 500.0):
        psi = momentum_wavefunction_undeformed(p, 0, prob)
        w = 1.0 + 1j * p / prob.k
        assert psi * p * w**2 == pytest.approx(1.0, rel=1e-12)


def test_momentum_quantization_checks():
    with pytest.raises(NonQuantizedError):
        momentum_wavefunction_undeformed(
            1.0, 0, MomentumProblem(sigma1=0.0, sigma2=1.0, k=0.7)
        )
    with pytest.raises(NonQuantizedError):
        momentum_wavefunction_undeformed(
            1.0, 0, MomentumProblem(sigma1=-1.0, sigma2=1.0, k=1.0)
        )
    # sigma1 = -1/4 (nu = 0) is the last quantized case; just below it is not
    for n in (0, 1):
        edge = MomentumProblem(sigma1=-0.25, sigma2=1.0, k=1.0 / (n + 0.5))
        assert math.isfinite(abs(momentum_wavefunction_undeformed(1.0, n, edge)))
    below = MomentumProblem(sigma1=-0.25 - 1e-12, sigma2=1.0, k=2.0)
    with pytest.raises(NonQuantizedError, match="sigma1 < -1/4"):
        momentum_wavefunction_undeformed(1.0, 0, below)
    prob = _quantized_problem(2.0, 1.0, 0)
    with pytest.raises(ValueError):
        momentum_wavefunction_undeformed(0.0, 0, prob)
