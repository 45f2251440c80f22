"""Quadrature oracle for radial expectation values.

Everything here recomputes moments of the bound-state density by
numerical integration of the normalized wavefunction, never from the
closed forms in spectrum, so the two routes stay independent and can be
played against each other as a cross-check.  One backend: the classical
tanh-sinh (double-exponential) rule of Takahasi and Mori (1974), in the
level-by-level form of Bailey, Jeyabalan and Li (Exp. Math. 14, 2005),
written here in numpy on a compactified axis, many integrals per call,
each result certified against its own error estimate.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .physmodel import HBAR, KratzerCouplings, batch_columns, nan_worst
from .physmodel import require_beta, require_int, require_positive
from .wavefunctions import RadialState, kummer_sum

__all__ = [
    "NonIntegrableError",
    "ToleranceError",
    "QuadratureResult",
    "expectation_inverse_power",
    "radial_overlap",
    "correction_via_expectations",
]

#: the tanh-sinh level of the first convergence test: every level up to
#: it is evaluated together, in one integrand call per block.  Of 2,160
#: moments (gamma in {2, 5, 10, 35.755}, n, l <= 5, p = 0..4, three re)
#: at rel_tol 1e-10, none converges before level 5 even when tested from
#: level 2 (585 stop at 5, 1,536 at 6, 39 at 7), and no certified one is
#: off by more than 2.4e-12 against the hypervirial moments.  (scipy's
#: tanhsinh estimate, tested from level 2, certified 5 of them off by up
#: to 1.1e-7.)
_MIN_LEVEL = 5
#: the last tanh-sinh level: level k evaluates ~2^(k+4) abscissae per
#: integral.  Below level 2 there is no error estimate; _CELLS bounds the
#: memory of any level, so the cap bounds time: each level doubles the
#: work of the integrals still open
_MAX_LEVEL = 10
#: the error estimate an integral must meet, relative to |value|: headroom
#: over the 1e-8 agreement targets; below 1e-12 it is not certifiable in
#: doubles
_REL_TOL = 1e-10
#: cells, (integral, node) pairs, per integrand evaluation: a level is
#: evaluated in blocks of max(1, _CELLS // nodes) open rows, each reduced
#: to its rows' sums before the next, so one block holds at most one
#: 1 MiB float64 array (one row alone if its level is wider).  Every
#: batch of verify's paper grid is one block per level (144 x 513 =
#: 73,872 cells at most): its moments, 144 integrals per call, peak at
#: ~1.7 MB of numpy memory (tracemalloc; ~0.46 MB at 24 per call)
_CELLS = 2**17
#: the log of the density below which exp gives exactly 0.0: exp(E) is 0
#: from E = -745.13 (half the smallest subnormal) down, and the 15 below
#: that cover the rounding of E and of the bound on it (_Density)
_LOG_UNDERFLOW = -760.0
#: absolute stop of an overlap, which is roundoff for orthogonal states
#: and so has no relative accuracy; |integral R_a R_b r^2 dr| <= 1 by
#: Cauchy-Schwarz, so it is also at most 1e-12 of the largest overlap
_OVERLAP_ATOL = 1e-12
#: no gap: the weight (c0 + c1/r + c2/r^2)^2 of a plain moment
_NO_GAP = (1.0, 0.0, 0.0)
#: the tanh-sinh base step: the rule's nodes run out to t = 8 h0, where a
#: node's distance from an end of [-1, 1], 2/(e^(pi sinh t) + 1), is
#: 4 * the smallest normal double (scipy's choice), so that level k
#: holds 2^(k+4) + 1 nodes, 8 * 2^k on either side of the midpoint
_H0 = math.asinh(
    math.log(2.0 / (4.0 * sys.float_info.min) - 1.0) / math.pi) / 8.0


@functools.cache
def _level(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes that tanh-sinh level k adds on u in [0, 1]: (u, 1 - u, w).

    Level 0 holds t = j h0 for j = 0..8; level k >= 1 the odd multiples
    of h0/2^k up to 8 h0.  The node t maps to u = (1 -+ tanh s)/2 with
    s = pi/2 sinh t, and its distance from the near end, 1/(e^s cosh s)/2,
    is taken from that formula rather than by subtraction, so that the
    tail x = u/(1 - u) keeps its digits.  The weights are the derivative
    of u in t, (pi/4) cosh t / cosh^2 s; the step h_k multiplies them in
    _tanh_sinh.
    """
    h = _H0 / 2**k
    j = np.arange(9.0) if k == 0 else np.arange(1.0, 8 * 2**k + 1, 2.0)
    t = j * h
    s = 0.5 * math.pi * np.sinh(t)
    near = 0.5 / (np.exp(s) * np.cosh(s))
    weight = 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    # level 0's t = 0 is the midpoint u = 1/2: one node, not one per side
    mirror = slice(1, None) if k == 0 else slice(None)
    far = 1.0 - near
    nodes = (
        np.concatenate((near, far[mirror])),
        np.concatenate((far, near[mirror])),
        np.concatenate((weight, weight[mirror])),
    )
    for column in nodes:  # shared by every later call
        column.flags.writeable = False
    return nodes


class NonIntegrableError(ValueError):
    """The requested integrand diverges at the origin for this state."""


class ToleranceError(RuntimeError):
    """The integrator could not certify the requested accuracy."""


class QuadratureResult(NamedTuple):
    """Integral value with the integrator's own error estimate."""

    value: float
    error_estimate: float


class _Integral(NamedTuple):
    """integral of R_a R_b r^2 r^-p (c0 + c1/r + c2/r^2)^2 dr, named label."""

    a: RadialState
    b: RadialState
    p: int
    label: str
    gap: tuple[float, float, float] = _NO_GAP

    @property
    def power(self) -> int:
        """How fast r^-p gap^2 diverges at the origin, which decides
        integrability there."""
        _, c1, c2 = self.gap
        return self.p + (4 if c2 != 0.0 else 2 if c1 != 0.0 else 0)


class _Density:
    """The integrands of many _Integrals as one array expression.

    Every per-integral constant is a column with one row per integral.
    integrand(u, v, rows) is R_a R_b r^(2 - p) gap^2 re / v^2, the
    integrand per unit u at x = r/re = u/v, one row of nodes shared by
    the integrals rows.  In x,
    R(r) = exp(log N + (lam - 1) log x - alpha x) M(-n, 2 lam; 2 alpha x),
    with M from kummer_sum and log N the RadialState's; the exponentials
    of both states and of re^(3 - p) x^(2 - p) are taken as one, and the
    gap as (c0 x^2 + c1/re x + c2/re^2)^2 / x^4.

    That exponential is exp(E), E = log_scale + P ln x - D x + ln|M_a M_b|
    with P = power and D = decay, and row i's window [x_lo, x_hi] holds
    every x where E can exceed _LOG_UNDERFLOW = T; outside it the row is
    exactly 0 (a gapped one too).  For b > 0, z >= 0, |M(-n, b; z)| <=
    (1 + z/b)^n as (b)_k >= b^k, so with q = alpha/lam and K = log_scale
    + sum n ln(1 + q) over both states: E <= K + P ln x on x <= 1, which
    gives x_lo = min(1, e^((T - K)/P)) if P > 0, else 0; and on x >= 1
    E <= K + Q ln x - D x, Q = max(P + n_a + n_b, 0), where Q ln x - D x/2
    falls from x0 = max(1, 2Q/D), so x_hi = max(x0, 2(K + Q ln x0 -
    D x0/2 - T)/D).  The bound is on the true M, whatever sums it.

    The states are indexed by identity, and a call evaluates each
    distinct state of its rows once: its M in one kummer_sum call and,
    where every a is b, its ln M^2, which the rows read through the
    index.  Every row's E keeps its order of operations, so sharing moves
    no bit.
    """

    def __init__(self, integrals: list[_Integral]) -> None:
        def column(values):
            return np.array(values, dtype=np.float64)[:, None]

        self.log_scale = column([
            it.a.log_norm + it.b.log_norm + (3 - it.p) * math.log(it.a.re)
            for it in integrals
        ])
        self.gapped = any(it.gap != _NO_GAP for it in integrals)
        # the gap's 1/x^4 goes into the power of x
        self.power = column([
            it.a.shape.lam + it.b.shape.lam - it.p - (4 if self.gapped else 0)
            for it in integrals
        ])
        self.decay = column([
            it.a.shape.alpha + it.b.shape.alpha for it in integrals
        ])
        if self.gapped:
            self.gap = np.array([
                (it.gap[0], it.gap[1] / it.a.re, it.gap[2] / it.a.re**2)
                for it in integrals
            ])
        # the distinct states, and each row's a and b among them
        self.same = all(it.a is it.b for it in integrals)
        states = {id(it.a): it.a for it in integrals}
        if not self.same:
            states.update((id(it.b), it.b) for it in integrals)
        place = dict(zip(states, range(len(states))))
        self.a = np.array([place[id(it.a)] for it in integrals])
        self.b = self.a if self.same else np.array(
            [place[id(it.b)] for it in integrals])
        # n, 2 lam and 2 alpha of each state: M(-n, 2 lam; 2 alpha x)
        self.kummer = np.array([
            (s.qn.n, 2.0 * s.shape.lam, 2.0 * s.shape.alpha)
            for s in states.values()
        ]).T[:, :, None]
        # the window, as in the class docstring, with n ln(1 + q) once per
        # state; z/b = (alpha/lam) x
        n, b, rate = self.kummer
        bound = n * np.log1p(rate / b)
        k = self.log_scale + (bound[self.a] + bound[self.b])
        q = np.maximum(self.power + (n[self.a] + n[self.b]), 0.0)
        x0 = np.maximum(1.0, 2.0 * q / self.decay)
        self.x_hi = np.maximum(x0, 2.0 * (
            k + q * np.log(x0) - 0.5 * self.decay * x0 - _LOG_UNDERFLOW
        ) / self.decay)
        with np.errstate(all="ignore"):
            self.x_lo = np.where(self.power > 0.0, np.minimum(
                1.0, np.exp((_LOG_UNDERFLOW - k) / self.power)), 0.0)

    def integrand(self, u, v, rows):
        """The integrand on u in [0, 1], x = u/(1 - u), at the nodes u
        with v = 1 - u, one row per integral rows[i] on the same nodes."""
        # only the states of rows are evaluated, so the highest degree
        # among the open rows bounds the Kummer sum; at_a and at_b place
        # each row's a and b among them
        a, b = self.a[rows], self.b[rows]
        used = np.zeros(self.kummer.shape[1], dtype=bool)
        used[a] = used[b] = True
        place = np.cumsum(used) - 1
        at_a, at_b = place[a], place[b]
        n, order, rate = self.kummer[:, used]
        with np.errstate(all="ignore"):
            x = u / v
            poly = kummer_sum(n, order, rate * x)
            out = self.log_scale[rows] + self.power[rows] * np.log(x)
            out -= self.decay[rows] * x
            if self.same:
                out += np.log(np.abs(poly * poly))[at_a]
            else:
                poly = poly[at_a] * poly[at_b]
                out += np.log(np.abs(poly))
            np.exp(out, out=out)
            if not self.same:
                np.copysign(out, poly, out=out)
            if self.gapped:
                c0, c1, c2 = self.gap[rows].T[:, :, None]
                out *= np.square((c0 * x + c1) * x + c2)
            out /= v * v
        # far out on the tail (from x ~ 5e7 at gamma = 1000, n = 20) the
        # squared Kummer sum of a high-degree state overflows where
        # exp(-alpha x) has long since underflowed, and the nodes next to
        # the ends give 1/0: each such node's true value is 0
        out[~np.isfinite(out)] = 0.0
        return out


def _weighted(density: _Density, rows, u, v, w):
    """f w for rows on all the nodes u, with f evaluated only inside the
    union [x_lo, x_hi] of the rows' windows: the other nodes' f is
    exactly 0, and a full-width row of zeros keeps every sum's order and
    so its bits."""
    x = u / v
    inside = (x >= density.x_lo[rows].min()) & (x <= density.x_hi[rows].max())
    fw = np.zeros((len(rows), len(u)))
    fw[:, inside] = density.integrand(u[inside], v[inside], rows) * w[inside]
    return fw


def _sums(density: _Density, rows, nodes, split: int):
    """sum f w over nodes[:split] and over nodes[split:] for each of rows,
    evaluated in blocks of at most _CELLS cells (_weighted).  A row's sums
    keep their bits whichever rows share its block."""
    u, v, w = nodes
    size = max(1, _CELLS // len(u))
    head, tail = np.empty(len(rows)), np.empty(len(rows))
    for start in range(0, len(rows), size):
        block = slice(start, start + size)
        fw = _weighted(density, rows[block], u, v, w)
        head[block] = fw[:, :split].sum(axis=1)
        tail[block] = fw[:, split:].sum(axis=1)
    return head, tail


def _tanh_sinh(
    integrals: list[_Integral], atol: float = 0.0
) -> list[tuple[QuadratureResult, int]]:
    """Every integral by tanh-sinh on u in [0, 1], with its status.

    The rule runs on r = re u/(1 - u), which folds the infinite tail and
    the integrable singularity at the origin into ordinary endpoints.
    Level k's estimate is S_k = S_(k-1)/2 + h_k sum f w over the level's
    new nodes; its error estimate is |S_k - S_(k-1)|, first tested at
    _MIN_LEVEL, and an integral stops once that is below _REL_TOL |S_k| or
    atol.  Status 0 means converged; -2 that _MAX_LEVEL was reached and -3
    that a non-finite estimate stopped it.  f is evaluated only inside the
    open rows' window, where exp has not underflowed (_weighted), and in
    blocks of at most _CELLS cells (_sums).
    """
    first = min(_MIN_LEVEL, _MAX_LEVEL)
    # levels 0..first evaluated together, the ones below first ahead
    below = [_level(k) for k in range(first)]
    nodes = [np.concatenate(parts) for parts in zip(*below, _level(first))]
    split = sum(len(u) for u, _, _ in below)
    density = _Density(integrals)
    rows = np.arange(len(integrals))
    value = np.empty(len(integrals))
    error = np.empty(len(integrals))
    status = np.full(len(integrals), -2)
    with np.errstate(all="ignore"):
        head, tail = _sums(density, rows, nodes, split)
        previous = _H0 / 2 ** (first - 1) * head
        estimate = previous / 2 + _H0 / 2**first * tail
        level = first
        while True:
            d1 = np.abs(estimate - previous)
            converged = (d1 < _REL_TOL * np.abs(estimate)) | (d1 < atol)
            broken = ~converged & ~np.isfinite(estimate)
            status[rows[converged]] = 0
            status[rows[broken]] = -3
            stop = converged | broken | (level == _MAX_LEVEL)
            value[rows[stop]] = estimate[stop]
            error[rows[stop]] = d1[stop]
            if stop.all():
                break
            level += 1
            rows, previous = rows[~stop], estimate[~stop]
            _, tail = _sums(density, rows, _level(level), 0)
            estimate = previous / 2 + _H0 / 2**level * tail
    return [
        (QuadratureResult(value=val, error_estimate=err), code)
        for val, err, code in zip(
            value.tolist(), error.tolist(), status.tolist()
        )
    ]


def _certified(
    integrals: list[_Integral],
    results: list[tuple[QuadratureResult, int]],
) -> list[QuadratureResult]:
    """The results, or ToleranceError naming the worst one that fails:
    a result is certified if it converged, which with atol = 0 puts its
    error estimate below _REL_TOL |value|."""
    failed = [
        (it, result, status)
        for it, (result, status) in zip(integrals, results)
        if status != 0
    ]
    if not failed:
        return [result for result, _ in results]

    def excess(entry) -> tuple[bool, float]:
        result = entry[1]
        bound = _REL_TOL * abs(result.value)
        return nan_worst(result.error_estimate / bound if bound else math.inf)

    it, result, status = max(failed, key=excess)
    if status == -2:
        why = f"did not converge by tanh-sinh level {_MAX_LEVEL}"
    else:
        why = "did not converge: the estimate is not finite"
    raise ToleranceError(
        f"{it.label} at gamma = {it.a.shape.gamma:.6g}, "
        f"(n, l) = ({it.a.qn.n}, {it.a.qn.l}) {why} "
        f"({len(failed)} of {len(results)} integrals failed)"
    )


def _density_moments(integrals: list[_Integral]) -> list[QuadratureResult]:
    """The density integrals (a is b) by tanh-sinh, certified."""
    for it in integrals:
        # the density goes like r^(2 lam) at the origin, so dividing by
        # r^power leaves r^(2 lam - power): integrable iff 2 lam - power > -1
        lam = it.a.shape.lam
        if 2.0 * lam - it.power <= -1.0:
            raise NonIntegrableError(
                f"{it.label} diverges at the origin for lam = {lam!r}"
            )
    return _certified(integrals, _tanh_sinh(integrals))


def expectation_inverse_power(p, state):
    """<1/r^p> in m^-p for normalized bound states, by quadrature.

    p (0..4) and state are each one item or a batch, paired by
    physmodel.batch_columns: one QuadratureResult, or a list in pair
    order.  p = 0 returns the normalization integral (1 up to quadrature
    error).  Raises NonIntegrableError when 2 lam <= p - 1 and
    ToleranceError when an integral is not certified to _REL_TOL.
    """
    (powers, states), single = batch_columns(p, state)
    powers = [require_int(power, "p", 4) for power in powers]
    integrals = [
        _Integral(s, s, power, f"<1/r^{power}>")
        for power, s in zip(powers, states)
    ]
    results = _density_moments(integrals)
    return results[0] if single else results


def radial_overlap(state_a, state_b):
    """integral of R_a(r) R_b(r) r^2 dr by tanh-sinh, uncertified.

    state_a and state_b are each one state or a batch, paired as in
    expectation_inverse_power.  The result is returned without the
    error-estimate check the expectation values pass: for two orthogonal
    states the value is roundoff, and an overlap near 1e-16 cannot meet a
    bound relative to itself.  tanh-sinh stops each overlap at rel_tol
    1e-10 or at an absolute 1e-12, whichever comes first; judge the value
    against an absolute tolerance too.
    """
    (firsts, seconds), single = batch_columns(state_a, state_b)
    integrals = [_Integral(a, b, 0, "overlap") for a, b in zip(firsts, seconds)]
    results = _tanh_sinh(integrals, atol=_OVERLAP_ATOL)
    values = [result for result, _ in results]
    return values[0] if single else values


def correction_via_expectations(
    state,
    c: KratzerCouplings,
    mu: float,
    beta: float,
):
    """First-order shift 4 beta mu <(E0 - V)^2> in J.

    <p^4> = 4 mu^2 <(E0 - V)^2> for an eigenstate, so the shift needs
    only the potential; the moment comes from quadrature here, making
    this an end-to-end check on the closed-form correction.  The square
    is formed pointwise and integrated once: assembling it as
    E0^2 - 2 E0 <V> + <V^2> from separate moments cancels the O(gamma^2)
    terms and loses digits as gamma grows.  The result is nonnegative.
    state is one RadialState or a batch, as in expectation_inverse_power.
    """
    require_positive(mu, "reduced mass")
    require_beta(beta)
    s = mu * c.g2 / (HBAR * HBAR)
    (states,), single = batch_columns(state)
    integrals = []
    for st in states:
        e0 = -(HBAR * s) ** 2 / (2.0 * mu * (st.shape.lam + st.qn.n) ** 2)
        # E0 - V = e0 + g2/r - g1/r^2
        gap = (e0, c.g2, -c.g1)
        integrals.append(_Integral(st, st, 0, "<(E0 - V)^2>", gap))
    scale = 4.0 * beta * mu
    results = [
        QuadratureResult(
            value=scale * m.value,
            error_estimate=scale * m.error_estimate,
        )
        for m in _density_moments(integrals)
    ]
    return results[0] if single else results
