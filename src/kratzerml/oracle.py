"""Quadrature oracle for radial expectation values.

Everything here recomputes moments of the bound-state density by
numerical integration of the normalized wavefunction, never from the
closed forms in spectrum, so the two routes stay independent and can be
played against each other as a cross-check.  One backend: tanh-sinh
quadrature on a compactified axis, many integrals per call, each result
certified against its own error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import tanhsinh

from .physmodel import HBAR, KratzerCouplings, batch_columns, require_beta, require_mass
from .wavefunctions import RadialState, kummer_sum

__all__ = [
    "NonIntegrableError",
    "ToleranceError",
    "QuadratureSpec",
    "QuadratureResult",
    "expectation_inverse_power",
    "radial_overlap",
    "correction_via_expectations",
]

#: the tanh-sinh level of the first convergence test: every level below
#: it is evaluated in the first call.  Testing from level 2, the error
#: estimate certified 5 of 2,160 moments (gamma in {2, 5, 10, 35.755},
#: n, l <= 5, p = 0..4, three re) at rel_tol 1e-10 that were off by up to
#: 1.1e-7; from level 5 none was off by more than 1.6e-12
_MIN_LEVEL = 5
#: integrals per tanh-sinh call: verify's paper-grid moments raise peak
#: memory by ~2.4 MB at 24 per call, by ~9 MB at 144 (a gamma row) per call
_CHUNK = 24
#: absolute stop of an overlap, which is roundoff for orthogonal states
#: and so has no relative accuracy; |integral R_a R_b r^2 dr| <= 1 by
#: Cauchy-Schwarz, so it is also at most 1e-12 of the largest overlap
_OVERLAP_ATOL = 1e-12
#: no gap: the weight (c0 + c1/r + c2/r^2)^2 of a plain moment
_NO_GAP = (1.0, 0.0, 0.0)


class NonIntegrableError(ValueError):
    """The requested integrand diverges at the origin for this state."""


class ToleranceError(RuntimeError):
    """The integrator could not certify the requested accuracy."""


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate.

    Tanh-sinh runs on r = re u/(1-u), u in [0, 1), which folds the
    infinite tail and the integrable origin singularity into ordinary
    endpoints, doubling the abscissae per level until its error estimate
    meets rel_tol.

    rel_tol : acceptance threshold for the error estimate relative to
        |value| (default 1e-10: headroom over the 1e-8 agreement targets).
    max_level : last tanh-sinh level, 2 to 12; level k evaluates
        ~2^(k+4) abscissae per integral.
    """

    rel_tol: float = 1e-10
    max_level: int = 10

    def __post_init__(self) -> None:
        if not math.isfinite(self.rel_tol):
            raise ValueError("rel_tol must be finite")
        if self.rel_tol < 1e-12:
            raise ValueError("rel_tol below 1e-12 is not certifiable in doubles")
        # below level 2 there is no error estimate; above 12 a call of
        # _CHUNK integrals would hold millions of abscissae
        if self.max_level not in range(2, 13):
            raise ValueError("max_level must be an integer from 2 to 12")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with the integrator's own error estimate."""

    value: float
    error_estimate: float

    def within(self, spec: QuadratureSpec) -> bool:
        return self.error_estimate <= spec.rel_tol * abs(self.value)


@dataclass(frozen=True)
class _Integral:
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


def _require_integrable(lam: float, power: int, label: str) -> None:
    # the density goes like r^(2 lam) at the origin, so dividing by
    # r^power leaves r^(2 lam - power): integrable iff 2 lam - power > -1
    if 2.0 * lam - power <= -1.0:
        raise NonIntegrableError(
            f"{label} diverges at the origin for lam = {lam!r}"
        )


class _Density:
    """The integrands of many _Integrals as one array expression.

    Every per-integral constant is a column with one row per integral.
    density(x, rows) is R_a R_b r^(2 - p) gap^2 re, the integrand per
    unit x = r/re, on row i of x for integral rows[i].  In x,
    R(r) = exp(log N + (lam - 1) log x - alpha x) M(-n, 2 lam; 2 alpha x),
    with M from kummer_sum, as in radial_wavefunction; the exponentials
    of both states and of re^(3 - p) x^(2 - p) are taken as one, and the
    gap as (c0 x^2 + c1/re x + c2/re^2)^2 / x^4.
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
        self.kummer_a = self._kummer_columns([it.a for it in integrals])
        self.same = all(it.a is it.b for it in integrals)
        if not self.same:
            self.kummer_b = self._kummer_columns([it.b for it in integrals])

    @staticmethod
    def _kummer_columns(states: list[RadialState]):
        # n, 2 lam and 2 alpha of each state: M(-n, 2 lam; 2 alpha x)
        return np.array(
            [(s.qn.n, 2.0 * s.shape.lam, 2.0 * s.shape.alpha) for s in states]
        ).T[:, :, None]

    @staticmethod
    def _kummer(columns, rows, x):
        n, b, rate = columns[:, rows]
        return kummer_sum(n, b, rate * x)

    def __call__(self, x, rows):
        poly = self._kummer(self.kummer_a, rows, x)
        if self.same:
            poly = poly * poly
        else:
            poly = poly * self._kummer(self.kummer_b, rows, x)
        log_x = np.log(x)
        out = np.exp(
            self.log_scale[rows]
            + self.power[rows] * log_x
            - self.decay[rows] * x
            + np.log(np.abs(poly))
        )
        if not self.same:
            out = np.copysign(out, poly)
        if self.gapped:
            gap = self.gap[rows]
            out *= np.square((gap[:, 0:1] * x + gap[:, 1:2]) * x + gap[:, 2:3])
        return out

    def integrand(self, u, rows):
        """tanhsinh's f: the integrand on u in [0, 1], x = u/(1 - u)."""
        # tanhsinh first calls f with one abscissa per row, then with a
        # row of abscissae per row
        flat = u.ndim == 1
        if flat:
            u = u[:, None]
        else:
            rows = rows[:, 0]
        with np.errstate(all="ignore"):
            w = 1.0 - u
            out = self(u / w, rows) / (w * w)
        # far out on the tail (from x ~ 5e7 at gamma = 1000, n = 20) the
        # squared Kummer sum of a high-degree state overflows where
        # exp(-alpha x) has long since underflowed, and the endpoints give
        # log 0 and 1/0: each such abscissa's true value is 0
        out[~np.isfinite(out)] = 0.0
        return out[:, 0] if flat else out


def _tanh_sinh(
    integrals: list[_Integral], spec: QuadratureSpec, atol: float = 0.0
) -> list[tuple[QuadratureResult, int]]:
    """Every integral by tanh-sinh, _CHUNK per call, with its status.

    Status 0 means converged; -2 that max_level was reached and -3 that
    a non-finite estimate stopped it (scipy.integrate.tanhsinh's codes).
    """
    out = []
    for start in range(0, len(integrals), _CHUNK):
        chunk = integrals[start : start + _CHUNK]
        density = _Density(chunk)
        res = tanhsinh(
            density.integrand,
            0.0,
            1.0,
            args=(np.arange(len(chunk)),),
            minlevel=_MIN_LEVEL,
            maxlevel=spec.max_level,
            rtol=spec.rel_tol,
            atol=atol,
        )
        out += [
            (QuadratureResult(value=v, error_estimate=abs(e)), s)
            for v, e, s in zip(
                res.integral.tolist(), res.error.tolist(), res.status.tolist()
            )
        ]
    return out


def _certified(
    integrals: list[_Integral],
    results: list[tuple[QuadratureResult, int]],
    spec: QuadratureSpec,
) -> list[QuadratureResult]:
    """The results, or ToleranceError naming the worst one that fails."""
    failed = [
        (i, status)
        for i, (result, status) in enumerate(results)
        if status != 0 or not result.within(spec)
    ]
    if not failed:
        return [result for result, _ in results]

    def excess(entry) -> float:
        result = results[entry[0]][0]
        bound = spec.rel_tol * abs(result.value)
        ratio = result.error_estimate / bound if bound > 0.0 else math.inf
        return ratio if ratio == ratio else math.inf

    i, status = max(failed, key=excess)
    it, result = integrals[i], results[i][0]
    if status == -2:
        why = f"did not converge by tanh-sinh level {spec.max_level}"
    elif status != 0:
        why = "did not converge: the estimate is not finite"
    else:
        # tanh-sinh stops once its estimate meets rel_tol, so a converged
        # result lands here only at a rounding edge; the recheck stays
        why = (
            f"missed rel_tol: error estimate {result.error_estimate:.3e} "
            f"exceeds {spec.rel_tol:.3e} * |value|"
        )
    raise ToleranceError(
        f"{it.label} at gamma = {it.a.shape.gamma:.6g}, "
        f"(n, l) = ({it.a.qn.n}, {it.a.qn.l}) {why} "
        f"({len(failed)} of {len(results)} integrals failed)"
    )


def _density_moments(
    integrals: list[_Integral], spec: QuadratureSpec
) -> list[QuadratureResult]:
    """The density integrals (a is b) by tanh-sinh, certified."""
    for it in integrals:
        _require_integrable(it.a.shape.lam, it.power, it.label)
    return _certified(integrals, _tanh_sinh(integrals, spec), spec)


def expectation_inverse_power(
    p, state, spec: QuadratureSpec = QuadratureSpec()
):
    """<1/r^p> in m^-p for normalized bound states, by quadrature.

    p (0..4) and state are each one item or a batch, paired by
    physmodel.batch_columns: one QuadratureResult, or a list in pair
    order.  p = 0 returns the normalization integral (1 up to quadrature
    error).  Raises NonIntegrableError when 2 lam <= p - 1 and
    ToleranceError when the error estimate misses the spec thresholds.
    """
    (powers, states), single = batch_columns(p, state)
    for power in powers:
        if power not in range(5):
            raise ValueError(f"p must be an integer in 0..4, got {power!r}")
    integrals = [
        _Integral(s, s, power, f"<1/r^{power}>")
        for power, s in zip(powers, states)
    ]
    results = _density_moments(integrals, spec)
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
    results = _tanh_sinh(integrals, QuadratureSpec(), atol=_OVERLAP_ATOL)
    values = [result for result, _ in results]
    return values[0] if single else values


def correction_via_expectations(
    state,
    c: KratzerCouplings,
    mu: float,
    beta: float,
    spec: QuadratureSpec = QuadratureSpec(),
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
    require_mass(mu)
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
        for m in _density_moments(integrals, spec)
    ]
    return results[0] if single else results
