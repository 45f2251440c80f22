"""Quadrature oracle for radial expectation values.

Everything here recomputes moments of the bound-state density by
numerical integration of the normalized wavefunction, never from the
closed forms in spectrum, so the two routes stay independent and can be
played against each other as a cross-check.  Two backends that share no
failure mode: adaptive subdividing quadrature on a compactified axis,
and a fixed-order rule with the exponential weight matched to the
density (exact once the rule outgrows the polynomial part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .physmodel import HBAR, KratzerCouplings
from .wavefunctions import RadialState, _kummer_sum, radial_wavefunction

__all__ = [
    "SCHEMES",
    "NonIntegrableError",
    "ToleranceError",
    "QuadratureSpec",
    "QuadratureResult",
    "expectation_inverse_power",
    "radial_overlap",
    "correction_via_expectations",
]

# imported on first use, so that the closed-form paths never pay for
# scipy; each name stays a module global so that it can be wrapped
quad = None
roots_genlaguerre = None

SCHEMES = ("adaptive", "gauss-laguerre")


class NonIntegrableError(ValueError):
    """The requested integrand diverges at the origin for this state."""


class ToleranceError(RuntimeError):
    """The integrator could not certify the requested accuracy."""


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate.

    scheme : "adaptive" subdivides on r = re u/(1-u), u in [0, 1), which
        folds the infinite tail and the integrable origin singularity
        into ordinary endpoints; "gauss-laguerre" uses the generalized
        rule whose weight matches the density exactly, with the shift
        between two rule sizes as the error probe.
    rel_tol, abs_tol : acceptance thresholds for the error estimate
        (defaults 1e-10 and 1e-300: relative control with headroom over
        the 1e-8 agreement targets).
    subdivisions : interval limit for the adaptive backend, at least 2.
    nodes : rule size for gauss-laguerre; None picks n + 24.
    """

    scheme: str = "adaptive"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    subdivisions: int = 200
    nodes: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; use one of {SCHEMES}")
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be finite")
        if self.rel_tol < 1e-12:
            raise ValueError("rel_tol below 1e-12 is not certifiable in doubles")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if self.subdivisions < 2:
            raise ValueError("subdivisions must be at least 2")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with the backend's own error estimate."""

    value: float
    error_estimate: float
    scheme: str

    def within(self, spec: QuadratureSpec) -> bool:
        return self.error_estimate <= spec.abs_tol + spec.rel_tol * abs(self.value)


def _require_integrable(lam: float, power: int, label: str) -> None:
    # the density goes like r^(2 lam) at the origin, so dividing by
    # r^power leaves r^(2 lam - power): integrable iff 2 lam - power > -1
    if 2.0 * lam - power <= -1.0:
        raise NonIntegrableError(
            f"{label} diverges at the origin for lam = {lam!r}"
        )


def _certified(result: QuadratureResult, spec: QuadratureSpec, label: str):
    if not result.within(spec):
        raise ToleranceError(
            f"{label}: error estimate {result.error_estimate:.3e} exceeds "
            f"abs {spec.abs_tol:.3e} + rel {spec.rel_tol:.3e} * |value|"
        )
    return result


def _adaptive_integral(
    state_a: RadialState, state_b: RadialState, weight, spec: QuadratureSpec
) -> QuadratureResult:
    """integral of R_a R_b r^2 weight(r) dr on the axis r = re u/(1-u).

    QUADPACK visits a state's abscissae once per weight it integrates on
    that state, so each R value is kept in its state's amplitude table
    and computed once; the table goes when its state does.
    """
    global quad
    if quad is None:
        from scipy.integrate import quad
    re = state_a.re
    table_a, table_b = state_a.amplitudes, state_b.amplitudes

    def integrand(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        r = re * u / (1.0 - u)
        # radial_wavefunction is looked up at call time, so a wrapped
        # module global sees the misses
        a = table_a.get(r)
        if a is None:
            a = table_a[r] = radial_wavefunction(state_a, r)
        b = table_b.get(r)
        if b is None:
            b = table_b[r] = radial_wavefunction(state_b, r)
        return a * b * r * r * weight(r) * re / (1.0 - u) ** 2

    out = quad(
        integrand,
        0.0,
        1.0,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.subdivisions,
        points=[0.5],
        full_output=1,
    )
    value, err = out[0], out[1]
    return QuadratureResult(value=value, error_estimate=abs(err), scheme="adaptive")


def _gl_log_weight(state: RadialState) -> float:
    # log W where |R|^2 r^2 dr = W x^(2 lam) e^-x M(-n, 2 lam, x)^2 dx
    # under x = 2 (alpha/re) r; W follows from the closed normalization
    n = state.qn.n
    lam = state.shape.lam
    return (
        -2.0 * math.lgamma(2.0 * lam)
        + math.lgamma(2.0 * lam + n)
        - math.log(2.0)
        - math.lgamma(n + 1.0)
        - math.log(lam + n)
    )


def _gl_rule_size(state: RadialState, spec: QuadratureSpec, degree: int) -> int:
    m = spec.nodes if spec.nodes is not None else state.qn.n + 24
    needed = degree // 2 + 1
    if m < needed:
        raise ValueError(
            f"need at least {needed} nodes for a degree-{degree} integrand"
        )
    return m


def _gl_density_integral(
    state: RadialState, weight, power: int, degree: int, spec: QuadratureSpec
) -> QuadratureResult:
    """integral of |R|^2 r^2 weight(r) dr by the generalized rule.

    Under x = 2 (alpha/re) r this is W x^(2 lam - power) e^-x times
    x^power weight(r) M(-n, 2 lam, x)^2, a polynomial of degree
    2n + degree; the rule is exact for it, so the difference between two
    rule sizes probes only roundoff.
    """
    global roots_genlaguerre
    if roots_genlaguerre is None:
        from scipy.special import roots_genlaguerre
    lam = state.shape.lam
    steps = state.kummer_steps
    two_kappa = 2.0 * state.shape.alpha / state.re
    log_w = _gl_log_weight(state)
    alpha_gl = 2.0 * lam - power
    m = _gl_rule_size(state, spec, 2 * state.qn.n + degree)

    def run(size: int) -> float:
        nodes, weights = roots_genlaguerre(size, alpha_gl)
        acc = 0.0
        for x, w in zip(nodes.tolist(), weights.tolist()):
            base = _kummer_sum(steps, x)
            acc += w * (x**power * weight(x / two_kappa)) * base * base
        if not math.isfinite(acc):
            # the weights sum to Gamma(alpha + 1), which overflows past
            # alpha ~ 170; the products can overflow a little earlier
            raise ValueError(
                f"Gauss-Laguerre sum overflows double precision at "
                f"alpha = 2 lam - {power} = {alpha_gl:.6g}; use the adaptive "
                f"scheme for this state"
            )
        return math.exp(log_w) * acc

    coarse = run(m)
    fine = run(m + 8)
    return QuadratureResult(
        value=fine, error_estimate=abs(fine - coarse), scheme="gauss-laguerre"
    )


def _moment(
    state: RadialState,
    weight,
    power: int,
    degree: int,
    spec: QuadratureSpec,
    label: str,
) -> QuadratureResult:
    """integral of |R|^2 r^2 weight(r) dr on the spec's backend, certified.

    weight(r) r^power must be a polynomial of the given degree in r:
    power is how fast the weight diverges at the origin, which decides
    integrability there and the Gauss-Laguerre weight exponent.
    """
    _require_integrable(state.shape.lam, power, label)
    if spec.scheme == "adaptive":
        result = _adaptive_integral(state, state, weight, spec)
    else:
        result = _gl_density_integral(state, weight, power, degree, spec)
    return _certified(result, spec, label)


def expectation_inverse_power(
    p: int, state: RadialState, spec: QuadratureSpec = QuadratureSpec()
) -> QuadratureResult:
    """<1/r^p> in m^-p for the normalized bound state, by quadrature.

    p = 0 returns the normalization integral (1 up to quadrature error).
    Raises NonIntegrableError when 2 lam <= p - 1 and ToleranceError when
    the backend's error estimate misses the spec thresholds.
    """
    if p < 0 or p > 4:
        raise ValueError(f"p must be an integer in 0..4, got {p!r}")
    return _moment(state, lambda r: r ** (-p), p, 0, spec, f"<1/r^{p}>")


def radial_overlap(state_a: RadialState, state_b: RadialState) -> QuadratureResult:
    """integral of R_a(r) R_b(r) r^2 dr by the adaptive backend, uncertified.

    The result is returned without the error-estimate check the
    expectation values pass: for two orthogonal states the value is
    roundoff, and an overlap near 1e-16 cannot meet a bound relative to
    itself (on the paper verify grid the estimate exceeds
    abs_tol + rel_tol |value| by up to 7.7e12).  Judge the value against
    an absolute tolerance instead.
    """
    return _adaptive_integral(state_a, state_b, lambda r: 1.0, QuadratureSpec())


def correction_via_expectations(
    state: RadialState,
    c: KratzerCouplings,
    mu: float,
    beta: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """First-order shift 4 beta mu <(E0 - V)^2> in J.

    <p^4> = 4 mu^2 <(E0 - V)^2> for an eigenstate, so the shift needs
    only the potential; the moment comes from quadrature here, making
    this an end-to-end check on the closed-form correction.  The square
    is formed pointwise and integrated once: assembling it as
    E0^2 - 2 E0 <V> + <V^2> from separate moments cancels the O(gamma^2)
    terms and loses digits as gamma grows.  The result is nonnegative.
    """
    if mu <= 0.0:
        raise ValueError("reduced mass must be positive")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    lam = state.shape.lam
    n = state.qn.n
    s = mu * c.g2 / (HBAR * HBAR)
    e0 = -(HBAR * s) ** 2 / (2.0 * mu * (lam + n) ** 2)

    def weight(r: float) -> float:
        gap = e0 - (c.g1 / r - c.g2) / r
        return gap * gap

    power = 4 if c.g1 != 0.0 else 2
    moment = _moment(state, weight, power, power, spec, "<(E0 - V)^2>")
    scale = 4.0 * beta * mu
    return QuadratureResult(
        value=scale * moment.value,
        error_estimate=scale * moment.error_estimate,
        scheme=spec.scheme,
    )
