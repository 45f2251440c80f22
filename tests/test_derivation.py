"""The momentum-space equation derived from the paper's GUP operators.

The Kempf-Mangano-Mann position operator with beta' = 2 beta,

    x_i = i [(1 + beta p^2) d/dp_i + 2 beta p_i p_j d/dp_j]   (hbar = 1),

has the minimal length hbar sqrt(3 beta + beta') = hbar sqrt(5 beta).  On
an s-wave psi = phi(|p|)/|p| it gives |p| x_i x_i psi = X^2 phi +
4 beta^2 p^2 phi exactly, with X = i [(1 + 3 beta p^2) d/dp - 2 beta p].
The radial equation times r^2, r^2 chi'' + (-k^2 r^2 - sigma1 + 2 sigma2 r)
chi = 0, maps under r -> X and d/dr -> i p to

    X^2 [-(p^2 + k^2) phi] - sigma1 phi + 2 sigma2 X phi = 0,

which to first order in beta is a phi'' + b phi' + c phi = 0 with the ten
parts of momentum._coefficients, factor 1.  The tests check both steps in
sympy, compare the ten parts with the code's at random floats, and pin
the deformed large-p exponents to the derived equation.
"""

import functools
import random

import pytest
import sympy as sp

from kratzerml import momentum

SIGMA1, SIGMA2, K, BETA = sp.symbols("sigma1 sigma2 k beta", real=True)
P = sp.Symbol("p", positive=True)
PHI = sp.Function("phi")

#: (name, polynomial, power of p) of the ten parts, in _coefficients order
PARTS = (
    ("a0", "a", 0), ("a2", "a", 2), ("a4", "a", 4),
    ("b0", "b", 0), ("b1", "b", 1), ("b2", "b", 2), ("b3", "b", 3),
    ("c0", "c", 0), ("c1", "c", 1), ("c2", "c", 2),
)

#: the largest error a part may carry, in units of 2^-52 times the sum of
#: its terms' magnitudes: each part takes at most three roundings
ULPS = 4


def x_operator(f):
    """X f = i [(1 + 3 beta p^2) f' - 2 beta p f], the radial reduction of
    the position operator on phi = p psi."""
    return sp.I * ((1 + 3 * BETA * P**2) * sp.diff(f, P) - 2 * BETA * P * f)


def test_position_operator_reduces_to_x_on_the_ray():
    """|p| x_i x_i (phi(|p|)/|p|) = X^2 phi + 4 beta^2 p^2 phi exactly, at
    the point (p, 0, 0), in Cartesian p."""
    axes = sp.symbols("p_x p_y p_z", real=True)
    radius = sp.sqrt(sum(q**2 for q in axes))

    def x_i(i, f):
        return sp.I * ((1 + BETA * radius**2) * sp.diff(f, axes[i])
                       + 2 * BETA * axes[i] * sum(q * sp.diff(f, q) for q in axes))

    psi = PHI(radius) / radius
    square = sum(x_i(i, x_i(i, psi)) for i in range(3)) * radius
    on_ray = square.subs({axes[1]: 0, axes[2]: 0}).subs(axes[0], P).doit()
    reduced = x_operator(x_operator(PHI(P))) + 4 * BETA**2 * P**2 * PHI(P)
    assert sp.simplify(sp.expand(on_ray - reduced)) == 0


@functools.cache
def derived_polynomials() -> dict:
    """a, b and c of the first-order equation, as sympy polynomials in p."""
    phi = PHI(P)
    equation = sp.expand(
        x_operator(x_operator(-(P**2 + K**2) * phi))
        - SIGMA1 * phi + 2 * SIGMA2 * x_operator(phi)
    )
    first = sp.expand(equation.subs(BETA, 0)
                      + BETA * sp.diff(equation, BETA).subs(BETA, 0))
    polys = {}
    for name, term in (("a", sp.diff(phi, P, 2)), ("b", sp.diff(phi, P)),
                       ("c", phi)):
        coefficient = first.coeff(term)
        first = sp.expand(first - coefficient * term)
        polys[name] = sp.Poly(coefficient, P)
    assert first == 0
    return polys


def derived_parts() -> list:
    """The ten parts of the derived equation, in _coefficients order; the
    powers of p that no part names are zero."""
    polys = derived_polynomials()
    named = {(poly, power) for _, poly, power in PARTS}
    for name, poly in polys.items():
        for (power,), coefficient in poly.terms():
            assert (name, power) in named or coefficient == 0, (name, power)
    return [polys[poly].coeff_monomial(P**power) for _, poly, power in PARTS]


def _draws(count: int) -> list[tuple[float, float, float, float]]:
    rng = random.Random(20130423)
    return [
        (rng.uniform(-20.0, 20.0), rng.uniform(-5.0, 5.0),
         10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-6.0, 0.0))
        for _ in range(count)
    ]


def misfits(draws) -> list[str]:
    """Names of the momentum._coefficients parts that differ from the
    derived ones by more than ULPS at some draw, each compared exactly on
    the draw's float values."""
    names = set()
    parts = derived_parts()
    terms = [sp.Add.make_args(sp.expand(part)) for part in parts]
    for draw in draws:
        # sp.Rational of a float is its exact binary value
        point = {symbol: sp.Rational(value)
                 for symbol, value in zip((SIGMA1, SIGMA2, K, BETA), draw)}
        for (name, _, _), part, part_terms, value in zip(
            PARTS, parts, terms, momentum._coefficients(*draw)
        ):
            budget = ULPS * sp.Rational(1, 2**52) * sum(
                abs(term.subs(point)) for term in part_terms
            )
            exact = part.subs(point)
            value = complex(value)
            error = (abs(sp.Rational(value.real) - sp.re(exact))
                     + abs(sp.Rational(value.imag) - sp.im(exact)))
            if error > budget:
                names.add(name)
    return sorted(names)


def test_coefficients_are_the_derived_equation():
    """All ten parts match the first-order derivation to a few ulp."""
    assert misfits(_draws(8)) == []


@pytest.mark.parametrize("index", range(len(PARTS)), ids=[n for n, _, _ in PARTS])
def test_derivation_catches_a_slipped_part(monkeypatch, index):
    """A part off by one part in 10^6 fails the comparison, and no other."""
    exact = momentum._coefficients

    def slipped(*args):
        parts = list(exact(*args))
        parts[index] = parts[index] * (1.0 + 1e-6)
        return tuple(parts)

    monkeypatch.setattr(momentum, "_coefficients", slipped)
    assert misfits(_draws(8)) == [PARTS[index][0]]


def test_deformed_exponents_are_the_derived_roots():
    """phi = p^s at large p: 6 s^2 + 20 s + 14 = 0 from the leading parts
    (a4, b3, c2), with roots -7/3 and -1; psi = phi/p lowers both by one."""
    s = sp.Symbol("s")
    polys = derived_polynomials()
    leading = [polys[name].coeff_monomial(P**power)
               for name, power in (("a", 4), ("b", 3), ("c", 2))]
    indicial = sp.expand((leading[0] * s * (s - 1) + leading[1] * s
                          + leading[2]) / BETA)
    assert indicial == 6 * s**2 + 20 * s + 14
    roots = sorted(sp.solve(indicial, s))
    assert roots == [sp.Rational(-7, 3), -1]
    assert momentum._DEFORMED_EXPONENTS == tuple(float(r - 1) for r in roots)
