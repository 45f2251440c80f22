"""Exact Kratzer radial moments by the hypervirial recursion, in mpmath.

The Kratzer radial equation is the Coulomb one with l(l + 1) replaced by
L(L + 1), L = lam - 1, lam = 1/2 + sqrt((l + 1/2)^2 + gamma^2), and the
inverse Bohr radius s = mu g2 / hbar^2 = gamma^2 / re.  Kramers'
hypervirial recursion (Pasternack, Proc. Natl. Acad. Sci. 23, 91, 1937)
then gives every <1/r^p>, p = 1..4, in closed form from N = lam + n:

    m1 = 1/N^2,  m2 = 1/(N^3 (lam - 1/2)),  m3 = m2/(lam (lam - 1)),
    m4 = (3 m3 - m2/N^2) / (2 (lam - 3/2)(lam + 1/2)),

with <1/r^p> = s^p m_p.  Everything is evaluated at 60 digits from the
float inputs and rounded once, and nothing here imports kratzerml, so it
is a reference that shares no code with the quadrature or closed-form
routes it checks.
"""

import mpmath

DIGITS = 60
PLANCK_H = "6.62607015e-34"  # J s, exact


def _unit_moments(gamma, n: int, l: int) -> list:
    # m1..m4 of the state (n, l) at well shape gamma; call inside workdps
    half = mpmath.mpf(1) / 2
    lam = half + mpmath.sqrt((l + half) ** 2 + mpmath.mpf(gamma) ** 2)
    big_n = lam + n
    m1 = 1 / big_n**2
    m2 = 1 / (big_n**3 * (lam - half))
    m3 = m2 / (lam * (lam - 1))
    m4 = (3 * m3 - m2 / big_n**2) / (2 * (lam - 3 * half) * (lam + half))
    return [m1, m2, m3, m4]


def inverse_power_moments(gamma: float, n: int, l: int, scale: float) -> list[float]:
    """<1/r^p> in m^-p for p = 1, 2, 3, 4, with s = scale taken exactly.

    scale is the float s = gamma^2 / re a caller also hands to
    spectrum.matrix_element_closed, so that its rounding is no part of a
    difference between the two.
    """
    with mpmath.workdps(DIGITS):
        s = mpmath.mpf(scale)
        return [
            float(s**p * m) for p, m in enumerate(_unit_moments(gamma, n, l), 1)
        ]


def shift(g1: float, g2: float, mu: float, beta: float, n: int, l: int) -> float:
    """First-order shift 4 beta mu <(E0 - V)^2> in J, V = g1/r^2 - g2/r.

    gamma^2 = 2 mu g1 / hbar^2 and E0 = -hbar^2 s^2 / (2 mu N^2); the
    square is expanded into m1..m4, which 60 digits absorb.
    """
    with mpmath.workdps(DIGITS):
        hbar = mpmath.mpf(PLANCK_H) / (2 * mpmath.pi)
        g1, g2, mu = mpmath.mpf(g1), mpmath.mpf(g2), mpmath.mpf(mu)
        gamma = mpmath.sqrt(2 * mu * g1) / hbar
        s = mu * g2 / hbar**2
        unit = _unit_moments(gamma, n, l)
        e0 = -((hbar * s) ** 2) * unit[0] / (2 * mu)  # unit[0] = 1/N^2
        m1, m2, m3, m4 = (s**p * m for p, m in enumerate(unit, 1))
        # <(E0 - V)^2> = E0^2 - 2 E0 <V> + <V^2>
        mean_v = g1 * m2 - g2 * m1
        mean_v2 = g1 * g1 * m4 - 2 * g1 * g2 * m3 + g2 * g2 * m2
        square = e0 * e0 - 2 * e0 * mean_v + mean_v2
        return float(4 * mpmath.mpf(beta) * mu * square)
