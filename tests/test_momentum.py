import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kratzerml.momentum import (
    BRANCHES,
    GridError,
    HeunParams,
    MomentumProblem,
    NonQuantizedError,
    OdeSolution,
    QuantizationBreakdownError,
    StiffnessError,
    fit_slope,
    heun_params_general,
    heun_params_inverse_square,
    heun_residual,
    hypergeometric_params,
    indicial_exponents,
    integrate_branch,
    momentum_wavefunction_undeformed,
    quantize_swave,
)
from kratzerml.physmodel import (
    AMU_TO_KG,
    HBAR,
    WAVENUMBER_TO_JOULE,
    Molecule,
    QuantumNumbers,
    batch_columns,
    couplings_from_kratzer,
)
from kratzerml.spectrum import energy_unperturbed
from kratzerml.verify import _fuchsian_draws
from kratzerml.momentum import ode_rhs_deformed


def test_problem_validation():
    with pytest.raises(ValueError):
        MomentumProblem(sigma1=0.0, sigma2=1.0, k=0.0)
    with pytest.raises(ValueError):
        MomentumProblem(sigma1=0.0, sigma2=1.0, k=1.0, beta=-1.0)
    prob = MomentumProblem(sigma1=-3.0, sigma2=0.0, k=2.0)
    assert prob.beta == 0.0


@pytest.mark.parametrize("name, value", [
    ("sigma1", math.nan), ("sigma1", -math.inf), ("sigma2", math.nan),
    ("sigma2", math.inf), ("k", math.inf), ("k", math.nan),
    ("beta", math.nan), ("beta", math.inf),
])
def test_problem_rejects_nonfinite(name, value):
    params = {"sigma1": 0.0, "sigma2": 1.0, "k": 1.0, "beta": 0.0, name: value}
    with pytest.raises(ValueError):
        MomentumProblem(**params)


def test_rhs_beta_zero_reduction():
    """At beta = 0 the equation is the plain undeformed one."""
    prob = MomentumProblem(sigma1=1.3, sigma2=0.7, k=2.0)
    p, phi, dphi = 1.7, 0.3 - 0.2j, 0.1 + 0.5j
    got = ode_rhs_deformed(prob, p, phi, dphi)
    k2 = prob.k * prob.k
    expected = -(
        (4.0 * p + 2.0j * prob.sigma2) * dphi + (2.0 - prob.sigma1) * phi
    ) / (p * p + k2)
    assert got == pytest.approx(expected, rel=1e-14)


def test_rhs_rejects_origin():
    prob = MomentumProblem(sigma1=0.0, sigma2=1.0, k=1.0)
    with pytest.raises(ValueError):
        ode_rhs_deformed(prob, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ode_rhs_deformed(prob, -1.0, 1.0, 0.0)


def test_indicial_exponents_deformed():
    """{-10/3, -2} regardless of couplings: 3s(s-1) + 13s + 7 = 0 shifted.

    The gap 4/3 separates the branches at every sigma1, including the
    degenerate -1/4 and the complex regime below it, so the deformation
    always selects a unique decaying branch.
    """
    for sigma1, sigma2 in ((0.0, 0.0), (-5.0, 3.0), (100.0, 0.1),
                           (2.0, 1.0), (-0.25, 1.0), (-2.0, 1.0)):
        prob = MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=1.0, beta=2.0)
        fast, slow = indicial_exponents(prob)
        assert (fast, slow) == (complex(-10.0 / 3.0), -2.0 + 0.0j)
        assert (slow - fast).real == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_indicial_exponents_undeformed():
    # real and separated above sigma1 = -1/4
    prob = MomentumProblem(sigma1=2.0, sigma2=1.0, k=1.0)
    assert indicial_exponents(prob) == (-4.0 + 0.0j, -1.0 + 0.0j)
    # nu = 1/2 at sigma1 = 0; the pair degenerates at sigma1 = -1/4
    zero = MomentumProblem(sigma1=0.0, sigma2=1.0, k=1.0)
    assert indicial_exponents(zero) == (-3.0 + 0.0j, -2.0 + 0.0j)
    edge = MomentumProblem(sigma1=-0.25, sigma2=1.0, k=1.0)
    assert indicial_exponents(edge) == (-2.5 + 0.0j, -2.5 + 0.0j)
    sing = MomentumProblem(sigma1=-1.0, sigma2=1.0, k=1.0)
    fast, slow = indicial_exponents(sing)
    assert fast == pytest.approx(-2.5 - 1j * math.sqrt(0.75))
    assert slow == fast.conjugate()
    # below -1/4 the pair is complex with equal modulus: decay selects
    # neither branch without the deformation
    deep = MomentumProblem(sigma1=-2.0, sigma2=1.0, k=1.0)
    fast, slow = indicial_exponents(deep)
    assert fast.imag != 0.0 and slow == fast.conjugate()
    assert abs(fast) == pytest.approx(abs(slow), rel=1e-15)


def _dense_solution():
    grid = np.geomspace(1.0, 10.0, 201)
    values = (grid.astype(complex)) ** -2.0
    return grid, values


def test_solution_validation():
    grid, values = _dense_solution()
    sol = OdeSolution(grid=grid, values=values, branch="slow-decay")
    assert sol.branch in BRANCHES
    with pytest.raises(ValueError):
        OdeSolution(grid=grid[::-1], values=values, branch="slow-decay")
    with pytest.raises(ValueError):
        OdeSolution(grid=grid, values=values[:-1], branch="slow-decay")
    with pytest.raises(ValueError):
        OdeSolution(grid=np.geomspace(1.0, 10.0, 21), values=values[:21],
                    branch="slow-decay")
    with pytest.raises(ValueError):
        OdeSolution(grid=grid, values=values, branch="rising")


def test_solution_is_frozen():
    grid, values = _dense_solution()
    sol = OdeSolution(grid=grid, values=values, branch="fast-decay")
    with pytest.raises(ValueError):
        sol.grid[0] = 99.0
    with pytest.raises(ValueError):
        sol.values[0] = 0.0


def test_integrate_branch_preconditions():
    prob = MomentumProblem(sigma1=2.0, sigma2=1.0, k=1.0)
    with pytest.raises(ValueError):
        integrate_branch(prob, "sideways", (1e-3, 1e3))
    with pytest.raises(ValueError):
        integrate_branch(
            prob, "fast-decay", (1e-3, 1e3), points_per_decade=100
        )
    with pytest.raises(ValueError):
        integrate_branch(prob, "fast-decay", (0.0, 10.0))
    with pytest.raises(ValueError):
        integrate_branch(prob, "fast-decay", (10.0, 1.0))
    # under three decades the asymptotic start is not trustworthy ...
    with pytest.raises(ValueError):
        integrate_branch(prob, "fast-decay", (0.5, 50.0))
    # ... unless explicit initial data overrides it
    sol = integrate_branch(prob, "fast-decay", (0.5, 50.0), ic=(1.0, -4.0 / 50.0))
    assert sol.grid[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        integrate_branch(prob, "fast-decay", (0.5, 50.0), ic=(0.0, 0.0))


DEFORMED_SIGMA1 = (-2.0, -1.0, -0.26, 0.0, 2.0, 10.0)


def test_deformed_slopes():
    """Decay exponents -10/3 and -2 for every coupling strength."""
    for sigma1 in DEFORMED_SIGMA1:
        prob = MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=1.0)
        for branch, target in (("fast-decay", -10.0 / 3.0), ("slow-decay", -2.0)):
            sol = integrate_branch(prob, branch, (1.0, 2e3))
            assert fit_slope(sol) == pytest.approx(target, abs=0.02), (
                sigma1,
                branch,
            )


def test_undeformed_slopes():
    """-5/2 -+ nu in the regular regime.

    The slow branch is held to moderate nu: inward integration amplifies
    the initial-condition error of the slow solution by (p_max/p)^(2 nu),
    which overruns the fit window for nu much above 1.5.
    """
    cases = {
        "fast-decay": (0.0, 0.75, 2.0, 6.0),
        "slow-decay": (0.0, 0.75, 2.0),
    }
    for branch, sigmas in cases.items():
        sign = -1.0 if branch == "fast-decay" else 1.0
        for sigma1 in sigmas:
            nu = math.sqrt(0.25 + sigma1)
            prob = MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0)
            sol = integrate_branch(prob, branch, (0.5, 2e3))
            assert fit_slope(sol) == pytest.approx(
                -2.5 + sign * nu, abs=0.02
            ), (sigma1, branch)


def test_fit_slope_validation():
    grid, values = _dense_solution()
    sol = OdeSolution(grid=grid, values=values, branch="fast-decay")
    assert fit_slope(sol) == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_slope(sol, window_decades=0.0)
    with pytest.raises(ValueError):
        fit_slope(sol, window_decades=1e-9)


def test_fit_slope_refuses_window_below_grid():
    grid, values = _dense_solution()
    sol = OdeSolution(grid=grid, values=values, branch="fast-decay")
    with pytest.raises(ValueError):
        fit_slope(sol, window_decades=2.0)


def _same_tail(full: OdeSolution, cut: OdeSolution) -> bool:
    m = cut.grid.size
    return (
        bool(np.all(full.grid[-m:] == cut.grid))
        and bool(np.all(full.values[-m:] == cut.values))
    )


_member = st.tuples(
    st.sampled_from(BRANCHES),
    st.floats(min_value=-2.0, max_value=10.0),
    st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0)),
)


@settings(max_examples=50, deadline=None)
@given(
    members=st.lists(_member, min_size=1, max_size=3),
    p_stop=st.floats(min_value=0.5, max_value=2e3, exclude_max=True),
)
def test_p_stop_keeps_the_bits_of_the_full_integration(members, p_stop):
    """A run cut at p_stop is the top of the full run of the same batch,
    bit for bit, for every member; one member is passed as single items."""
    branches = [branch for branch, _, _ in members]
    probs = [
        MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=beta)
        for _, sigma1, beta in members
    ]
    if len(members) == 1:
        probs, branches = probs[0], branches[0]
    full = integrate_branch(probs, branches, (0.5, 2e3))
    cut = integrate_branch(probs, branches, (0.5, 2e3), p_stop=p_stop)
    if len(members) == 1:
        full, cut = [full], [cut]
    assert len(full) == len(cut) == len(members)
    for full_member, cut_member in zip(full, cut):
        assert _same_tail(full_member, cut_member)
        # the cut run keeps the last grid point at or below p_stop, no more
        assert cut_member.grid[0] <= p_stop
        assert (cut_member.grid.size == full_member.grid.size
                or cut_member.grid[1] > p_stop)
        window = math.log10(2e3 / cut_member.grid[0])
        assert fit_slope(cut_member, window) == fit_slope(full_member, window)


def test_batch_pairing():
    """Sequences pair element by element, a single item pairs with every
    element of the other, and only single items give a bare solution."""
    probs = [MomentumProblem(sigma1=s, sigma2=0.4, k=1.0, beta=1.0)
             for s in (-1.0, 2.0)]
    single = integrate_branch(probs[0], "slow-decay", (1.0, 2e3), p_stop=200.0)
    assert isinstance(single, OdeSolution)
    for prob, branch, expected in (
        (probs, "slow-decay", ["slow-decay"] * 2),
        (probs[0], list(BRANCHES), list(BRANCHES)),
        (probs, list(BRANCHES), list(BRANCHES)),
        ([probs[0]], ["slow-decay"], ["slow-decay"]),
    ):
        batch = integrate_branch(prob, branch, (1.0, 2e3), p_stop=200.0)
        assert isinstance(batch, list)
        assert [sol.branch for sol in batch] == expected
        assert all(isinstance(sol, OdeSolution) for sol in batch)
        assert all(np.all(sol.grid == single.grid) for sol in batch)


def test_batch_refuses_unequal_lengths_and_bad_members():
    probs = [MomentumProblem(sigma1=s, sigma2=0.4, k=1.0, beta=1.0)
             for s in (-1.0, 0.0, 2.0)]
    with pytest.raises(ValueError, match="cannot pair 3 items with 2"):
        integrate_branch(probs, list(BRANCHES), (1.0, 2e3))
    with pytest.raises(ValueError, match="cannot pair 1 items with 2"):
        integrate_branch(probs[:1], list(BRANCHES), (1.0, 2e3))
    with pytest.raises(ValueError, match="empty"):
        integrate_branch([], "fast-decay", (1.0, 2e3))
    with pytest.raises(ValueError, match="branch must be one of"):
        integrate_branch(probs[0], ["fast-decay", "sideways"], (1.0, 2e3))


def test_stiffness_error_names_the_batch_sigma1_range():
    """A branch that overflows is reported with the batch's sigma1.

    The undeformed fast branch at sigma1 = 1e5 grows as p^-317.7 inward,
    past the largest double within one decade of p_max."""
    probs = [MomentumProblem(sigma1=s, sigma2=0.4, k=1.0)
             for s in (2.0, 1e5, -1.0)]
    with pytest.raises(
        StiffnessError, match=r"\(sigma1 in \[-1, 100000\]\): a value turned"
    ):
        integrate_branch(probs, "fast-decay", (1.0, 2e3))
    with pytest.raises(StiffnessError, match=r"\(sigma1 = 100000\)"):
        integrate_branch(probs[1], "fast-decay", (1.0, 2e3))


def test_p_stop_preconditions():
    prob = MomentumProblem(sigma1=2.0, sigma2=0.4, k=1.0, beta=1.0)
    for p_stop in (2e3, 3e3, math.nan):
        with pytest.raises(ValueError):
            integrate_branch(prob, "fast-decay", (1.0, 2e3), p_stop=p_stop)
    full = integrate_branch(prob, "fast-decay", (1.0, 2e3))
    for p_stop in (1.0, 0.5, -1.0):
        at_or_below = integrate_branch(
            prob, "fast-decay", (1.0, 2e3), p_stop=p_stop
        )
        assert at_or_below.grid.size == full.grid.size
        assert _same_tail(full, at_or_below)
    ic = (1.0, -4.0 / 50.0)
    full_ic = integrate_branch(prob, "slow-decay", (0.5, 50.0), ic=ic)
    cut_ic = integrate_branch(prob, "slow-decay", (0.5, 50.0), ic=ic, p_stop=5.0)
    assert cut_ic.grid[0] <= 5.0 < cut_ic.grid[1]
    assert _same_tail(full_ic, cut_ic)


def test_quantize_swave_values():
    prob = MomentumProblem(sigma1=2.0, sigma2=1.5, k=1.0)
    mu = 0.8
    energies = quantize_swave(prob, 3, mu)
    assert len(energies) == 4
    for n, e in enumerate(energies):
        k_n = 1.5 / (n + 0.5 + 1.5)
        assert e == pytest.approx(-k_n * k_n / (2.0 * mu), rel=1e-15)
    assert energies == sorted(energies)  # rising toward dissociation


def test_quantize_swave_matches_closed_spectrum():
    """Pole-condition energies equal the l = 0 closed-form levels."""
    for gamma in (2.0, 35.755):
        re_m = 1.0e-10
        mu = AMU_TO_KG
        de_j = (gamma * HBAR / re_m) ** 2 / (2.0 * mu)
        mol = Molecule("synth", de_j / WAVENUMBER_TO_JOULE, 1.0, 1.0)
        c = couplings_from_kratzer(mol)
        prob = MomentumProblem(sigma1=c.sigma1(mu), sigma2=c.sigma2(mu), k=1.0)
        energies = quantize_swave(prob, 10, mu)
        for n, e in enumerate(energies):
            assert e == pytest.approx(
                energy_unperturbed(mol, QuantumNumbers(n, 0)), rel=1e-12, abs=0.0
            )


def test_quantize_swave_validation():
    with pytest.raises(QuantizationBreakdownError):
        quantize_swave(
            MomentumProblem(sigma1=-0.25 - 1e-12, sigma2=1.0, k=1.0), 2, 1.0
        )
    with pytest.raises(ValueError):
        quantize_swave(MomentumProblem(sigma1=1.0, sigma2=0.0, k=1.0), 2, 1.0)
    regular = MomentumProblem(sigma1=1.0, sigma2=1.0, k=1.0)
    for n_max in (-1, 2.0, 2.5):
        with pytest.raises(ValueError, match="n_max"):
            quantize_swave(regular, n_max, 1.0)
    for mu in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="reduced mass"):
            quantize_swave(regular, 2, mu)


def test_swave_rule_at_and_below_the_hardy_constant():
    """At sigma1 = -1/4 (nu = 0) the pole condition and the closed-form
    wavefunction accept the same k_n; just below it both refuse with one
    type, which a NonQuantizedError handler catches."""
    mu = 0.8
    edge = MomentumProblem(sigma1=-0.25, sigma2=1.0, k=1.0)
    for n, e in enumerate(quantize_swave(edge, 3, mu)):
        k_n = math.sqrt(-2.0 * mu * e)
        assert k_n == pytest.approx(1.0 / (n + 0.5), rel=1e-15)
        quantized = MomentumProblem(sigma1=-0.25, sigma2=1.0, k=k_n)
        psi = momentum_wavefunction_undeformed(1.0, n, quantized)
        assert math.isfinite(abs(psi))
        with pytest.raises(NonQuantizedError, match="quantization condition"):
            momentum_wavefunction_undeformed(
                1.0, n, MomentumProblem(sigma1=-0.25, sigma2=1.0, k=1.01 * k_n)
            )
    below = MomentumProblem(sigma1=-0.25 - 1e-12, sigma2=1.0, k=2.0)
    for call in (lambda: quantize_swave(below, 2, mu),
                 lambda: momentum_wavefunction_undeformed(1.0, 0, below)):
        with pytest.raises(NonQuantizedError) as caught:
            call()
        assert type(caught.value) is QuantizationBreakdownError


def test_swave_wavefunction_takes_only_a_nonnegative_integer_n():
    """sigma2/k = n + 1/2 + nu also holds for some n < 0 (nu = 1/2 here),
    but no bound state has such an n; a float n is refused too."""
    for n, sigma2 in ((-1, 0.0), (-2, -1.0), (1.0, 2.0)):
        prob = MomentumProblem(sigma1=0.0, sigma2=sigma2, k=1.0)
        with pytest.raises(ValueError, match="nonnegative integer"):
            momentum_wavefunction_undeformed(0.5, n, prob)
    prob = MomentumProblem(sigma1=0.0, sigma2=2.0, k=1.0)
    assert math.isfinite(abs(momentum_wavefunction_undeformed(0.5, 1, prob)))


def test_undeformed_forms_refuse_a_deformation():
    """quantize_swave, the closed-form wavefunction and the hypergeometric
    reduction all hold at beta = 0 only."""
    prob = MomentumProblem(sigma1=2.0, sigma2=1.0, k=0.5, beta=0.3)
    for call in (lambda: quantize_swave(prob, 2, 1.0),
                 lambda: momentum_wavefunction_undeformed(1.0, 0, prob),
                 lambda: hypergeometric_params(prob)):
        with pytest.raises(ValueError, match="only at beta = 0"):
            call()


def test_ode_matches_closed_wavefunction():
    """Inward integration reproduces the closed-form bound state.

    Start four decades above k so the power-law initial data are clean,
    then compare on [k/10, 10 k] after matching one overall constant.
    """
    for sigma1, n in ((2.0, 0), (2.0, 2), (0.75, 1)):
        sigma2 = 1.0
        nu = math.sqrt(0.25 + sigma1)
        k = sigma2 / (n + 0.5 + nu)
        prob = MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=k)
        sol = integrate_branch(prob, "fast-decay", (k / 10.0, 1e4 * k))
        closed = np.array(
            [momentum_wavefunction_undeformed(p, n, prob) for p in sol.grid]
        )
        window = sol.grid <= 10.0 * k
        anchor = int(np.argmin(np.abs(np.log(sol.grid / k))))
        ratio = closed[anchor] / sol.values[anchor]
        dev = np.abs(ratio * sol.values[window] - closed[window]) / np.abs(
            closed[window]
        )
        assert float(dev.max()) < 1e-6, (sigma1, n)


def test_beta_continuity():
    """beta -> 0 joins the undeformed solution on the physical window.

    Identical initial data at p_max = 10 k pin both solutions to the
    same ray; beta = 1e-6/k^2 must stay within 1e-4 of beta = 0 on
    [k/10, 10 k].
    """
    k = 1.0
    for sigma1 in (0.25, 0.5, 1.0):
        for sigma2 in (0.0, 0.4):
            nu = math.sqrt(0.25 + sigma1)
            s = -1.5 - nu
            p_max = 10.0 * k
            ic = (p_max**s, s * p_max ** (s - 1.0))
            base, bent = (
                integrate_branch(
                    MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=k, beta=b),
                    "fast-decay",
                    (k / 10.0, p_max),
                    ic=ic,
                )
                for b in (0.0, 1e-6 / (k * k))
            )
            dev = np.abs(bent.values - base.values) / np.abs(base.values)
            assert float(dev.max()) < 1e-4, (sigma1, sigma2)


def _swapped(prob):
    """The problem with sigma1 and sigma2 exchanged: the printed reading."""
    return MomentumProblem(prob.sigma2, prob.sigma1, prob.k, prob.beta)


def _as_printed(prob):
    """The five-point parameters with the source's printed sigma slots.

    sigma1 sits in c, d, e, f, rho1 and the sqrt(beta) part of rho2, and
    sigma2 in the flat part of rho2, grouped as heun_params_general.
    """
    k, beta = prob.k, prob.beta
    root = math.sqrt(6.0 * beta)
    denom = 1.0 - 6.0 * beta * k * k
    half_cd = 0.5 * prob.sigma1 * root / denom
    half_ef = (prob.sigma1 / k) * (1.0 - 3.0 * beta * k * k) / denom
    return HeunParams(
        a=1.0,
        b=7.0 / 3.0,
        c=1.0 / 6.0 + half_cd,
        d=1.0 / 6.0 - half_cd,
        e=2.0 + half_ef,
        f=2.0 - half_ef,
        rho1=-7.0 / 3.0 - (prob.sigma1 / 3.0) * root,
        rho2=0.5 * beta * k * k + (prob.sigma1 / 6.0) * root + 1.0 / 12.0
        + 0.25 * prob.sigma2,
        z1=0.5 + 0.5 * k * root,
        z2=0.5 - 0.5 * k * root,
        beta=beta,
    )


def test_heun_params_general_structure():
    prob = MomentumProblem(sigma1=3.0, sigma2=0.9, k=0.5, beta=0.8)
    for member in (prob, _swapped(prob)):
        params = heun_params_general(member)
        assert params.a == 1.0 and params.b == pytest.approx(7.0 / 3.0)
        assert params.c + params.d == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert params.e + params.f == pytest.approx(4.0, rel=1e-12)
        assert params.z1 + params.z2 == pytest.approx(1.0, rel=1e-12)
        assert params.z1 - params.z2 == pytest.approx(
            prob.k * math.sqrt(6.0 * prob.beta), rel=1e-12
        )
        assert params.fuchsian_residual() < 1e-12
    printed = heun_params_general(_swapped(prob))
    dim = heun_params_general(prob)
    # the readings disagree whenever sigma1 != sigma2
    assert printed.c != dim.c
    assert printed.rho2 != dim.rho2


def test_heun_params_general_validation():
    with pytest.raises(ValueError):
        heun_params_general(MomentumProblem(sigma1=0.0, sigma2=1.0, k=1.0))
    pole = MomentumProblem(sigma1=0.0, sigma2=1.0, k=1.0, beta=1.0 / 6.0)
    with pytest.raises(ValueError):
        heun_params_general(pole)


def test_heun_fuchsian_relation_seeded():
    """a + b + 1 = c + d + e + f across a random parameter box.

    The printed reading is the swapped problem's parameters, bit for bit.
    """
    rng = np.random.default_rng(19081887)
    for _ in range(200):
        k = 10.0 ** rng.uniform(-1.0, 1.0)
        six_bk2 = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        beta = six_bk2 / (6.0 * k * k)
        prob = MomentumProblem(
            sigma1=rng.uniform(-3.0, 3.0),
            sigma2=rng.uniform(0.0, 3.0),
            k=k,
            beta=beta,
        )
        for member in (prob, _swapped(prob)):
            assert heun_params_general(member).fuchsian_residual() < 1e-12
        assert heun_params_general(_swapped(prob)) == _as_printed(prob)


def test_heun_inverse_square_params():
    params = heun_params_inverse_square(MomentumProblem(2.0, 0.0, 1.0, 0.05))
    assert (params.a, params.b, params.c, params.d, params.e) == (
        11.0 / 6.0,
        1.0,
        1.5,
        1.0 / 3.0,
        2.0,
    )
    assert params.xi0 == pytest.approx(-0.3 / 0.7, rel=1e-12)
    assert params.q == pytest.approx(-1.5 + 0.5 / 0.7, rel=1e-12)
    assert params.fuchsian_residual() < 1e-15


def test_heun_inverse_square_validation():
    with pytest.raises(ValueError, match="sigma2 = 0"):
        heun_params_inverse_square(MomentumProblem(2.0, 0.5, 1.0, 0.05))
    with pytest.raises(ValueError, match="beta must be positive"):
        heun_params_inverse_square(MomentumProblem(2.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="pole"):
        heun_params_inverse_square(MomentumProblem(2.0, 0.0, 1.0, 1.0 / 6.0))
    with pytest.raises(ValueError, match="xi0"):
        heun_params_inverse_square(
            MomentumProblem(2.0, 0.0, math.sqrt(2.0), 0.1)
        )


def _paper_fuchsian_problems():
    """verify's fuchsian problems on the paper preset: each draw's
    problem and its sigma2 = 0 problem."""
    problems, inverse_square = [], []
    for sigma1, sigma2, log_k, log_crowding in _fuchsian_draws(1000):
        k = math.exp(log_k)
        beta = 10.0 ** log_crowding / (6.0 * k * k)
        problems.append(MomentumProblem(sigma1, sigma2, k, beta))
        inverse_square.append(MomentumProblem(sigma1, 0.0, k, beta))
    return problems, inverse_square


def _members_equal(batched, scalars):
    # every field of the batch and its residual, entry by entry, == the
    # member's own call, whose fields are floats
    for name in (field.name for field in dataclasses.fields(batched)):
        column = getattr(batched, name)
        for i, scalar in enumerate(scalars):
            value = column[i] if isinstance(column, np.ndarray) else column
            assert type(getattr(scalar, name)) is float
            assert value == getattr(scalar, name), (name, i)
    residuals = [par.fuchsian_residual() for par in scalars]
    assert all(type(residual) is float for residual in residuals)
    assert batched.fuchsian_residual().tolist() == residuals


@pytest.mark.parametrize("swap", [False, True], ids=["problems", "twins"])
def test_heun_params_general_batch_is_the_scalar_calls(swap):
    problems, _ = _paper_fuchsian_problems()
    if swap:
        problems = [_swapped(prob) for prob in problems]
    batched = heun_params_general(problems)
    assert isinstance(batched.c, np.ndarray) and batched.c.shape == (1000,)
    scalars = [heun_params_general(prob) for prob in problems]
    _members_equal(batched, scalars)


def test_heun_params_inverse_square_batch_is_the_scalar_calls():
    _, problems = _paper_fuchsian_problems()
    batched = heun_params_inverse_square(iter(problems))
    assert isinstance(batched.q, np.ndarray) and batched.q.shape == (1000,)
    scalars = [heun_params_inverse_square(prob) for prob in problems]
    _members_equal(batched, scalars)


_GOOD = MomentumProblem(2.0, 0.5, 1.0, 0.05)
_GOOD_IS = MomentumProblem(2.0, 0.0, 1.0, 0.05)


@pytest.mark.parametrize("params, good, bad, message", [
    (heun_params_general, _GOOD, MomentumProblem(2.0, 0.5, 1.0), "beta must be positive"),
    (heun_params_general, _GOOD, MomentumProblem(2.0, 0.5, 1.0, 1.0 / 6.0), "pole"),
    (heun_params_inverse_square, _GOOD_IS, _GOOD, "sigma2 = 0"),
    (heun_params_inverse_square, _GOOD_IS, MomentumProblem(2.0, 0.0, 1.0),
     "beta must be positive"),
    (heun_params_inverse_square, _GOOD_IS,
     MomentumProblem(2.0, 0.0, 1.0, 1.0 / 6.0), "pole"),
    (heun_params_inverse_square, _GOOD_IS,
     MomentumProblem(2.0, 0.0, math.sqrt(2.0), 0.1), "xi0"),
])
def test_heun_params_batch_refuses_an_invalid_member(params, good, bad, message):
    """One bad member refuses the batch with its own scalar message."""
    with pytest.raises(ValueError) as scalar:
        params(bad)
    assert message in str(scalar.value)
    with pytest.raises(ValueError) as batch:
        params([good, bad, good])
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("params", [heun_params_general, heun_params_inverse_square])
def test_heun_params_refuse_an_empty_batch(params):
    with pytest.raises(ValueError) as rule:
        batch_columns([])
    with pytest.raises(ValueError) as batch:
        params([])
    assert str(batch.value) == str(rule.value)


def test_hypergeometric_params():
    prob = MomentumProblem(sigma1=2.0, sigma2=1.0, k=0.5)
    params = hypergeometric_params(prob)
    assert params.a == 3.0 + 0.0j
    assert params.b == 0.0 + 0.0j
    assert params.c == pytest.approx(4.0)
    assert params.a * params.b == pytest.approx(2.0 - prob.sigma1)
    sing = hypergeometric_params(MomentumProblem(sigma1=-1.0, sigma2=1.0, k=0.5))
    assert sing.a == sing.b.conjugate()
    with pytest.raises(ValueError):
        hypergeometric_params(
            MomentumProblem(sigma1=2.0, sigma2=1.0, k=0.5, beta=1.0)
        )


def test_heun_residual_grid_checks():
    grid = np.geomspace(1.0, 1.001, 4)
    values = np.ones(4, dtype=complex)
    sol = OdeSolution(grid=grid, values=values, branch="fast-decay")
    params = heun_params_inverse_square(MomentumProblem(2.0, 0.0, 1.0, 0.05))
    with pytest.raises(GridError):
        heun_residual(params, sol)
    dense = _dense_solution()
    sol200 = OdeSolution(grid=dense[0], values=dense[1], branch="fast-decay")
    with pytest.raises(TypeError):
        heun_residual("not-params", sol200)


def test_heun_residual_inverse_square_chart():
    """ODE solution satisfies the four-point form on its natural window."""
    beta = 0.05
    prob = MomentumProblem(sigma1=2.0, sigma2=0.0, k=1.0, beta=beta)
    p0 = 1.0 / math.sqrt(6.0 * beta)
    sol = integrate_branch(
        prob, "fast-decay", (p0 / 40.0, 40.0 * p0), points_per_decade=4000
    )
    assert heun_residual(heun_params_inverse_square(prob), sol) < 1e-5


def test_heun_residual_hypergeometric_chart():
    """beta = 0 solution satisfies the hypergeometric form."""
    prob = MomentumProblem(sigma1=3.0, sigma2=0.9, k=0.5)
    sol = integrate_branch(
        prob, "fast-decay", (0.1 * prob.k, 100.0 * prob.k), points_per_decade=8000
    )
    assert heun_residual(hypergeometric_params(prob), sol) < 1e-6


def test_heun_residual_adjudicates_variants():
    """The numerical solution rejects the printed, sigma-swapped reading."""
    prob = MomentumProblem(sigma1=3.0, sigma2=0.9, k=0.5, beta=0.8)
    p0 = 1.0 / math.sqrt(6.0 * prob.beta)
    sol = integrate_branch(
        prob, "fast-decay", (p0 / 40.0, 40.0 * p0), points_per_decade=8000
    )
    good = heun_residual(heun_params_general(prob), sol)
    bad = heun_residual(heun_params_general(_swapped(prob)), sol)
    assert good < 1e-5
    assert bad > 1e-2
    assert good < bad / 1e3


def test_heun_residual_zero_solution():
    grid = np.geomspace(1.0, 10.0, 201)
    zeros = np.zeros(201, dtype=complex)
    sol = OdeSolution(grid=grid, values=zeros, branch="fast-decay")
    params = heun_params_inverse_square(MomentumProblem(2.0, 0.0, 1.0, 0.05))
    assert heun_residual(params, sol) == 0.0


_finite = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=1e-6, max_value=1e6),
    phi=st.tuples(_finite, _finite),
    dphi=st.tuples(_finite, _finite),
    sigma1=st.floats(min_value=-5.0, max_value=50.0),
    sigma2=st.floats(min_value=0.0, max_value=50.0),
    k=st.floats(min_value=1e-3, max_value=1e3),
    beta=st.floats(min_value=0.0, max_value=10.0),
)
def test_rhs_same_bits_on_numpy_and_python_scalars(
    p, phi, dphi, sigma1, sigma2, k, beta
):
    """A direct call of the RHS on Python scalars gives the bits of the
    same call on numpy scalars (integrate_branch evaluates the same B and
    C on numpy arrays), so b/a and c/a have to round as numpy's
    complex-by-real division does."""
    prob = MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=k, beta=beta)
    py = ode_rhs_deformed(prob, p, complex(*phi), complex(*dphi))
    npy = ode_rhs_deformed(
        prob, np.float64(p), np.complex128(complex(*phi)),
        np.complex128(complex(*dphi)),
    )
    assert (float(npy.real), float(npy.imag)) == (py.real, py.imag)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=1e-6, max_value=1e6),
    phi=st.tuples(_finite, _finite),
    dphi=st.tuples(_finite, _finite),
    sigma1=st.floats(min_value=-5.0, max_value=50.0),
    sigma2=st.floats(min_value=0.0, max_value=50.0),
    k=st.floats(min_value=1e-3, max_value=1e3),
    beta=st.floats(min_value=0.0, max_value=10.0),
)
# phi' subnormal: the error is one ulp(0.0), the relative bound ~1e-329
@example(p=208.0, phi=(0.0, 0.0), dphi=(2.2250738585e-313, 2.2250738585e-313),
         sigma1=0.0, sigma2=1.0, k=1.0, beta=0.0)
def test_rhs_matches_the_expanded_equation(p, phi, dphi, sigma1, sigma2, k, beta):
    """The coefficient form is the paper's equation for phi = p psi,

        a = (p^2 + k^2)(1 + 6 beta p^2)
        b = 2 beta p (p^2 + k^2) + 4 p (1 + 6 beta p^2)
            + 2 i sigma2 (1 + 3 beta p^2)
        c = 4 (1 + 7 beta p^2) - 2 beta (p^2 + k^2) - 2 (1 + 6 beta p^2)
            - 4 i beta sigma2 p - sigma1,

    to rounding.  The expanded b and c cancel, so the bound is a few
    epsilon of the terms' magnitudes, not of the result (a random search
    of 2e5 draws saw at most 4.0 epsilon).

    Below the normal range no relative bound holds: a product or quotient
    that lands among the subnormals is off by up to ulp(0.0)/2 whatever
    its size (gradual underflow).  So the bound adds one ulp(0.0) per
    rounding multiply or divide that meets phi or phi': the RHS's two
    complex products (8 multiplies), the expanded form's two (8, whose
    error its division by a scales by 1/a) and that division (2)."""
    prob = MomentumProblem(sigma1=sigma1, sigma2=sigma2, k=k, beta=beta)
    phi, dphi = complex(*phi), complex(*dphi)
    p2, k2 = p * p, k * k
    a = (p2 + k2) * (1.0 + 6.0 * beta * p2)
    b_terms = (
        2.0 * beta * p * (p2 + k2),
        4.0 * p * (1.0 + 6.0 * beta * p2),
        2.0j * sigma2 * (1.0 + 3.0 * beta * p2),
    )
    c_terms = (
        4.0 * (1.0 + 7.0 * beta * p2),
        -2.0 * beta * (p2 + k2),
        -2.0 * (1.0 + 6.0 * beta * p2),
        -4.0j * beta * sigma2 * p,
        -sigma1,
    )
    expanded = -(sum(b_terms) * dphi + sum(c_terms) * phi) / a
    magnitude = (
        sum(map(abs, b_terms)) * abs(dphi) + sum(map(abs, c_terms)) * abs(phi)
    ) / a
    got = ode_rhs_deformed(prob, p, phi, dphi)
    underflow = (8.0 + 8.0 / a + 2.0) * math.ulp(0.0)
    assert abs(got - expanded) <= (
        8.0 * sys.float_info.epsilon * magnitude + underflow
    )
