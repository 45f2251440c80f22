import math

import pytest

from kratzerml import estimate
from kratzerml.estimate import (
    ATTRIBUTION_LABEL,
    FitResult,
    NoPositiveGapError,
    beta_upper_bound,
    fit_parameters,
    zpe_theoretical,
)
from kratzerml.physmodel import (
    InputError,
    Molecule,
    QuantumNumbers,
    energy_from_joule,
    energy_to_joule,
    gamma_of,
)
from kratzerml.spectrum import energy_deformed, level_energies

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)


def h2_with_zpe(zpe):
    return Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=zpe)


def test_zpe_frozen_value():
    """Undeformed H2 zero-point energy above the well minimum."""
    assert zpe_theoretical(H2, 0.0) == pytest.approx(2174.48014658202, abs=1e-8)


def test_zpe_rises_with_beta():
    assert zpe_theoretical(H2, 1e42) > zpe_theoretical(H2, 0.0)


def test_bound_frozen_values():
    out = beta_upper_bound(H2)
    assert out.delta_cm1 == pytest.approx(4.8198534179800845, rel=1e-10)
    assert out.beta_max == pytest.approx(2.0438270938539445e43, rel=1e-10)
    assert out.min_length_max_angstrom == pytest.approx(
        0.010660639052336328, rel=1e-10
    )


def test_bound_closes_the_gap():
    """At beta_max the theoretical ZPE reproduces experiment."""
    out = beta_upper_bound(H2)
    assert zpe_theoretical(H2, out.beta_max) == pytest.approx(
        H2.zpe_exp_cm1, abs=1e-6
    )


def test_reference_gap_gives_reference_length():
    """A 4.4 cm^-1 gap maps to the 1.0186e-2 A length bound."""
    mol = h2_with_zpe(zpe_theoretical(H2, 0.0) + 4.4)
    out = beta_upper_bound(mol)
    assert out.delta_cm1 == pytest.approx(4.4, abs=1e-9)
    assert out.min_length_max_angstrom == pytest.approx(1.0186e-2, rel=1e-4)


def test_bound_scales_as_sqrt_delta():
    """Quadrupling the gap doubles the length bound (beta is linear)."""
    base = zpe_theoretical(H2, 0.0)
    one = beta_upper_bound(h2_with_zpe(base + 4.4))
    four = beta_upper_bound(h2_with_zpe(base + 17.6))
    assert four.beta_max == pytest.approx(4.0 * one.beta_max, rel=1e-12)
    assert four.min_length_max_angstrom == pytest.approx(
        2.0 * one.min_length_max_angstrom, rel=1e-12
    )


def test_bound_requires_positive_gap():
    with pytest.raises(NoPositiveGapError):
        beta_upper_bound(h2_with_zpe(2100.0))
    with pytest.raises(NoPositiveGapError):
        beta_upper_bound(h2_with_zpe(zpe_theoretical(H2, 0.0)))


def test_bound_requires_experimental_zpe():
    mol = Molecule("H2", 78844.9005, 0.73652, 0.5039)
    with pytest.raises(InputError, match="has no zpe_exp_cm1"):
        beta_upper_bound(mol)


def test_attribution_label_travels():
    out = beta_upper_bound(H2)
    assert out.attribution == ATTRIBUTION_LABEL
    assert "upper bound" in out.attribution


def synthetic_levels(mol, beta, n_max=4, l_max=3):
    rows = []
    for n in range(n_max):
        for l in range(l_max):
            lev = energy_deformed(mol, beta, QuantumNumbers(n, l))
            rows.append((n, l, energy_from_joule(lev.e, "cm-1")))
    return rows


MOL0 = Molecule("synth", 45000.0, 1.1, 1.2)
BETA0 = 6.736924e41
LEVELS = synthetic_levels(MOL0, BETA0)


def test_fit_round_trip():
    out = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(45000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(1.1, rel=1e-6)
    assert out.beta == pytest.approx(BETA0, rel=1e-6)
    assert out.rss_cm2 < 1e-12


def test_fit_round_trip_from_nonzero_beta():
    out = fit_parameters(LEVELS, 1.2, (44000.0, 1.15, 3e41))
    assert out.converged
    assert out.de_cm1 == pytest.approx(45000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(1.1, rel=1e-6)
    assert out.beta == pytest.approx(BETA0, rel=1e-6)


# gamma = 1000.5, where the float64 brace of the shift loses the most
# digits; beta is 10^-2.5 / (mu De), as in the benchmark's fit sweep
HEAVY = Molecule("heavy", 50000.0, 2.5, 54.0)
BETA_HEAVY = 3.5e40


@pytest.mark.parametrize("beta", [BETA_HEAVY, 0.0], ids=["deformed", "undeformed"])
def test_fit_round_trip_heavy(beta):
    out = fit_parameters(synthetic_levels(HEAVY, beta), 54.0, (55000.0, 2.3, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(50000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(2.5, rel=1e-6)
    if beta:
        assert out.beta == pytest.approx(beta, rel=1e-6)
    else:
        assert 0.0 <= out.beta <= 1e-9 * BETA_HEAVY


@pytest.mark.parametrize(
    "levels, mu_amu, init, expected",
    [
        (LEVELS, 1.2, (52000.0, 1.0, 0.0), dict(
            de_cm1=45000.00000000001, re_angstrom=1.099999999999998,
            beta=6.7369239999345496e+41, rss_cm2=1.4941527535550406e-22,
            iterations=11, converged=True,
        )),
        (synthetic_levels(HEAVY, BETA_HEAVY), 54.0, (55000.0, 2.3, 0.0), dict(
            de_cm1=50000.0, re_angstrom=2.5000000000002283,
            beta=3.5000000099735204e+40, rss_cm2=2.7144833619574704e-22,
            iterations=9, converged=True,
        )),
        # free best beta De^2 < 0: the search reruns with it clamped at 0
        (synthetic_levels(MOL0, 0.0), 1.2, (52000.0, 1.0, 0.0), dict(
            de_cm1=45000.000000000015, re_angstrom=1.0999999999999979,
            beta=0.0, rss_cm2=2.8537731133079455e-22,
            iterations=17, converged=True,
        )),
        ([(n, l, e, 1.0 + 0.5 * n + 0.25 * l) for n, l, e in LEVELS], 1.2,
         (52000.0, 1.0, 0.0), dict(
            de_cm1=45000.000000000015, re_angstrom=1.0999999999999859,
            beta=6.736923999634411e+41, rss_cm2=1.2582855368485914e-21,
            iterations=11, converged=True,
        )),
    ],
    ids=["light", "heavy", "clamped", "weighted"],
)
def test_fit_frozen_values(levels, mu_amu, init, expected):
    """Every bit of a light (gamma 62) and a heavy (gamma 1000) free fit,
    of a fit that takes the clamped rerun and of a weighted fit, residuals
    included."""
    result = fit_parameters(levels, mu_amu, init)
    assert result == FitResult(
        **expected, residuals=residuals_at(levels, mu_amu, result)
    )


def residuals_at(levels, mu_amu, result):
    """The residual rows of a fit, spelled as the report's arithmetic: the
    rows in (n, l) order, each level from level_energies of the returned
    (De, re) and mu at the returned beta, in cm^-1."""
    rows = sorted(
        ((n, l, e_obs, row[0] if row else 1.0) for n, l, e_obs, *row in levels),
        key=lambda r: (r[0], r[1]),
    )
    fitted = Molecule("fit", result.de_cm1, result.re_angstrom, mu_amu)
    energies = level_energies(fitted, result.beta, [(n, l) for n, l, _, _ in rows])
    return tuple(
        (n, l, e_obs, energy_from_joule(e0 + de, "cm-1"), weight)
        for (n, l, e_obs, weight), (e0, de) in zip(rows, energies)
    )


def test_fit_permutation_invariance():
    """Input order cannot change a single bit of the fit result."""
    shuffled = [LEVELS[i] for i in (7, 2, 11, 0, 5, 9, 1, 10, 4, 8, 3, 6)]
    a = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    b = fit_parameters(shuffled, 1.2, (52000.0, 1.0, 0.0))
    assert (a.de_cm1, a.re_angstrom, a.beta, a.rss_cm2) == (
        b.de_cm1,
        b.re_angstrom,
        b.beta,
        b.rss_cm2,
    )


def test_fit_accepts_integral_floats_as_quantum_numbers():
    """A data row may spell n and l as floats such as 2.0; the fit is the
    one of the integer rows, bit for bit."""
    floats = [(float(n), float(l), e) for n, l, e in LEVELS]
    assert fit_parameters(floats, 1.2, (52000.0, 1.0, 0.0)) == fit_parameters(
        LEVELS, 1.2, (52000.0, 1.0, 0.0))


def test_fit_weights_accepted():
    weighted = [(n, l, e, 2.0) for n, l, e in LEVELS]
    out = fit_parameters(weighted, 1.2, (52000.0, 1.0, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(45000.0, rel=1e-6)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_parameters(LEVELS[:3], 1.2, (52000.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fit_parameters(LEVELS + [LEVELS[0]], 1.2, (52000.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fit_parameters([(0.5, 0, -40000.0)] + LEVELS, 1.2, (52000.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fit_parameters(
            [(0, 0, -40000.0, -1.0)] + LEVELS[1:], 1.2, (52000.0, 1.0, 0.0)
        )
    with pytest.raises(ValueError):
        fit_parameters([(0, 0, -40000.0, 1.0, 9)] + LEVELS[1:], 1.2,
                       (52000.0, 1.0, 0.0))
    for mu_amu in (-1.2, math.nan, math.inf):
        with pytest.raises(ValueError, match="reduced mass"):
            fit_parameters(LEVELS, mu_amu, (52000.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fit_parameters(LEVELS, 1.2, (-52000.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fit_parameters(LEVELS, 1.2, (52000.0, 0.0, 0.0))
    # a non-finite start is refused as such, not as the Molecule it builds
    for de0, re0 in ((math.nan, 1.0), (math.inf, 1.0), (52000.0, math.inf),
                     (52000.0, math.nan)):
        with pytest.raises(ValueError, match="initial (De|re) must be positive"):
            fit_parameters(LEVELS, 1.2, (de0, re0, 0.0))
    for beta0 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fit_parameters(LEVELS, 1.2, (52000.0, 1.0, beta0))
    with pytest.raises(ValueError, match="De > 0"):
        fit_parameters([(n, l, -e) for n, l, e in LEVELS], 1.2,
                       (52000.0, 1.0, 0.0))
    for bad in ((math.inf, 0, -40000.0), (0, math.inf, -40000.0),
                (math.nan, 0, -40000.0), (0, math.nan, -40000.0),
                (True, 0, -40000.0), (0, False, -40000.0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            fit_parameters([bad] + LEVELS[1:], 1.2, (52000.0, 1.0, 0.0))
    for bad in ((0, 0, math.nan), (0, 0, -math.inf),
                (0, 0, -40000.0, math.inf), (0, 0, -40000.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            fit_parameters([bad] + LEVELS[1:], 1.2, (52000.0, 1.0, 0.0))


def test_fit_flat_slope_is_a_value_error():
    """A start whose probe one _FD_STEP away gives bitwise the same
    residuals has no Gauss-Newton step: ValueError, not ZeroDivisionError
    (recorded from a random scan of huge and tiny level sets)."""
    x = 4.813857962693639e-156
    levels = [(0, 0, -x), (1, 0, -0.99 * x), (0, 1, -0.98 * x), (2, 0, -0.97 * x)]
    with pytest.raises(ValueError, match="do not move with ln gamma"):
        fit_parameters(levels, 10.944612404735363,
                       (7.786978577753563e30, 0.05006701107882202, 0.0))


@pytest.mark.parametrize("size", [
    1e147,  # each squared slope is finite and their fsum overflows
    1e150,  # each squared slope is inf
])
def test_fit_unsummable_slope_is_a_value_error(monkeypatch, size):
    """Residuals that jump by `size` between the start and its probe give
    a slope whose sum of squares leaves the doubles: ValueError.  The
    start's residuals are size v, v = (1, -1, -1, 1) orthogonal to both
    level columns; the probe's shift column is v, which absorbs them."""
    wavenumber = energy_to_joule(1.0, "cm-1")
    v = (1.0, -1.0, -1.0, 1.0)

    def levels_at(mol, beta, nl):
        shift = (1.0, 2.0, 3.0, 4.0) if mol.re_angstrom == 1.0 else v
        return [(wavenumber, k * wavenumber) for k in shift]

    monkeypatch.setattr(estimate, "level_energies", levels_at)
    observed = [(n, 0, 1.0 - size * k) for n, k in enumerate(v)]
    with pytest.raises(ValueError, match="slope .* not finite"):
        fit_parameters(observed, 1.2, (52000.0, 1.0, 0.0))


def test_fit_budget_exhaustion_reported(monkeypatch):
    monkeypatch.setattr(estimate, "_MAX_EVALUATIONS", 3)
    out = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    assert not out.converged


def test_fit_ignores_initial_beta():
    """beta is projected out, so its starting value cannot change a bit."""
    a = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    b = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 10.0 * BETA0))
    assert a == b


def test_fit_recovers_zero_beta():
    """An undeformed truth comes back at beta 0 up to roundoff."""
    out = fit_parameters(synthetic_levels(MOL0, 0.0), 1.2, (52000.0, 1.0, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(45000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(1.1, rel=1e-6)
    assert 0.0 <= out.beta <= 1e-9 * BETA0


def test_fit_level_evaluation_budget(monkeypatch):
    """The 12-level fit takes 11 level sets of 12 levels each, at beta = 1,
    and one more at the returned beta for its residuals."""
    calls = []

    def counted(mol, beta, nl):
        calls.extend((beta, row) for row in nl)
        return level_energies(mol, beta, nl)

    monkeypatch.setattr(estimate, "level_energies", counted)
    out = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    assert out.converged
    assert out.iterations <= 11
    assert [beta for beta, _ in calls] == (
        [1.0] * (out.iterations * len(LEVELS)) + [out.beta] * len(LEVELS))
    assert [row for _, row in calls] == [row[:2] for row in LEVELS] * (
        out.iterations + 1)


def test_fit_evaluates_the_start_once(monkeypatch):
    """The strict start check's levels are the search's first level set."""
    points = []

    def counted(mol, beta, nl):
        points.extend((mol.de_cm1, mol.re_angstrom) for _ in nl)
        return level_energies(mol, beta, nl)

    monkeypatch.setattr(estimate, "level_energies", counted)
    result = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    assert result.converged
    assert points[:len(LEVELS)] == [(52000.0, 1.0)] * len(LEVELS)
    assert points.count((52000.0, 1.0)) == len(LEVELS)


@pytest.mark.parametrize("max_evaluations", [1, 3, 10_000])
def test_fit_evaluates_the_end_point_once(monkeypatch, max_evaluations):
    """The returned beta and RSS come from the search's own level set at
    the returned gamma: no level is evaluated outside the counted sets but
    the residuals' one set, at the returned parameters."""
    gammas = []
    betas = []

    def counted(mol, beta, nl):
        gammas.extend(gamma_of(mol) for _ in nl)
        betas.append(beta)
        return level_energies(mol, beta, nl)

    monkeypatch.setattr(estimate, "level_energies", counted)
    monkeypatch.setattr(estimate, "_MAX_EVALUATIONS", max_evaluations)
    result = fit_parameters(LEVELS, 1.2, (52000.0, 1.0, 0.0))
    assert result.converged == (max_evaluations == 10_000)
    assert len(gammas) == (result.iterations + 1) * len(LEVELS)
    assert result.iterations <= max_evaluations
    assert betas == [1.0] * result.iterations + [result.beta]
    *sets, residual_set = [
        gammas[i:i + len(LEVELS)] for i in range(0, len(gammas), len(LEVELS))
    ]
    assert all(len(set(one)) == 1 for one in sets)
    # the returned (De, re) give back the set's gamma to a few ulps, while the
    # search's last sets lie ~20 ulps apart
    end = gamma_of(Molecule("fit", result.de_cm1, result.re_angstrom, 1.2))
    assert residual_set == [end] * len(LEVELS)
    near = [one for one in sets if abs(one[0] - end) <= 1e-15 * end]
    assert len(near) == 1


@pytest.fixture
def solved(monkeypatch):
    """Every projection estimate._solve_linear returns, in call order."""
    seen = []
    solve = estimate._solve_linear

    def spy(s, a, b, gap, clamp):
        seen.append(solve(s, a, b, gap, clamp))
        return seen[-1]

    monkeypatch.setattr(estimate, "_solve_linear", spy)
    return seen


def test_fit_halves_a_step_that_does_not_lower_the_rss(solved):
    """From De = 1e5 cm^-1 and re = 50 A the heavy levels' Gauss-Newton
    steps overshoot: each step that does not lower the RSS is retried at
    half its length, and the fit still recovers (De, re, beta)."""
    out = fit_parameters(synthetic_levels(HEAVY, BETA_HEAVY), 54.0,
                         (100000.0, 50.0, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(50000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(2.5, rel=1e-6)
    assert out.beta == pytest.approx(BETA_HEAVY, rel=1e-6)
    # replay the search: after each accepted point a probe at s + _FD_STEP
    # for the slope, then trial steps until one lowers the RSS
    cur, rejected, halved = solved[0], None, 0
    for proj in solved[1:]:
        if proj.s == cur.s + estimate._FD_STEP:
            continue
        step = proj.s - cur.s
        if rejected is not None:
            assert step == pytest.approx(0.5 * rejected, rel=1e-9)
            halved += 1
        if proj.rss < cur.rss:
            cur, rejected = proj, None
        else:
            rejected = step
    assert cur.rss == out.rss_cm2
    assert halved > 0


def test_fit_stops_where_the_step_underflows(solved):
    """From De = 450 cm^-1 and re = 0.55 A the search ends on a Gauss-Newton
    step too small to move ln gamma: the last level set evaluated is the
    slope's probe, no trial follows it, and the fit is converged."""
    out = fit_parameters(LEVELS, 1.2, (450.0, 0.55, 0.0))
    assert out.converged
    assert out.de_cm1 == pytest.approx(45000.0, rel=1e-6)
    assert out.re_angstrom == pytest.approx(1.1, rel=1e-6)
    assert out.beta == pytest.approx(BETA0, rel=1e-6)
    assert solved[-1].s == solved[-2].s + estimate._FD_STEP
    assert solved[-2].rss == out.rss_cm2


def test_fit_reports_a_zero_beta_as_positive_zero():
    """A clamped fit whose beta De^2 sums to exactly zero returns +0.0, not
    the -0.0 of a negated zero sum."""
    out = fit_parameters(synthetic_levels(HEAVY, 0.0), 54.0, (25000.0, 5.0, 0.0))
    assert out.converged
    assert out.beta == 0.0 and math.copysign(1.0, out.beta) == 1.0


@pytest.fixture
def fail_level_set(monkeypatch):
    """fail_level_set(k) makes the fit's k-th level set raise ValueError,
    as an undefined level does, and returns the re of every set asked for,
    in call order."""

    def install(failing):
        asked = []

        def spy(mol, beta, nl):
            asked.append(mol.re_angstrom)
            if len(asked) == failing:
                raise ValueError("injected: a level is undefined")
            return level_energies(mol, beta, nl)

        monkeypatch.setattr(estimate, "level_energies", spy)
        return asked

    return install


def test_fit_halves_a_step_whose_level_set_fails(fail_level_set):
    """The first Gauss-Newton step's level set fails: that step counts as
    not lowering the RSS, is retried at half its length, and the fit still
    recovers the heavy (De, re, beta)."""
    asked = fail_level_set(3)
    out = fit_parameters(synthetic_levels(HEAVY, BETA_HEAVY), 54.0,
                         (55000.0, 2.3, 0.0))
    assert out.converged
    assert out.iterations == 12
    assert out.de_cm1 == pytest.approx(50000.0, rel=1e-12)
    assert out.re_angstrom == pytest.approx(2.5, rel=1e-12)
    assert out.beta == pytest.approx(BETA_HEAVY, rel=1e-6)
    # sets 1 and 2 are the start and its slope probe; 3 the failed step
    s = [math.log(re / 2.3) for re in asked]
    assert s[0] == 0.0 and s[1] == pytest.approx(estimate._FD_STEP, rel=1e-6)
    assert s[3] == pytest.approx(0.5 * s[2], rel=1e-9)
    assert len(asked) == out.iterations + 1  # and the residuals' set


def test_fit_reruns_clamped_when_the_first_probe_fails(fail_level_set, solved):
    """The slope probe's level set fails: the free search ends unconverged
    at its start, where beta De^2 < 0, and the clamped rerun from the same
    levels converges."""
    fail_level_set(2)
    out = fit_parameters(synthetic_levels(HEAVY, BETA_HEAVY), 54.0,
                         (55000.0, 2.3, 0.0))
    assert out.converged
    assert out.iterations == 12
    assert out.de_cm1 == pytest.approx(50000.0, rel=1e-12)
    assert out.re_angstrom == pytest.approx(2.5, rel=1e-12)
    assert out.beta == pytest.approx(BETA_HEAVY, rel=1e-6)
    free, rerun = solved[:2]
    assert free.s == rerun.s == 0.0 and free.gap == rerun.gap
    assert free.c < 0.0 and rerun.c == 0.0
    assert all(proj.c >= 0.0 for proj in solved[1:])
