import inspect
import json
import math
from functools import partial

import numpy as np
import pytest
import scipy.integrate

import kratzerml.spectrum
import kratzerml.verify
import kratzerml.wavefunctions
from kratzerml.momentum import (
    BRANCHES,
    SLOPE_DECADES,
    MomentumProblem,
    OdeSolution,
    fit_slope,
    indicial_exponents,
    integrate_branch,
)
from kratzerml.shell import main
from kratzerml.verify import CHECKS, CheckResult, _worst, run_checks, worst_offender
from references import ode_rhs_deformed

NAMES = [
    "oracle-moments",
    "oracle-correction",
    "dual-formula",
    "quantization",
    "exponents-deformed",
    "exponents-undeformed",
    "fuchsian",
    "normalization",
    "orthogonality",
]
TOLERANCES = [1e-8, 1e-8, 1e-12, 1e-12, 0.02, 0.02, 1e-12, 1e-8, 1e-7]
COMPARISONS = {
    "paper": [576, 144, 1000, 33, 12, 7, 1000, 42, 60],
    "small": [32, 8, 100, 12, 6, 4, 100, 16, 12],
}


@pytest.fixture(scope="module", params=["paper", "small"])
def preset_results(request):
    return request.param, run_checks(request.param)


def test_table_pins_names_and_tolerances(preset_results):
    preset, results = preset_results
    assert [res.name for res in results] == NAMES
    assert [res.tolerance for res in results] == TOLERANCES
    assert [res.comparisons for res in results] == COMPARISONS[preset]
    assert [res.detail for res in results] == [check.detail for check in CHECKS]


def test_every_runner_yields_its_deviations():
    """Runners yield one deviation per comparison and reduce nothing:
    run_checks takes the worst of every check by one rule."""
    for check in CHECKS:
        run = check.run.func if isinstance(check.run, partial) else check.run
        assert inspect.isgeneratorfunction(run), check.name


def test_every_check_passes(preset_results):
    _, results = preset_results
    for res in results:
        assert res.passed, f"{res.name}: {res.worst:.3e} > {res.tolerance:.3e}"


def _exponent_batches(preset):
    """(name, problems, branches, p_range) of each exponent check's grid."""
    for check in CHECKS:
        if check.name.startswith("exponents-"):
            beta, p_range = check.run.args
            cases = check.grids[preset]
            branches = [branch for branch, sigmas in cases.items() for _ in sigmas]
            probs = [
                MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=beta)
                for sigmas in cases.values() for sigma1 in sigmas
            ]
            yield check.name, probs, branches, p_range


def _deviations(probs, branches, solutions):
    return [
        abs(fit_slope(solution) - indicial_exponents(prob)[BRANCHES.index(branch)])
        for prob, branch, solution in zip(probs, branches, solutions)
    ]


def test_exponent_checks_match_full_range_slopes():
    """The exponent checks integrate only the fitted decade; their worst
    deviations are == the ones of a full-range integration of the same
    batch."""
    for preset in ("paper", "small"):
        worst = {res.name: res.worst for res in run_checks(preset)}
        for name, probs, branches, p_range in _exponent_batches(preset):
            full = integrate_branch(probs, branches, p_range)
            assert worst[name] == max(_deviations(probs, branches, full)), preset


def test_batched_slopes_are_as_accurate_as_single_runs():
    """On both presets' grids every member takes one RK4 step per grid
    interval, as its single run does, so batching changes no bit."""
    for preset in ("paper", "small"):
        for name, probs, branches, p_range in _exponent_batches(preset):
            p_stop = p_range[1] / 10.0**SLOPE_DECADES
            batch = integrate_branch(probs, branches, p_range, p_stop=p_stop)
            for prob, branch, solution in zip(probs, branches, batch):
                alone = integrate_branch(prob, branch, p_range, p_stop=p_stop)
                assert np.all(solution.values == alone.values), (
                    preset, name, branch, prob.sigma1)
                assert fit_slope(solution) == fit_slope(alone)


def _dop853_psi(prob, branch, grid):
    """psi of the branch's unit power-law ray on grid, by scipy's DOP853
    at rtol 1e-12, integrated inward from grid[-1]."""
    s = indicial_exponents(prob)[BRANCHES.index(branch)] + 1.0
    p_max = grid[-1]
    result = scipy.integrate.solve_ivp(
        lambda p, y: [y[1], ode_rhs_deformed(prob, p, y[0], y[1])],
        (p_max, grid[0]), [1.0 + 0.0j, s / p_max], method="DOP853",
        rtol=1e-12, atol=1e-12, t_eval=grid[::-1],
    )
    assert result.success, result.message
    return result.y[0, ::-1] / grid


#: about H2's l = 0 coupling gamma^2 (gamma = 35.755), the stiffest sigma1 the
#: substep rule has to carry
_H2_SIGMA1 = 1278.0

#: worst |slope - DOP853's| and |psi/DOP853's - 1| (after matching the
#: constant at p_max) over the fitted decade, measured: 1.44e-7 and
#: 3.33e-7 on the paper grids (the undeformed fast branch at sigma1 = 6),
#: 1.56e-5 and 3.61e-5 at the undeformed sigma1 = 1278 (7.3e-3 and 1.7e-2
#: with one step per grid interval), 6.2e-10 and 1.4e-9 at sigma1 = 1278,
#: beta = 1 (9.9e-9 and 2.3e-8 with one step)
_DOP853_DEVIATION = {
    "paper": (2e-7, 5e-7),
    "undeformed H2": (2.5e-5, 6e-5),
    "deformed H2": (1e-9, 2.5e-9),
}


def _dop853_cases():
    for _, probs, branches, p_range in _exponent_batches("paper"):
        for prob, branch in zip(probs, branches):
            yield "paper", prob, branch, p_range
    yield ("undeformed H2", MomentumProblem(_H2_SIGMA1, 0.4, 1.0), "fast-decay",
           (0.5, 2.0e3))
    for branch in BRANCHES:
        yield ("deformed H2", MomentumProblem(_H2_SIGMA1, 0.4, 1.0, 1.0), branch,
               (1.0, 2.0e3))


def test_branches_match_dop853():
    """The RK4 branches and their slopes on the fitted decade of the
    exponent checks, against an independent DOP853 run."""
    for case, prob, branch, p_range in _dop853_cases():
        p_stop = p_range[1] / 10.0**SLOPE_DECADES
        solution = integrate_branch(prob, branch, p_range, p_stop=p_stop)
        reference = _dop853_psi(prob, branch, solution.grid)
        ratio = reference[-1] / solution.values[-1]
        psi_dev = float(np.max(np.abs(ratio * solution.values / reference - 1.0)))
        slope_dev = abs(
            fit_slope(solution)
            - fit_slope(OdeSolution(solution.grid, reference, branch))
        )
        slope_tol, psi_tol = _DOP853_DEVIATION[case]
        assert slope_dev <= slope_tol, (case, branch, prob.sigma1, slope_dev)
        assert psi_dev <= psi_tol, (case, branch, prob.sigma1, psi_dev)


def test_paper_preset_makes_one_ode_solve_per_exponent_check(monkeypatch):
    calls = []
    original = kratzerml.verify.integrate_branch

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kratzerml.verify, "integrate_branch", counted)
    run_checks("paper")
    assert len(calls) == 2


@pytest.mark.parametrize("draws", [100, 1000])
def test_fuchsian_draws_are_the_scalar_stream(draws):
    """The fuchsian check draws its numbers in one call, and they are
    the numbers of four scalar uniform calls per draw, bit for bit."""
    rng = np.random.default_rng(19081887)
    scalar = [
        [
            rng.uniform(-5.0, 15.0),
            rng.uniform(0.0, 5.0),
            rng.uniform(math.log(1e-2), math.log(1e2)),
            rng.uniform(-6.0, math.log10(0.5)),
        ]
        for _ in range(draws)
    ]
    batched = kratzerml.verify._fuchsian_draws(draws)
    assert all(type(value) is float for row in batched for value in row)
    assert batched == scalar


@pytest.mark.parametrize("draws", [100, 1000, 20000])
def test_dual_draws_are_the_scalar_stream(draws):
    """The dual-formula check maps five raw words per draw to its numbers,
    and they are the numbers of its scalar uniform and integers calls,
    interleaved as the check once made them, bit for bit."""
    rng = np.random.default_rng(20260814)
    scalar = []
    for _ in range(draws):
        log_gamma = rng.uniform(math.log(2.0), math.log(40.0))
        re_angstrom = rng.uniform(0.5, 2.0)
        log_mu = rng.uniform(math.log(0.2), math.log(20.0))
        n, l = rng.integers(0, 9), rng.integers(0, 9)
        log_frac = rng.uniform(-8.0, -2.0)
        scalar.append((log_gamma, re_angstrom, log_mu, n, l, log_frac))
    batched = list(kratzerml.verify._dual_draws(draws))
    kinds = (float, float, float, int, int, float)
    assert all(
        type(value) is kind for row in batched for value, kind in zip(row, kinds)
    )
    assert batched == scalar


def test_dual_formula_is_the_wrapper_route():
    """dual-formula reads E0 and the (De, re) shift straight from
    level_energies; its deviations are, bit for bit, those of the route
    through energy_unperturbed and energy_deformed that it once took."""
    from kratzerml.physmodel import QuantumNumbers, couplings_from_kratzer
    from kratzerml.spectrum import (
        correction_general, energy_deformed, energy_unperturbed)
    from kratzerml.verify import _rel_dev, _synthetic_molecule

    wrapped = []
    for log_gamma, re_angstrom, log_mu, n, l, log_frac in (
            kratzerml.verify._dual_draws(1000)):
        qn = QuantumNumbers(n, l)
        mol = _synthetic_molecule(math.exp(log_gamma), re_angstrom,
                                  math.exp(log_mu))
        c = couplings_from_kratzer(mol)
        shift_unit = correction_general(c, mol.mu_kg, 1.0, qn)
        e0 = energy_unperturbed(mol, qn)
        beta = 10.0 ** log_frac * abs(e0) / shift_unit
        via_kratzer = energy_deformed(mol, beta, qn).de
        via_couplings = correction_general(c, mol.mu_kg, beta, qn)
        wrapped.append(_rel_dev(via_kratzer, via_couplings))
    assert list(kratzerml.verify._dual_formula(1000)) == wrapped


def test_tolerance_override_and_preset_validation():
    assert {res.tolerance for res in run_checks("small", tol=0.5)} == {0.5}
    with pytest.raises(ValueError):
        run_checks("huge")
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            run_checks("small", tol=tol)


def _nan_slope(original):
    # the second slope fitted comes out NaN; max keeps a NaN only first
    calls = []

    def fit_slope(*args):
        calls.append(None)
        return math.nan if len(calls) == 2 else original(*args)
    return fit_slope


def _nan_overlap(original):
    # the second overlap of every call comes out NaN
    def radial_overlap(*args):
        results = list(original(*args))
        results[1] = results[1]._replace(value=math.nan)
        return results
    return radial_overlap


@pytest.mark.parametrize("name, target, mutant", [
    ("exponents-deformed", "fit_slope", _nan_slope),
    ("orthogonality", "radial_overlap", _nan_overlap),
])
def test_a_nan_comparison_fails_its_check(monkeypatch, capsys, name, target, mutant):
    original = getattr(kratzerml.verify, target)
    monkeypatch.setattr(kratzerml.verify, target, mutant(original))
    result = next(res for res in run_checks("small") if res.name == name)
    assert not result.passed
    assert math.isnan(result.worst)
    # at --tol 1e-15 finite deviations fail too, and the NaN outranks them
    for argv in (["verify", "--json"], ["verify", "--json", "--tol", "1e-15"]):
        monkeypatch.setattr(kratzerml.verify, target, mutant(original))
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["worst_offender"] == name


def test_worst_offender_ranks_a_nan_check_first():
    def result(name, worst, tolerance=1e-7):
        return CheckResult(name, worst, tolerance, 1, "")

    passing = [result("a", 1e-8), result("b", 0.0)]
    assert worst_offender(passing) is None
    assert worst_offender([]) is None
    far = result("far", 1e293)  # 1e300 times over its tolerance
    unbounded = result("unbounded", math.inf)
    lost = result("lost", math.nan)
    assert worst_offender(passing + [far]) == "far"
    assert worst_offender(passing + [far, unbounded]) == "unbounded"
    assert worst_offender([far, unbounded, lost] + passing) == "lost"
    assert worst_offender([lost, far, unbounded]) == "lost"


def _times(factor):
    return lambda original: lambda *args: original(*args) * factor


def _each_times(factor, kind):
    return lambda original: lambda *args: kind(x * factor for x in original(*args))


def _plus(offset):
    return lambda original: lambda *args: original(*args) + offset


def _alpha_by_n(original):
    # a uniform rescaling of alpha rescales r and keeps states orthogonal
    def make(gamma, qn, re):
        state = original(gamma, qn, re)
        alpha = state.shape.alpha * (1.0 + 1e-6 * qn.n)
        return state._replace(shape=state.shape._replace(alpha=alpha))
    return make


def _fields(**change):
    # change maps a field of the parameter set to a function of the set
    def mutate(original):
        def params(prob):
            par = original(prob)
            return par._replace(**{name: f(par) for name, f in change.items()})
        return params
    return mutate


#: (check, module, name, mutant): the closed form a check guards, patched
#: where verify reads it, never the check's own oracle
_MUTANTS = [
    ("oracle-correction", kratzerml.spectrum, "_correction_brace",
     _times(1.0 + 1e-6)),
    ("dual-formula", kratzerml.verify, "correction_general", _times(1.0 + 1e-9)),
    ("quantization", kratzerml.verify, "energy_unperturbed", _times(1.0 + 1e-9)),
    ("quantization", kratzerml.verify, "quantize_swave",
     _each_times(1.0 + 1e-9, list)),
    ("dual-formula", kratzerml.spectrum, "lambda_of", _times(1.0 + 1e-9)),
    ("quantization", kratzerml.spectrum, "lambda_of", _times(1.0 + 1e-9)),
    ("oracle-moments", kratzerml.verify, "matrix_element_closed",
     _times(1.0 + 1e-6)),
    ("exponents-deformed", kratzerml.verify, "indicial_exponents",
     _each_times(1.01, tuple)),
    ("exponents-undeformed", kratzerml.verify, "indicial_exponents",
     _each_times(1.01, tuple)),
    ("normalization", kratzerml.wavefunctions, "_log_norm", _plus(1e-6)),
    ("orthogonality", kratzerml.verify, "make_radial_state", _alpha_by_n),
]

#: the sum rules hold by construction, whatever rho1, rho2, z1, z2 or q
#: are (CHANGES.md FOUND); ROADMAP item 13 replaces them with the
#: coefficient identity, and these then turn into passes
_BLIND = pytest.mark.xfail(strict=True, reason="fuchsian checks sum rules only")
_MUTANT_PARAMS = [
    pytest.param(*mutant, id=f"{mutant[0]}-{mutant[2]}") for mutant in _MUTANTS
] + [
    pytest.param("fuchsian", kratzerml.verify, "heun_params_general",
                 _fields(rho2=lambda par: par.rho2 * (1.0 + 1e-6)),
                 marks=_BLIND, id="fuchsian-rho2"),
    pytest.param("fuchsian", kratzerml.verify, "heun_params_general",
                 _fields(c=lambda par: par.d, d=lambda par: par.c),
                 marks=_BLIND, id="fuchsian-c-d-swap"),
]


@pytest.mark.parametrize("name, module, target, mutant", _MUTANT_PARAMS)
def test_each_check_catches_its_mutant(monkeypatch, name, module, target, mutant):
    """Every check passes on its small grid and fails once the closed form
    it guards is perturbed by a plausible error (mutation testing)."""
    check = next(check for check in CHECKS if check.name == name)
    grid = check.grids["small"]
    assert _worst(check.run(grid)) <= check.tolerance
    monkeypatch.setattr(module, target, mutant(getattr(module, target)))
    worst = _worst(check.run(grid))
    assert worst > check.tolerance, f"{name} misses {target}: {worst:.3e}"
