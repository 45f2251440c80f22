import pytest

from kratzerml.momentum import (
    BRANCHES,
    MomentumProblem,
    fit_slope,
    indicial_exponents,
    integrate_branch,
)
from kratzerml.verify import CHECKS, run_checks

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


def test_every_check_passes(preset_results):
    _, results = preset_results
    for res in results:
        assert res.passed, f"{res.name}: {res.worst:.3e} > {res.tolerance:.3e}"


def test_exponent_checks_match_full_range_slopes():
    """The exponent checks integrate only the fitted decade; their worst
    deviations are == the ones of full-range integrations."""
    grids = {check.name: check.grids["small"] for check in CHECKS}
    expected = {"exponents-deformed": 0.0, "exponents-undeformed": 0.0}
    setups = {"exponents-deformed": (1.0, (1.0, 2.0e3)),
              "exponents-undeformed": (0.0, (0.5, 2.0e3))}
    for name, (beta, p_range) in setups.items():
        for branch, sigmas in grids[name].items():
            for sigma1 in sigmas:
                prob = MomentumProblem(sigma1=sigma1, sigma2=0.4, k=1.0, beta=beta)
                target = dict(zip(BRANCHES, indicial_exponents(prob)))[branch]
                slope = fit_slope(integrate_branch(prob, branch, p_range))
                expected[name] = max(expected[name], abs(slope - target))
    worst = {
        res.name: res.worst for res in run_checks("small") if res.name in expected
    }
    assert worst == expected


def test_tolerance_override_and_preset_validation():
    assert {res.tolerance for res in run_checks("small", tol=0.5)} == {0.5}
    with pytest.raises(ValueError):
        run_checks("huge")
