"""Tests of the benchmark itself: python3 -m pytest perfbench/selftest.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["cli-cold", "fit-sweep"])
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    make = inputs.GENERATORS[workload]
    first = make(7, tmp_path / "a")
    again = make(7, tmp_path / "b")
    other = make(8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    strip = json.dumps(first).replace(str(tmp_path / "a"), "")
    assert strip == json.dumps(again).replace(str(tmp_path / "b"), "")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    heavy = [op for op in first if (op.get("molecule") or op).get("heavy")]
    assert 0 < len(heavy) < len(first)


def _bound_report(op: dict) -> dict:
    mol = op["molecule"]
    ref = inputs.bound_reference(mol["de"], mol["re"], mol["mu"], mol["zpe_exp"])
    doc = {
        "schema": gate.SCHEMA,
        "command": "bound",
        "molecule": {
            "name": mol["name"],
            "de": {"value": mol["de"], "unit": "cm-1"},
            "re": {"value": mol["re"], "unit": "angstrom"},
            "mu": {"value": mol["mu"], "unit": "amu"},
            "zpe_exp": {"value": mol["zpe_exp"], "unit": "cm-1"},
        },
    }
    doc.update({k: {"value": v, "unit": "x"} for k, v in ref.items()})
    return doc


def test_corrupted_report_counts_as_failed(tmp_path):
    op = inputs.cli_cold_ops(3, tmp_path)[2]
    assert op["kind"] == "bound" and op["molecule"] is not None
    good = _bound_report(op)
    ledger = run.Ledger()
    ledger.gate(op, 0, json.dumps(good))
    assert ledger.failures == []

    off = json.loads(json.dumps(good))
    off["beta_max"]["value"] *= 1.0 + 1e-6
    other_schema = dict(good, schema="kratzerml-report/0")
    echo = json.loads(json.dumps(good))
    echo["molecule"]["mu"]["value"] += 1e-9
    for rc, text in [
        (0, json.dumps(good)[:-20]),
        (0, json.dumps(other_schema)),
        (0, json.dumps(off)),
        (0, json.dumps(echo)),
        (1, json.dumps(good)),
    ]:
        ledger.gate(op, rc, text)
    assert ledger.attempted == 6
    assert len(ledger.failures) == 5


def test_fit_gate_rejects_unconverged_and_off_truth():
    op = {"kind": "fit", "truth": {"de": 5e4, "re": 1.0, "beta": 1e44}}

    def report(converged, de):
        return json.dumps({"schema": gate.SCHEMA, "command": "fit", "result": {
            "de": {"value": de}, "re": {"value": 1.0}, "beta": {"value": 1e44},
            "converged": converged}})

    assert gate.check(op, 0, report(True, 5e4 * (1 + 1e-8))) is None
    assert gate.check(op, 0, report(True, 5e4 * (1 + 1e-5))) is not None
    assert gate.check(op, 0, report(False, 5e4)) is not None


def test_self_times_on_a_synthetic_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(spans.self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]
    assert list(spans.inside([0, 1, 2, 2], parent, 1)) == [False, True, True, False]
    with pytest.raises(ValueError):
        spans.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0])


def test_tracer_dump_and_aggregate(tmp_path):
    tracer = spans.Tracer()
    leaf = tracer.wrap("spectrum.energy_deformed", lambda x: x)

    def fit(n):
        for i in range(n):
            leaf(i)

    def failing():
        leaf(0)
        raise ValueError("guarded")

    fit = tracer.wrap("estimate.fit_parameters", fit)
    failing = tracer.wrap("shell.main", failing)
    fit(3)
    leaf(9)
    with pytest.raises(ValueError):
        failing()
    tracer.dump(tmp_path / "t.npz")
    agg = spans.aggregate([tmp_path / "t.npz"])
    assert agg["spans"]["spectrum.energy_deformed"]["calls"] == 5
    assert agg["level_evals"] == 3
    assert agg["spans"]["shell.main"]["errors"] == 1
    with np.load(tmp_path / "t.npz") as data:
        roots = data["parent"] == -1
        covered = float(np.sum(data["end"][roots] - data["start"][roots]))
    total_self = sum(s["self_s"] for s in agg["spans"].values())
    assert total_self == pytest.approx(covered, rel=1e-12)


def test_importtime_counts_outermost_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy.integrate",
        "import time:         5 |          5 |     numpy",
        "import time:        40 |         75 |   scipy",
        "import time:         2 |          2 |   scipy.optimize",
        "import time:       100 |        177 | kratzerml",
    ])
    totals = run.parse_importtime(text)
    assert totals["kratzerml"] == 177
    assert totals["scipy"] == 77
    assert totals["numpy"] == 5


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_run_emits_every_per_layer_metric(capsys):
    """One short traced run per workload: every per-layer metric is
    present, and every traced layer does work on some workload."""
    seen: dict[str, float] = {}
    for workload in inputs.GENERATORS:
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "2", "--trace", "1"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(last)
        assert code == 0 and result["correct"], result
        metrics = result["metrics"]
        assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
        for name, metric in metrics.items():
            seen[name] = max(seen.get(name, 0.0), metric["value"])
    for module_name, attr in spans.FUNCTIONS:
        label = f"{module_name.rsplit('.', 1)[1]}.{attr}"
        assert seen.get(f"{label}_ms", 0.0) > 0.0, label
    for counter in ("shell.quad.neval", "oracle.quad.neval", "oracle.quad.subintervals",
                    "momentum.solve_ivp.nfev", "estimate.minimize.nfev",
                    "estimate.level_evals", "estimate.minimize.useful_ratio",
                    "import.scipy_ms", "import.modules"):
        assert seen[counter] > 0.0, counter
