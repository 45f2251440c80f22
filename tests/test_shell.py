import json
import math
import warnings

import pytest
from hypothesis import example, given, strategies as st

from kratzerml import shell
from kratzerml.estimate import zpe_theoretical
from kratzerml.physmodel import (
    AMU_TO_KG,
    EV_TO_JOULE,
    HBAR,
    WAVENUMBER_TO_JOULE,
    Molecule,
    QuantumNumbers,
    energy_from_joule,
)
from kratzerml.shell import (
    FileFormatError,
    main,
    parse_levels_file,
    parse_molecule_file,
    resolve_molecule,
)
from kratzerml.spectrum import energy_deformed

H2 = Molecule("H2", 78844.9005, 0.73652, 0.5039, zpe_exp_cm1=2179.3)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_MOLECULE = """\
# test molecule
name = X2
De_cm1 = 40000.0   # well depth
re_angstrom = 1.25
mu_amu = 2.0
zpe_exp_cm1 = 900.0
"""


# ------------------------------------------------------- molecule files


def test_parse_molecule(tmp_path):
    mol = parse_molecule_file(write(tmp_path, "x2.molecule", GOOD_MOLECULE))
    assert mol.name == "X2"
    assert mol.de_cm1 == 40000.0
    assert mol.re_angstrom == 1.25
    assert mol.mu_amu == 2.0
    assert mol.zpe_exp_cm1 == 900.0


def test_parse_molecule_name_defaults_to_stem(tmp_path):
    mol = parse_molecule_file(write(
        tmp_path, "cs.molecule",
        "De_cm1 = 1000\nre_angstrom = 2\nmu_amu = 3\n",
    ))
    assert mol.name == "cs"
    assert mol.zpe_exp_cm1 is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("De_cm1 = 1\nwells = 2\n", "unknown key 'wells'"),
        ("De_cm1 = 1\nDe_cm1 = 2\n", "duplicate key 'De_cm1' (first on line 1)"),
        ("De_cm1 = 1\n", "missing required keys: re_angstrom, mu_amu"),
        ("De_cm1 = abc\nre_angstrom = 1\nmu_amu = 1\n", "must be a number"),
        ("De_cm1 =\nre_angstrom = 1\nmu_amu = 1\n", "empty value"),
        ("De_cm1 1000\n", "expected 'key = value'"),
        ("De_cm1 = -5\nre_angstrom = 1\nmu_amu = 1\n", "must be positive"),
        ("De_cm1 = 1\nre_angstrom = 1\nmu_amu = 1\nzpe_exp_cm1 = nan\n",
         "zpe_exp_cm1 must be finite when present"),
    ],
)
def test_parse_molecule_rejects(tmp_path, text, fragment):
    path = write(tmp_path, "bad.molecule", text)
    with pytest.raises(FileFormatError) as err:
        parse_molecule_file(path)
    assert fragment in str(err.value)
    assert "bad.molecule" in str(err.value)


def test_parse_molecule_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        parse_molecule_file(tmp_path / "nope.molecule")


def test_resolve_bundled_h2():
    mol = resolve_molecule("H2")
    assert mol.name == "H2"
    assert mol.de_cm1 == 78844.9005
    assert mol.zpe_exp_cm1 == 2179.3
    assert resolve_molecule("h2").de_cm1 == mol.de_cm1


def test_resolve_unknown_lists_bundled():
    with pytest.raises(FileFormatError) as err:
        resolve_molecule("unobtainium")
    assert "bundled: " in str(err.value)
    assert "h2" in str(err.value)


# --------------------------------------------------------- levels files


GOOD_LEVELS = """\
# observed levels
n,l,E_cm1
0,0,-76000.0
0,1,-75900.0
1,0,-72000.0
1,1,-71900.0
"""


def test_parse_levels(tmp_path):
    rows = parse_levels_file(write(tmp_path, "x.levels", GOOD_LEVELS))
    assert rows == [
        (0, 0, -76000.0, 1.0),
        (0, 1, -75900.0, 1.0),
        (1, 0, -72000.0, 1.0),
        (1, 1, -71900.0, 1.0),
    ]


def test_files_with_a_byte_order_mark_parse_as_without(tmp_path):
    """Some editors save UTF-8 with a leading BOM (U+FEFF)."""
    h2 = (shell._DATA_DIR / "h2.molecule").read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    for name, text, parse in (("h2.molecule", h2, parse_molecule_file),
                              ("x.levels", GOOD_LEVELS, parse_levels_file)):
        (marked / name).write_text(text, encoding="utf-8-sig")
        assert (marked / name).read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse(marked / name) == parse(write(plain, name, text))


@pytest.mark.parametrize("suffix, text, argv", [
    ("molecule", GOOD_MOLECULE, ["bound"]),
    ("levels", GOOD_LEVELS, ["fit", "--mu", "1.2", "--init", "1,1,0"]),
], ids=["molecule", "levels"])
def test_non_utf8_files_exit_2_naming_the_file(capsys, tmp_path, suffix, text, argv):
    """A file saved as Latin-1 is a file-format error, not a crash."""
    path = tmp_path / f"cafe.{suffix}"
    path.write_bytes(("# caf\u00e9\n" + text).encode("latin-1"))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_parse_levels_tabs_and_weights(tmp_path):
    text = "n\tl\tE_cm1\tweight\n0\t0\t-76000.0\t2.5\n1\t0\t-72000.0\t1.5\n"
    rows = parse_levels_file(write(tmp_path, "t.levels", text))
    assert rows == [(0, 0, -76000.0, 2.5), (1, 0, -72000.0, 1.5)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0,0,-76000.0\n", "header must be"),
        ("n,l,E\n0,0,-76000.0\n", "header must be"),
        ("n,l,E_cm1\n0,0\n", "expected 3 columns, got 2"),
        ("n,l,E_cm1\n0,0,-76000.0\n0,0,-75000.0\n",
         "duplicate level (n=0, l=0), first on line 2"),
        ("n,l,E_cm1\n-1,0,-76000.0\n", "nonnegative"),
        ("n,l,E_cm1,weight\n0,0,-76000.0,0\n", "weight must be positive"),
        ("n,l,E_cm1\nzero,0,-76000.0\n", "malformed numeric"),
        ("n,l,E_cm1\n0,0,nan\n", "bad.levels:2: values must be finite"),
        ("n,l,E_cm1\n0,0,-inf\n", "bad.levels:2: values must be finite"),
        ("n,l,E_cm1,weight\n0,0,-76000.0,inf\n",
         "bad.levels:2: values must be finite"),
        ("n,l,E_cm1,weight\n0,0,-76000.0,nan\n",
         "bad.levels:2: values must be finite"),
        ("", "empty file"),
    ],
)
def test_parse_levels_rejects(tmp_path, text, fragment):
    path = write(tmp_path, "bad.levels", text)
    with pytest.raises(FileFormatError) as err:
        parse_levels_file(path)
    assert fragment in str(err.value)


# ------------------------------------------------------------- spectrum


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def assert_refused(capsys, argv):
    """argv exits 2 with one 'error: ' line on stderr and nothing on stdout."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert captured.err.startswith("error: "), argv
    assert captured.err.count("\n") == 1, argv


def test_spectrum_human_table(capsys):
    assert main(["spectrum", "H2", "--nmax", "1", "--lmax", "0"]) == 0
    out = capsys.readouterr().out
    assert "molecule H2" in out
    assert "E0 [cm-1]" in out


def test_spectrum_json_document(capsys):
    code, doc, _ = run_json(
        capsys, ["spectrum", "H2", "--json", "--nmax", "2", "--lmax", "1"]
    )
    assert code == 0
    assert doc["schema"] == "kratzerml-report/1"
    assert doc["command"] == "spectrum"
    assert doc["units"] == "cm-1"
    assert len(doc["levels"]) == 6
    lev = doc["levels"][0]
    assert lev["n"] == 0 and lev["l"] == 0
    expected = energy_from_joule(
        energy_deformed(H2, 0.0, QuantumNumbers(0, 0)).e0, "cm-1"
    )
    assert lev["e0"]["value"] == pytest.approx(expected, rel=1e-12)
    assert lev["de"]["value"] == 0.0


def walk_unit_tags(node):
    """Every float leaf must sit inside a {value, unit} pair."""
    if isinstance(node, dict):
        if "value" in node:
            assert set(node) == {"value", "unit"}
            assert isinstance(node["value"], float)
            assert isinstance(node["unit"], str) and node["unit"]
        else:
            for key, sub in node.items():
                assert not isinstance(sub, float), f"untagged float at {key!r}"
                walk_unit_tags(sub)
    elif isinstance(node, list):
        for sub in node:
            walk_unit_tags(sub)


def test_spectrum_unit_tags(capsys):
    _, doc, _ = run_json(
        capsys,
        ["spectrum", "H2", "--json", "--min-length", "0.01", "--expansion"],
    )
    walk_unit_tags(doc)
    assert doc["deformation"]["beta"]["unit"] == "(kg m/s)^-2"
    assert doc["deformation"]["min_length"]["unit"] == "angstrom"
    assert doc["molecule"]["gamma"]["unit"] == "dimensionless"


def test_spectrum_json_deterministic(capsys):
    argv = ["spectrum", "H2", "--json", "--min-length", "0.01"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_human_output_out_file_matches_json(capsys, tmp_path):
    """--out without --json writes the JSON report and prints the table."""
    argv = ["spectrum", "H2", "--min-length", "0.01"]
    out = tmp_path / "report.json"
    main([*argv, "--out", str(out)])
    with_file = capsys.readouterr().out
    main(argv)
    assert with_file == capsys.readouterr().out
    main([*argv, "--json"])
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_min_length_beta_equivalence(capsys):
    x_m = 0.01 * 1e-10
    beta = (x_m / HBAR) ** 2 / 5.0
    _, via_length, _ = run_json(
        capsys, ["spectrum", "H2", "--json", "--min-length", "0.01"]
    )
    _, via_beta, _ = run_json(
        capsys, ["spectrum", "H2", "--json", "--beta", repr(beta)]
    )
    assert via_length["deformation"]["min_length"]["value"] == pytest.approx(
        0.01, rel=1e-12
    )
    for a, b in zip(via_length["levels"], via_beta["levels"]):
        assert a["de"]["value"] == pytest.approx(b["de"]["value"], rel=1e-12)


def test_spectrum_flags_are_exclusive():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "H2", "--min-length", "0.01", "--beta", "1e40"])
    assert err.value.code == 2


def test_overflowing_min_length_is_an_error_line(capsys):
    # beta = (x/hbar)^2/5 overflows double precision past ~1e130 angstrom
    code = main(["spectrum", "H2", "--min-length", "1e160"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: minimal length")
    assert captured.err.count("\n") == 1


def test_overflowing_beta_is_an_error_line(capsys):
    # beta = 1e308 is finite, but its minimal length sqrt(5 beta) overflows
    code = main(["spectrum", "H2", "--beta", "1e308", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: minimal length overflows")
    assert captured.err.count("\n") == 1


def test_spectrum_units_conversion(capsys):
    _, cm, _ = run_json(capsys, ["spectrum", "H2", "--json"])
    _, ev, _ = run_json(capsys, ["spectrum", "H2", "--json", "--units", "eV"])
    _, jj, _ = run_json(capsys, ["spectrum", "H2", "--json", "--units", "J"])
    e_cm = cm["levels"][0]["e0"]["value"]
    assert ev["levels"][0]["e0"]["unit"] == "eV"
    assert ev["levels"][0]["e0"]["value"] == pytest.approx(
        e_cm * WAVENUMBER_TO_JOULE / EV_TO_JOULE, rel=1e-12
    )
    assert jj["levels"][0]["e0"]["value"] == pytest.approx(
        e_cm * WAVENUMBER_TO_JOULE, rel=1e-12, abs=0.0
    )


def test_spectrum_decompose(capsys):
    _, doc, _ = run_json(
        capsys,
        ["spectrum", "H2", "--json", "--beta", "1e40", "--decompose",
         "--nmax", "0", "--lmax", "0"],
    )
    terms = doc["levels"][0]["decomposition"]
    assert len(terms) == 10
    assert terms[0]["tag"] == "depth"
    assert terms[0]["value"]["value"] == pytest.approx(-78844.9005, rel=1e-12)


def test_spectrum_expansion_fields(capsys):
    _, doc, _ = run_json(
        capsys, ["spectrum", "H2", "--json", "--expansion", "--nmax", "0"]
    )
    lev = doc["levels"][0]
    assert "expansion" in lev and "expansion_minus_exact" in lev
    assert lev["expansion_minus_exact"]["value"] == pytest.approx(
        lev["expansion"]["value"] - lev["e"]["value"], abs=1e-9
    )


def test_spectrum_unknown_molecule_usage_error(capsys):
    assert main(["spectrum", "unobtainium"]) == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_negative_nmax_usage_error(capsys):
    for flag in ("--nmax", "--lmax", "--beta", "--min-length"):
        assert_refused(capsys, ["spectrum", "H2", flag, "-1"])


def test_refused_min_length_names_the_number_given(capsys):
    assert main(["spectrum", "H2", "--min-length", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: minimal length must be nonnegative and finite, "
        "got -1.0 angstrom\n")


def test_spectrum_reports_guarded_levels(capsys, tmp_path):
    # gamma = 0.5 puts lambda below 3/2 at l = 0: the correction has no
    # closed form there, and the run must say so and fail
    de_j = (0.5 * HBAR / 1e-10) ** 2 / (2.0 * AMU_TO_KG)
    path = write(
        tmp_path,
        "shallow.molecule",
        f"De_cm1 = {de_j / WAVENUMBER_TO_JOULE!r}\n"
        "re_angstrom = 1.0\nmu_amu = 1.0\n",
    )
    code = main(["spectrum", str(path), "--json", "--beta", "1e40",
                 "--nmax", "0", "--lmax", "0"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc["levels"][0]
    assert "1.5" in doc["levels"][0]["error"]


@pytest.mark.parametrize("min_length", ["10", "1.4e130"])
def test_spectrum_reports_unbound_levels(capsys, min_length):
    # the first-order shift lifts the H2 ground state to E = E0 + dE >= 0:
    # 55 |E0| at a 10 angstrom minimal length, 1e260 |E0| just under the
    # overflow of beta; such a level is an error, not a bound level
    argv = ["spectrum", "H2", "--min-length", min_length, "--nmax", "0",
            "--lmax", "0"]
    code, doc, _ = run_json(capsys, argv + ["--json"])
    assert code == 1
    assert set(doc["levels"][0]) == {"n", "l", "lambda", "error"}
    assert "dissociation limit" in doc["levels"][0]["error"]
    assert main(argv) == 1
    assert "0 error: first-order level" in capsys.readouterr().out


# ---------------------------------------------------------------- bound


def test_bound_h2(capsys):
    code, doc, _ = run_json(capsys, ["bound", "H2", "--json"])
    assert code == 0
    walk_unit_tags(doc)
    assert doc["delta"]["value"] == pytest.approx(4.8198534179800845, rel=1e-10)
    assert doc["min_length_max"]["value"] == pytest.approx(
        0.010660639052336328, rel=1e-10
    )
    assert doc["beta_max"]["unit"] == "(kg m/s)^-2"
    assert "upper bound" in doc["attribution"]


def test_bound_human_output(capsys):
    assert main(["bound", "H2"]) == 0
    out = capsys.readouterr().out
    assert "minimal length <" in out
    assert "upper bound" in out


def test_bound_requires_zpe(capsys, tmp_path):
    path = write(tmp_path, "nozpe.molecule",
                 "De_cm1 = 40000\nre_angstrom = 1.2\nmu_amu = 2\n")
    assert main(["bound", str(path)]) == 2
    assert "zpe_exp_cm1" in capsys.readouterr().err


def test_bound_negative_gap_fails(capsys, tmp_path):
    g0 = zpe_theoretical(H2, 0.0)
    path = write(
        tmp_path, "h2low.molecule",
        "De_cm1 = 78844.9005\nre_angstrom = 0.73652\nmu_amu = 0.5039\n"
        f"zpe_exp_cm1 = {g0 - 10.0!r}\n",
    )
    assert main(["bound", str(path)]) == 1
    assert "not positive" in capsys.readouterr().err


def test_overflowing_well_depth_is_an_error_line(capsys, tmp_path):
    # De^2 overflows double precision at De = 1e200 cm^-1: bound fails with
    # one error line naming the molecule, and spectrum (--decompose too)
    # gives that line for every level, not a traceback
    path = write(tmp_path, "big.molecule",
                 "De_cm1 = 1e200\nre_angstrom = 1\nmu_amu = 1\n"
                 "zpe_exp_cm1 = 100\n")
    error = ("molecule 'big': De = 1e+200 cm^-1 overflows De^2 "
             "in double precision")
    assert main(["bound", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    code, doc, _ = run_json(capsys, ["spectrum", str(path), "--decompose",
                                     "--nmax", "1", "--lmax", "0", "--json"])
    assert code == 1
    assert [level["error"] for level in doc["levels"]] == [error, error]


# --------------------------------------------------------------- verify


def test_verify_small_passes(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--json"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["worst_offender"] is None
    assert len(doc["checks"]) == 9
    names = {check["name"] for check in doc["checks"]}
    assert "oracle-moments" in names
    assert "fuchsian" in names
    for check in doc["checks"]:
        assert check["passed"] is True
        assert check["worst"] <= check["tolerance"]
        assert check["comparisons"] > 0


def test_verify_forced_failure(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--json", "--tol", "1e-15"])
    assert code == 1
    assert doc["passed"] is False
    assert isinstance(doc["worst_offender"], str)
    assert any(not check["passed"] for check in doc["checks"])


def test_verify_bad_tol(capsys):
    for tol in ("-1", "0"):
        assert_refused(capsys, ["verify", "--tol", tol])


# ------------------------------------------------------------------ fit


@pytest.fixture(scope="module")
def levels_file(tmp_path_factory):
    mol = Molecule("synth", 45000.0, 1.1, 1.2)
    beta = 6.736924e41
    lines = ["n,l,E_cm1"]
    for n in range(4):
        for l in range(3):
            e = energy_from_joule(
                energy_deformed(mol, beta, QuantumNumbers(n, l)).e, "cm-1"
            )
            lines.append(f"{n},{l},{e!r}")
    path = tmp_path_factory.mktemp("fit") / "synth.levels"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_fit_cli_round_trip(capsys, levels_file):
    code, doc, _ = run_json(
        capsys,
        ["fit", str(levels_file), "--mu", "1.2",
         "--init", "52000,1.0,0", "--json"],
    )
    assert code == 0
    assert doc["result"]["converged"] is True
    assert doc["result"]["de"]["value"] == pytest.approx(45000.0, rel=1e-6)
    assert doc["result"]["re"]["value"] == pytest.approx(1.1, rel=1e-6)
    assert doc["result"]["beta"]["value"] == pytest.approx(6.736924e41, rel=1e-6)
    assert len(doc["residuals"]) == 12
    for row in doc["residuals"]:
        assert abs(row["residual"]["value"]) < 1e-6


def test_fit_cli_writes_a_zero_beta_as_positive_zero(capsys, tmp_path):
    """Undeformed heavy levels fit beta = 0, which the report writes as
    0.0, never -0.0."""
    mol = Molecule("heavy", 50000.0, 2.5, 54.0)

    def level(n, l):
        return energy_deformed(mol, 0.0, QuantumNumbers(n, l)).e

    rows = [f"{n},{l},{energy_from_joule(level(n, l), 'cm-1')!r}"
            for n in range(4) for l in range(3)]
    path = write(tmp_path, "zero.levels", "\n".join(["n,l,E_cm1", *rows]) + "\n")
    argv = ["fit", str(path), "--mu", "54", "--init", "25000,5.0,0"]
    code, doc, out = run_json(capsys, [*argv, "--json"])
    assert code == 0
    assert doc["result"]["converged"] is True
    assert "-0.0" not in out
    assert math.copysign(1.0, doc["result"]["beta"]["value"]) == 1.0
    assert main(argv) == 0
    assert "beta = 0.000000e+00 " in capsys.readouterr().out


def test_fit_cli_usage_errors(capsys, tmp_path, levels_file):
    short = write(tmp_path, "short.levels",
                  "n,l,E_cm1\n0,0,-1.0\n1,0,-2.0\n2,0,-3.0\n")
    assert_refused(capsys, ["fit", str(short), "--mu", "1.2", "--init", "1,1,0"])
    for flags in (["--mu", "-1", "--init", "1,1,0"],
                  ["--mu", "0", "--init", "1,1,0"],
                  ["--mu", "1.2", "--init", "1,1"],
                  ["--mu", "1.2", "--init", "a,b,c"],
                  ["--mu", "1.2", "--init=-1,1,0"],
                  ["--mu", "1.2", "--init=0,1,0"],
                  ["--mu", "1.2", "--init=1,1,-1"]):
        assert_refused(capsys, ["fit", str(levels_file), *flags])


def test_fit_cli_undefined_start_names_the_guard(capsys, levels_file):
    # at mu = 1e-6 amu the start's gamma is tiny and every l = 0 level
    # sits on the lambda = 1 singularity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", str(levels_file), "--mu", "1e-6", "--init", "1,1,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: lambda = ")
    assert "of the singular value 1.0" in captured.err
    assert caught == []


@pytest.mark.parametrize("scale, init", [
    (1e100, "1e50,1,0"),  # at gamma ~ 1e24 the shift column is parallel to E0
    (1e154, "1e154,1,0"),  # a sum of squares overflows inside fsum
    (1e305, "1e4,1,0"),  # fsum meets inf - inf
])
def test_fit_cli_undetermined_levels_give_one_error_line(
    capsys, tmp_path, scale, init
):
    """Levels whose least-squares sums divide by zero or leave the doubles
    at the start exit 1 with one error line that names the fit."""
    rows = [f"{n},{l},{-f * scale!r}" for (n, l), f in
            zip(((0, 0), (1, 0), (0, 1), (2, 0)), (1.0, 0.99, 0.98, 0.97))]
    path = write(tmp_path, "huge.levels", "\n".join(["n,l,E_cm1", *rows]) + "\n")
    code = main(["fit", str(path), "--mu", "0.5", "--init", init])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: the levels do not determine (De, beta): ")
    assert captured.err.count("\n") == 1


def test_fit_cli_flat_slope_gives_one_error_line(capsys, tmp_path):
    """Levels whose residuals do not move with ln gamma at the start exit
    1 with one error line, not a ZeroDivisionError traceback."""
    x = 4.813857962693639e-156
    rows = [f"{n},{l},{-f * x!r}" for (n, l), f in
            zip(((0, 0), (1, 0), (0, 1), (2, 0)), (1.0, 0.99, 0.98, 0.97))]
    path = write(tmp_path, "tiny.levels", "\n".join(["n,l,E_cm1", *rows]) + "\n")
    code = main(["fit", str(path), "--mu", "10.944612404735363",
                 "--init", "7.786978577753563e+30,0.05006701107882202,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: the levels do not determine gamma: their "
                            "projected residuals do not move with ln gamma\n")


def test_main_reuses_one_parser(capsys, monkeypatch, levels_file):
    """No option of one call leaks into the next through the shared parser."""
    sequence = [
        ["spectrum", "H2", "--beta", "1e43", "--nmax", "1", "--lmax", "1"],
        ["spectrum", "H2"],
        ["spectrum", "H2", "--min-length", "0.01", "--beta", "1e40"],
        ["fit", str(levels_file), "--mu", "1.2", "--init", "52000,1.0,0"],
        ["bound", "H2", "--json"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(shell, "_PARSER", None)
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]

    builds = []
    build_parser = shell.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(shell, "build_parser", counted)
    monkeypatch.setattr(shell, "_PARSER", None)
    assert [run(argv) for argv in sequence] == fresh
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "H2", "--beta", "nan"],
        ["spectrum", "H2", "--beta", "inf"],
        ["spectrum", "H2", "--min-length", "nan"],
        ["spectrum", "H2", "--min-length", "inf"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "inf"],
        ["fit", "{levels}", "--mu", "nan", "--init", "52000,1.0,0"],
        ["fit", "{levels}", "--mu", "inf", "--init", "52000,1.0,0"],
        ["fit", "{levels}", "--mu", "1.2", "--init", "nan,1.0,0"],
        ["fit", "{levels}", "--mu", "1.2", "--init", "52000,inf,0"],
        ["fit", "{levels}", "--mu", "1.2", "--init", "52000,1.0,nan"],
    ],
)
def test_non_finite_arguments_are_usage_errors(capsys, levels_file, argv):
    argv = [arg.format(levels=levels_file) for arg in argv]
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


# -------------------------------------------------------------- reports


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, the infinities and both zeros included
    st.text(),  # control and non-ASCII characters included
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(_JSON_DOCS)
@example({"\x00\x1f\"\\/\u00e9\u2028\U0001f600": [
    0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324,
    True, False, 0, -(10**30), None, (), {}, [], [()], {"": {}},
]})
def test_indented_writer_is_json_dumps(doc):
    """The report writer gives the bytes of json.dumps(doc, indent=2)."""
    assert shell._indented_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "H2", "--nmax", "2", "--lmax", "1", "--min-length", "0.01",
         "--expansion", "--decompose"],
        ["spectrum", "H2", "--min-length", "10", "--nmax", "1", "--lmax", "0"],
        ["bound", "H2"],
        ["verify"],
        ["fit", "{levels}", "--mu", "1.2", "--init", "52000,1.0,0"],
    ],
    ids=["spectrum", "spectrum-unbound", "bound", "verify", "fit"],
)
def test_report_is_its_own_indented_json(capsys, tmp_path, levels_file, argv):
    """Every command prints json.dumps(json.loads(report), indent=2), and
    --out writes the bytes that --json prints."""
    argv = [arg.format(levels=levels_file) for arg in argv]
    path = tmp_path / "report.json"
    main([*argv, "--json", "--out", str(path)])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == out


def _shape(node):
    """The key set and leaf types of a report: a dict keeps its keys, a
    list the distinct shapes of its items in order, a leaf its type name."""
    if isinstance(node, dict):
        return {key: _shape(value) for key, value in node.items()}
    if isinstance(node, list):
        shapes = []
        for item in map(_shape, node):
            if item not in shapes:
                shapes.append(item)
        return shapes
    return type(node).__name__


_QUANTITY = {"value": "float", "unit": "str"}
_MOLECULE = {"name": "str", "de": _QUANTITY, "re": _QUANTITY, "mu": _QUANTITY,
             "gamma": _QUANTITY, "zpe_exp": _QUANTITY}
_LEVEL = {"n": "int", "l": "int", "lambda": _QUANTITY}

#: each command's report: (argv, exit code, shape).  The spectrum gives
#: bound levels with a warning and unbound ones with an error
_REPORT_SHAPES = {
    "spectrum": (
        ["spectrum", "H2", "--nmax", "1", "--lmax", "1", "--min-length", "1",
         "--expansion", "--decompose"],
        1,
        {
            "schema": "str", "command": "str", "units": "str",
            "molecule": _MOLECULE,
            "deformation": {"beta": _QUANTITY, "min_length": _QUANTITY},
            "levels": [
                {**_LEVEL, "e0": _QUANTITY, "de": _QUANTITY, "e": _QUANTITY,
                 "warning": "str", "expansion": _QUANTITY,
                 "expansion_minus_exact": _QUANTITY,
                 "decomposition": [{"tag": "str", "value": _QUANTITY}]},
                {**_LEVEL, "error": "str"},
            ],
        },
    ),
    "bound": (
        ["bound", "H2"],
        0,
        {
            "schema": "str", "command": "str", "molecule": _MOLECULE,
            "g_theory": _QUANTITY, "g_exp": _QUANTITY, "delta": _QUANTITY,
            "beta_max": _QUANTITY, "min_length_max": _QUANTITY,
            "attribution": "str",
        },
    ),
    "verify": (
        ["verify"],
        0,
        {
            "schema": "str", "command": "str", "preset": "str",
            "tolerance_override": "NoneType",
            "checks": [{"name": "str", "passed": "bool", "worst": "float",
                        "tolerance": "float", "comparisons": "int",
                        "detail": "str"}],
            "passed": "bool", "worst_offender": "NoneType",
        },
    ),
    "fit": (
        ["fit", "{levels}", "--mu", "1.2", "--init", "52000,1.0,0"],
        0,
        {
            "schema": "str", "command": "str", "mu": _QUANTITY,
            "init": {"de": _QUANTITY, "re": _QUANTITY, "beta": _QUANTITY},
            "result": {"de": _QUANTITY, "re": _QUANTITY, "beta": _QUANTITY,
                       "rss": _QUANTITY, "iterations": "int",
                       "converged": "bool"},
            "residuals": [{"n": "int", "l": "int", "e_obs": _QUANTITY,
                           "e_fit": _QUANTITY, "residual": _QUANTITY,
                           "weight": _QUANTITY}],
        },
    ),
}


@pytest.mark.parametrize("command", sorted(_REPORT_SHAPES))
def test_every_report_keeps_its_shape(capsys, levels_file, command):
    """The report contract (README): a removed or renamed key, or a leaf of
    another type, fails here; a deliberate change edits the shape."""
    argv, exit_code, shape = _REPORT_SHAPES[command]
    argv = [arg.format(levels=levels_file) for arg in argv]
    code, doc, _ = run_json(capsys, [*argv, "--json"])
    assert code == exit_code
    assert _shape(doc) == shape


def _table_rows(out):
    """The lines of a human report below its 'n l ...' column header."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.split()[:2] == ["n", "l"])
    return iter(lines[start + 1:])


def _printed(token, value):
    """Whether token is value rounded to the digits token itself shows."""
    mantissa, exponent, _ = token.partition("e")
    digits = len(mantissa.partition(".")[2])
    return token == format(value, f".{digits}{exponent or 'f'}")


def test_human_tables_print_the_json_values(capsys, levels_file):
    """Each table row follows its JSON entry, in JSON order: every printed
    number is the JSON value at the printed precision, and every error
    and warning the JSON's text.  The spectrum has plain, warning and
    unbound levels."""
    spectrum = ["spectrum", "H2", "--nmax", "3", "--lmax", "1",
                "--min-length", "0.4", "--expansion", "--decompose"]
    code, doc, _ = run_json(capsys, [*spectrum, "--json"])
    assert code == 1
    assert main(spectrum) == 1
    rows = _table_rows(capsys.readouterr().out)
    kinds = set()
    for level in doc["levels"]:
        n, l, rest = next(rows).split(maxsplit=2)
        assert (n, l) == (str(level["n"]), str(level["l"]))
        if "error" in level:
            kinds.add("error")
            assert rest == f"error: {level['error']}"
            continue
        e0, de, e, word, expansion, off, by, minus = rest.split()
        assert (word, off, by, minus[-1]) == ("expansion", "(off", "by", ")")
        for key, token in (("e0", e0), ("de", de), ("e", e),
                           ("expansion", expansion),
                           ("expansion_minus_exact", minus[:-1])):
            assert _printed(token, level[key]["value"])
        if level["warning"]:
            kinds.add("warning")
            assert next(rows).strip() == f"warning: {level['warning']}"
        else:
            kinds.add("plain")
        for term in level["decomposition"]:
            tag, _, printed = next(rows).strip().partition(": ")
            value, unit = printed.split()
            assert (tag, unit) == (term["tag"], term["value"]["unit"])
            assert _printed(value, term["value"]["value"])
    assert next(rows, None) is None
    assert kinds == {"plain", "warning", "error"}

    fit = ["fit", str(levels_file), "--mu", "1.2", "--init", "52000,1.0,0"]
    code, doc, _ = run_json(capsys, [*fit, "--json"])
    assert code == 0
    assert main(fit) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert len(doc["residuals"]) == 12
    for row in doc["residuals"]:
        n, l, *tokens = next(rows).split()
        assert (n, l) == (str(row["n"]), str(row["l"]))
        for key, token in zip(("e_obs", "e_fit", "residual"), tokens, strict=True):
            assert _printed(token, row[key]["value"])
    assert next(rows, None) is None
