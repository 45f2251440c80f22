"""Command-line interface: argument parsing, file formats, report formatting.

Four subcommands over the library: spectrum (level tables), bound
(minimal-length upper bound from a zero-point gap), verify (the
self-check suites), and fit (three-parameter level fitting).  Every run
emits a human table on stdout or, with --json / --out, a versioned
machine-readable document whose numeric fields carry unit tags, bar the
counts, quantum numbers and relative deviations.
Exit codes: 0 success, 1 computation or check failure, 2 an argument
refused as given (InputError, or by the parser) or a file format error.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import PRESETS
from .estimate import beta_upper_bound, fit_parameters, level_rows
from .physmodel import (
    ENERGY_UNITS,
    InputError,
    Molecule,
    QuantumNumbers,
    beta_from_min_length,
    energy_from_joule,
    gamma_of,
    lambda_of,
    minimal_length,
    require_int,
    require_positive,
)
from .spectrum import (
    energy_deformed,
    energy_expansion,
    require_bound,
    term_decomposition,
)

__all__ = [
    "SCHEMA",
    "FileFormatError",
    "parse_molecule_file",
    "parse_levels_file",
    "resolve_molecule",
    "cmd_spectrum",
    "cmd_bound",
    "cmd_verify",
    "cmd_fit",
    "build_parser",
    "main",
]

SCHEMA = "kratzerml-report/1"
BETA_UNIT = "(kg m/s)^-2"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

MOLECULE_KEYS = ("name", "De_cm1", "re_angstrom", "mu_amu", "zpe_exp_cm1")
MOLECULE_REQUIRED = ("De_cm1", "re_angstrom", "mu_amu")

_DATA_DIR = Path(__file__).parent / "data"


class FileFormatError(ValueError):
    """Input file rejected; message carries file name and line number."""


# ---------------------------------------------------------------- files


def _content_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of every line of path that holds more than a
    '#' comment, the comment and surrounding blanks stripped."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines


def parse_molecule_file(path: Path) -> Molecule:
    """Read a key = value molecule file ('#' starts a comment).

    Required keys: De_cm1, re_angstrom, mu_amu.  Optional: name
    (defaults to the file stem) and zpe_exp_cm1.  Unknown or duplicate
    keys are rejected with their line number.
    """
    found: dict[str, tuple[str, int]] = {}
    for lineno, line in _content_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise FileFormatError(
                f"{path.name}:{lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        value = value.strip()
        if key not in MOLECULE_KEYS:
            raise FileFormatError(
                f"{path.name}:{lineno}: unknown key {key!r} "
                f"(known: {', '.join(MOLECULE_KEYS)})"
            )
        if key in found:
            raise FileFormatError(
                f"{path.name}:{lineno}: duplicate key {key!r} "
                f"(first on line {found[key][1]})"
            )
        if not value:
            raise FileFormatError(f"{path.name}:{lineno}: empty value for {key!r}")
        found[key] = (value, lineno)
    missing = [k for k in MOLECULE_REQUIRED if k not in found]
    if missing:
        raise FileFormatError(
            f"{path.name}: missing required keys: {', '.join(missing)}"
        )

    def number(key: str) -> float:
        value, lineno = found[key]
        try:
            return float(value)
        except ValueError:
            raise FileFormatError(
                f"{path.name}:{lineno}: {key} must be a number, got {value!r}"
            ) from None

    name = found["name"][0] if "name" in found else path.stem
    zpe = number("zpe_exp_cm1") if "zpe_exp_cm1" in found else None
    try:
        return Molecule(
            name=name,
            de_cm1=number("De_cm1"),
            re_angstrom=number("re_angstrom"),
            mu_amu=number("mu_amu"),
            zpe_exp_cm1=zpe,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path.name}: {exc}") from None


def resolve_molecule(ref: str) -> Molecule:
    """Molecule from a file path, falling back to the bundled set.

    A ref that is not an existing path is looked up case-insensitively
    among the bundled .molecule files ("H2" works out of the box).
    """
    path = Path(ref)
    if path.exists():
        return parse_molecule_file(path)
    bundled = _DATA_DIR / f"{ref.lower()}.molecule"
    if bundled.exists():
        return parse_molecule_file(bundled)
    names = sorted(p.stem for p in _DATA_DIR.glob("*.molecule"))
    raise FileFormatError(
        f"{ref!r} is neither a file nor a bundled molecule "
        f"(bundled: {', '.join(names)})"
    )


def parse_levels_file(path: Path) -> list[tuple[int, int, float, float]]:
    """Read delimiter-separated levels with a mandatory header row.

    Header: n,l,E_cm1 with an optional trailing weight column; comma or
    tab delimited (detected per line).  The rows must pass
    estimate.level_rows, whose refusal names the file and line.
    """
    header: list[str] | None = None
    rows: list[tuple[int, int, float, float]] = []
    lines: list[int] = []
    for lineno, line in _content_lines(path):
        delim = "\t" if "\t" in line else ","
        parts = [part.strip() for part in line.split(delim)]
        if header is None:
            ok = parts[:3] == ["n", "l", "E_cm1"] and (
                len(parts) == 3 or (len(parts) == 4 and parts[3] == "weight")
            )
            if not ok:
                raise FileFormatError(
                    f"{path.name}:{lineno}: header must be n,l,E_cm1[,weight]"
                )
            header = parts
            continue
        if len(parts) != len(header):
            raise FileFormatError(
                f"{path.name}:{lineno}: expected {len(header)} columns, "
                f"got {len(parts)}"
            )
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]),
                         float(parts[3]) if len(parts) == 4 else 1.0))
        except ValueError:
            raise FileFormatError(
                f"{path.name}:{lineno}: malformed numeric value"
            ) from None
        lines.append(lineno)
    if header is None:
        raise FileFormatError(f"{path.name}: empty file (header row required)")
    try:
        return level_rows(rows, path.name, lines)
    except InputError as exc:
        raise FileFormatError(str(exc)) from None


# -------------------------------------------------------------- reports


def _tagged(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _molecule_doc(mol: Molecule) -> dict:
    doc = {
        "name": mol.name,
        "de": _tagged(mol.de_cm1, "cm-1"),
        "re": _tagged(mol.re_angstrom, "angstrom"),
        "mu": _tagged(mol.mu_amu, "amu"),
        "gamma": _tagged(gamma_of(mol), "dimensionless"),
    }
    if mol.zpe_exp_cm1 is not None:
        doc["zpe_exp"] = _tagged(mol.zpe_exp_cm1, "cm-1")
    return doc


#: how json.encoder spells the floats that float.__repr__ writes as nan,
#: inf and -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(obj, newline: str, put) -> None:
    # floats first: they are most of a report's leaves; bools before ints
    if isinstance(obj, float):
        text = float.__repr__(obj)
        put(_NONFINITE.get(text, text))
    elif isinstance(obj, str):
        put(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            put(sep)
            _write_json(value, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


def _indented_json(doc) -> str:
    """json.dumps(doc, indent=2) for documents with string keys, byte for
    byte, at about half its cost: indent= makes json.dumps use its
    pure-Python encoder, while this walks only the containers in Python
    and encodes every leaf with the functions the C encoder uses."""
    parts: list[str] = []
    _write_json(doc, "\n", parts.append)
    return "".join(parts)


def _emit(doc: dict, human: list[str], args) -> None:
    # serialised only when --json or --out asks for it
    if args.json or args.out:
        payload = _indented_json(doc) + "\n"
        if args.out:
            Path(args.out).write_text(payload, encoding="utf-8")
        if args.json:
            sys.stdout.write(payload)
            return
    sys.stdout.write("\n".join(human) + "\n")


# ------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    mol = resolve_molecule(args.molecule)
    nmax = require_int(args.nmax, "--nmax")
    lmax = require_int(args.lmax, "--lmax")
    if args.min_length is not None:
        beta = beta_from_min_length(args.min_length)
    else:
        beta = 0.0 if args.beta is None else args.beta
    units = args.units
    gamma = gamma_of(mol)
    x_min = minimal_length(beta)
    human = [
        f"molecule {mol.name}: De = {mol.de_cm1:g} cm-1, "
        f"re = {mol.re_angstrom:g} angstrom, mu = {mol.mu_amu:g} amu, "
        f"gamma = {gamma:.6g}",
        f"beta = {beta:.6e} {BETA_UNIT}, min length = "
        f"{x_min:.6e} angstrom",
        "",
        f"{'n':>3} {'l':>3} {'E0 [' + units + ']':>18} "
        f"{'dE [' + units + ']':>18} {'E [' + units + ']':>18}",
    ]
    levels = []
    for l in range(lmax + 1):
        lam = lambda_of(gamma, l)
        for n in range(nmax + 1):
            qn = QuantumNumbers(n, l)
            entry = {"n": n, "l": l, "lambda": _tagged(lam, "dimensionless")}
            levels.append(entry)
            try:
                level = energy_deformed(mol, beta, qn)
                require_bound(level)
            except ValueError as exc:
                entry["error"] = str(exc)
                human.append(f"{n:>3} {l:>3} error: {exc}")
                continue
            e0, de, e = (energy_from_joule(joule, units)
                         for joule in (level.e0, level.de, level.e))
            entry["e0"] = _tagged(e0, units)
            entry["de"] = _tagged(de, units)
            entry["e"] = _tagged(e, units)
            entry["warning"] = level.warning
            line = f"{n:>3} {l:>3} {e0:>18.6f} {de:>18.6f} {e:>18.6f}"
            if args.expansion:
                approx = energy_expansion(mol, beta, qn)
                expansion = energy_from_joule(approx, units)
                off = energy_from_joule(approx - level.e, units)
                entry["expansion"] = _tagged(expansion, units)
                entry["expansion_minus_exact"] = _tagged(off, units)
                line += f"  expansion {expansion:.6f} (off by {off:.3e})"
            human.append(line)
            if level.warning:
                human.append(f"        warning: {level.warning}")
            if args.decompose:
                terms = entry["decomposition"] = []
                for term in term_decomposition(mol, beta, qn):
                    value = energy_from_joule(term.value, units)
                    terms.append({"tag": term.tag, "value": _tagged(value, units)})
                    human.append(f"        {term.tag:>15}: {value:.6f} {units}")
    doc = {
        "schema": SCHEMA,
        "command": "spectrum",
        "units": units,
        "molecule": _molecule_doc(mol),
        "deformation": {
            "beta": _tagged(beta, BETA_UNIT),
            "min_length": _tagged(x_min, "angstrom"),
        },
        "levels": levels,
    }
    _emit(doc, human, args)
    return EXIT_FAIL if any("error" in entry for entry in levels) else EXIT_OK


# ---------------------------------------------------------------- bound


def cmd_bound(args) -> int:
    mol = resolve_molecule(args.molecule)
    result = beta_upper_bound(mol)
    doc = {
        "schema": SCHEMA,
        "command": "bound",
        "molecule": _molecule_doc(mol),
        "g_theory": _tagged(result.g_theory_cm1, "cm-1"),
        "g_exp": _tagged(mol.zpe_exp_cm1, "cm-1"),
        "delta": _tagged(result.delta_cm1, "cm-1"),
        "beta_max": _tagged(result.beta_max, BETA_UNIT),
        "min_length_max": _tagged(result.min_length_max_angstrom, "angstrom"),
        "attribution": result.attribution,
    }
    human = [
        f"molecule {mol.name}",
        f"zero-point energy, theory (beta = 0): {result.g_theory_cm1:.4f} cm-1",
        f"zero-point energy, experiment:        {mol.zpe_exp_cm1:.4f} cm-1",
        f"gap delta = {result.delta_cm1:.4f} cm-1",
        f"beta_max = {result.beta_max:.6e} {BETA_UNIT}",
        f"minimal length < {result.min_length_max_angstrom:.6e} angstrom",
        f"({result.attribution})",
    ]
    _emit(doc, human, args)
    return EXIT_OK


# --------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    preset = args.grid_preset
    if args.tol is not None:  # refused before numpy loads
        require_positive(args.tol, "tol")
    # the one place the package defers numpy: verify and the oracles
    # import it at the top, and no other command loads it
    from . import verify

    results = verify.run_checks(preset, args.tol)
    worst_offender = verify.worst_offender(results)
    all_passed = worst_offender is None
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "preset": preset,
        "tolerance_override": args.tol,
        "checks": [
            {
                "name": res.name,
                "passed": res.passed,
                "worst": res.worst,
                "tolerance": res.tolerance,
                "comparisons": res.comparisons,
                "detail": res.detail,
            }
            for res in results
        ],
        "passed": all_passed,
        "worst_offender": worst_offender,
    }
    human = [f"verify preset={preset}"
             + (f" tol-override={args.tol:g}" if args.tol is not None else "")]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        human.append(
            f"{status} {res.name:<22} worst={res.worst:.3e} "
            f"tol={res.tolerance:.3e} ({res.comparisons} comparisons)"
        )
    if all_passed:
        human.append("all checks passed")
    else:
        human.append(f"FAILED; worst offender: {worst_offender}")
    _emit(doc, human, args)
    return EXIT_OK if all_passed else EXIT_FAIL


# ------------------------------------------------------------------ fit


def cmd_fit(args) -> int:
    rows = parse_levels_file(Path(args.levels))
    pieces = args.init.split(",")
    if len(pieces) != 3:
        raise InputError("--init must be De_cm1,re_angstrom,beta")
    try:
        init = (float(pieces[0]), float(pieces[1]), float(pieces[2]))
    except ValueError:
        raise InputError(f"--init values must be numbers, got {args.init!r}") from None
    result = fit_parameters(rows, args.mu, init)
    residuals = []
    table = []
    for n, l, e_obs, e_fit, weight in result.residuals:
        residual = e_fit - e_obs
        residuals.append({
            "n": n,
            "l": l,
            "e_obs": _tagged(e_obs, "cm-1"),
            "e_fit": _tagged(e_fit, "cm-1"),
            "residual": _tagged(residual, "cm-1"),
            "weight": _tagged(weight, "dimensionless"),
        })
        table.append(f"{n:>3} {l:>3} {e_obs:>14.4f} {e_fit:>14.4f} "
                     f"{residual:>12.3e}")
    doc = {
        "schema": SCHEMA,
        "command": "fit",
        "mu": _tagged(args.mu, "amu"),
        "init": {
            "de": _tagged(init[0], "cm-1"),
            "re": _tagged(init[1], "angstrom"),
            "beta": _tagged(init[2], BETA_UNIT),
        },
        "result": {
            "de": _tagged(result.de_cm1, "cm-1"),
            "re": _tagged(result.re_angstrom, "angstrom"),
            "beta": _tagged(result.beta, BETA_UNIT),
            "rss": _tagged(result.rss_cm2, "cm-2"),
            "iterations": result.iterations,
            "converged": result.converged,
        },
        "residuals": residuals,
    }
    human = [
        f"fit over {len(rows)} levels (mu = {args.mu:g} amu)",
        f"De   = {result.de_cm1:.6f} cm-1",
        f"re   = {result.re_angstrom:.8f} angstrom",
        f"beta = {result.beta:.6e} {BETA_UNIT}",
        f"rss  = {result.rss_cm2:.6e} cm-2 after {result.iterations} iterations"
        f" ({'converged' if result.converged else 'NOT converged'})",
        "",
        f"{'n':>3} {'l':>3} {'E_obs':>14} {'E_fit':>14} {'residual':>12}",
        *table,
    ]
    _emit(doc, human, args)
    return EXIT_OK if result.converged else EXIT_FAIL


# ----------------------------------------------------------------- main


def _io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable document instead of the table",
    )
    sub.add_argument(
        "--out",
        metavar="PATH",
        help="also write the machine-readable document to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kratzerml",
        description=(
            "Bound-state spectra of the Kratzer molecular potential under "
            "a minimal-length deformation: level tables, minimal-length "
            "bounds, self-checks, and level fitting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="rovibrational level table")
    sp.add_argument("molecule", help="molecule file path or bundled name (H2)")
    group = sp.add_mutually_exclusive_group()
    group.add_argument(
        "--min-length",
        type=float,
        metavar="ANGSTROM",
        help="minimal length; converted to beta via X^2/(5 hbar^2)",
    )
    group.add_argument(
        "--beta",
        type=float,
        metavar="SI",
        help=f"raw deformation parameter in {BETA_UNIT} (expert flag)",
    )
    sp.add_argument("--nmax", type=int, default=3, help="max vibrational n")
    sp.add_argument("--lmax", type=int, default=2, help="max rotational l")
    sp.add_argument("--units", choices=ENERGY_UNITS, default="cm-1")
    sp.add_argument(
        "--expansion",
        action="store_true",
        help="add the large-gamma expansion column",
    )
    sp.add_argument(
        "--decompose",
        action="store_true",
        help="list the labeled expansion terms per level",
    )
    _io_flags(sp)
    sp.set_defaults(handler=cmd_spectrum)

    bd = sub.add_parser("bound", help="minimal-length upper bound from the ZPE gap")
    bd.add_argument("molecule", help="molecule file path or bundled name (H2)")
    _io_flags(bd)
    bd.set_defaults(handler=cmd_bound)

    vf = sub.add_parser("verify", help="run the self-check suites")
    vf.add_argument(
        "--grid-preset",
        choices=PRESETS,
        default="small",
        help="comparison grid size",
    )
    vf.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every check tolerance with this value",
    )
    _io_flags(vf)
    vf.set_defaults(handler=cmd_verify)

    ft = sub.add_parser("fit", help="fit (De, re, beta) to observed levels")
    ft.add_argument("levels", help="levels file (header n,l,E_cm1[,weight])")
    ft.add_argument("--mu", type=float, required=True, help="reduced mass in amu")
    ft.add_argument(
        "--init",
        required=True,
        metavar="De,re,beta",
        help="starting point: De in cm-1, re in angstrom, beta in SI",
    )
    _io_flags(ft)
    ft.set_defaults(handler=cmd_fit)
    return parser


#: the parser main builds on its first call and reuses: parse_args keeps
#: no state between calls, each starts from a fresh namespace
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (FileFormatError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
