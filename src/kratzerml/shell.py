"""Command-line interface: argument parsing, file formats, report formatting.

Four subcommands over the library: spectrum (level tables), bound
(minimal-length upper bound from a zero-point gap), verify (the
self-check suites), and fit (three-parameter level fitting).  Every run
emits a human table on stdout or, with --json / --out, a versioned
machine-readable document whose numeric fields all carry unit tags.
Exit codes: 0 success, 1 computation or check failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import PRESETS
from .estimate import NoPositiveGapError, beta_upper_bound, fit_parameters
from .physmodel import (
    ANGSTROM_TO_M,
    ENERGY_UNITS,
    LambdaGuardError,
    Molecule,
    QuantumNumbers,
    beta_from_min_length,
    energy_from_joule,
    gamma_of,
    lambda_of,
    minimal_length,
)
from .spectrum import (
    energy_deformed,
    energy_expansion,
    level_energies,
    term_decomposition,
)

__all__ = [
    "SCHEMA",
    "FileFormatError",
    "UsageError",
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


class UsageError(ValueError):
    """Command invoked with unusable arguments."""


# ---------------------------------------------------------------- files


def _content_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of every line of path that holds more than a
    '#' comment, the comment and surrounding blanks stripped."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
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
    tab delimited (detected per line).  (n, l) pairs must be unique.
    """
    header: list[str] | None = None
    seen: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int, float, float]] = []
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
            n = int(parts[0])
            l = int(parts[1])
            e_cm1 = float(parts[2])
            weight = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError:
            raise FileFormatError(
                f"{path.name}:{lineno}: malformed numeric value"
            ) from None
        if n < 0 or l < 0:
            raise FileFormatError(
                f"{path.name}:{lineno}: n and l must be nonnegative"
            )
        if not (math.isfinite(e_cm1) and math.isfinite(weight)):
            raise FileFormatError(f"{path.name}:{lineno}: values must be finite")
        if weight <= 0.0:
            raise FileFormatError(f"{path.name}:{lineno}: weight must be positive")
        if (n, l) in seen:
            raise FileFormatError(
                f"{path.name}:{lineno}: duplicate level (n={n}, l={l}), "
                f"first on line {seen[(n, l)]}"
            )
        seen[(n, l)] = lineno
        rows.append((n, l, e_cm1, weight))
    if header is None:
        raise FileFormatError(f"{path.name}: empty file (header row required)")
    return rows


# -------------------------------------------------------------- reports


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _tagged(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _energy(joule: float, units: str) -> dict:
    return _tagged(energy_from_joule(joule, units), units)


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


def _beta_from_args(args) -> float:
    if args.min_length is not None:
        if not (math.isfinite(args.min_length) and args.min_length >= 0.0):
            raise UsageError("--min-length must be a nonnegative finite number")
        return beta_from_min_length(args.min_length * ANGSTROM_TO_M)
    if args.beta is not None:
        if not (math.isfinite(args.beta) and args.beta >= 0.0):
            raise UsageError("--beta must be a nonnegative finite number")
        return args.beta
    return 0.0


def cmd_spectrum(args) -> int:
    mol = resolve_molecule(args.molecule)
    if args.nmax < 0 or args.lmax < 0:
        raise UsageError("--nmax and --lmax must be nonnegative")
    beta = _beta_from_args(args)
    units = args.units
    gamma = gamma_of(mol)
    x_min = minimal_length(beta)
    levels = []
    failed = 0
    for l in range(args.lmax + 1):
        lam = lambda_of(gamma, l)
        for n in range(args.nmax + 1):
            qn = QuantumNumbers(n, l)
            entry: dict = {
                "n": n,
                "l": l,
                "lambda": _tagged(lam, "dimensionless"),
            }
            try:
                level = energy_deformed(mol, beta, qn)
                if not level.e < 0.0:
                    raise ValueError(
                        f"first-order level E = E0 + dE is at or above the "
                        f"dissociation limit (dE = {level.de / -level.e0:.3g} "
                        f"|E0|); the level is not bound"
                    )
            except (LambdaGuardError, ValueError) as exc:
                entry["error"] = str(exc)
                failed += 1
                levels.append(entry)
                continue
            entry["e0"] = _energy(level.e0, units)
            entry["de"] = _energy(level.de, units)
            entry["e"] = _energy(level.e, units)
            entry["warning"] = level.warning
            if args.expansion:
                approx = energy_expansion(mol, beta, qn)
                entry["expansion"] = _energy(approx, units)
                entry["expansion_minus_exact"] = _energy(approx - level.e, units)
            if args.decompose:
                entry["decomposition"] = [
                    {"tag": term.tag, "value": _energy(term.value, units)}
                    for term in term_decomposition(mol, beta, qn)
                ]
            levels.append(entry)
    doc = {
        "schema": SCHEMA,
        "command": "spectrum",
        "units": units,
        "molecule": _molecule_doc(mol),
        "deformation": {
            "beta": _tagged(beta, BETA_UNIT),
            "min_length": _tagged(x_min / ANGSTROM_TO_M, "angstrom"),
        },
        "levels": levels,
    }

    human = [
        f"molecule {mol.name}: De = {mol.de_cm1:g} cm-1, "
        f"re = {mol.re_angstrom:g} angstrom, mu = {mol.mu_amu:g} amu, "
        f"gamma = {gamma:.6g}",
        f"beta = {beta:.6e} {BETA_UNIT}, min length = "
        f"{x_min / ANGSTROM_TO_M:.6e} angstrom",
        "",
        f"{'n':>3} {'l':>3} {'E0 [' + units + ']':>18} "
        f"{'dE [' + units + ']':>18} {'E [' + units + ']':>18}",
    ]
    for entry in levels:
        if "error" in entry:
            human.append(
                f"{entry['n']:>3} {entry['l']:>3} error: {entry['error']}"
            )
            continue
        line = (
            f"{entry['n']:>3} {entry['l']:>3} "
            f"{entry['e0']['value']:>18.6f} "
            f"{entry['de']['value']:>18.6f} "
            f"{entry['e']['value']:>18.6f}"
        )
        if args.expansion:
            line += (
                f"  expansion {entry['expansion']['value']:.6f}"
                f" (off by {entry['expansion_minus_exact']['value']:.3e})"
            )
        human.append(line)
        if entry.get("warning"):
            human.append(f"        warning: {entry['warning']}")
        if args.decompose:
            for term in entry["decomposition"]:
                human.append(
                    f"        {term['tag']:>15}: "
                    f"{term['value']['value']:.6f} {units}"
                )
    _emit(doc, human, args)
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------- bound


def cmd_bound(args) -> int:
    mol = resolve_molecule(args.molecule)
    if mol.zpe_exp_cm1 is None:
        raise UsageError(
            f"molecule {mol.name!r} has no zpe_exp_cm1; the bound needs an "
            "experimental zero-point energy"
        )
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
    if args.tol is not None and not _positive_finite(args.tol):
        raise UsageError("--tol must be a positive finite number")
    # the one place the package defers numpy and scipy: verify and the
    # oracles import them at the top, and no other command loads those
    from . import verify

    results = verify.run_checks(preset, args.tol)
    offenders = [res for res in results if not res.passed]
    all_passed = not offenders
    worst_offender = (
        max(offenders, key=lambda res: res.worst / res.tolerance).name
        if offenders else None
    )
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
    if len(rows) < 4:
        raise UsageError(
            f"{len(rows)} levels cannot determine 3 parameters; need >= 4"
        )
    if not _positive_finite(args.mu):
        raise UsageError("--mu must be a positive finite number")
    pieces = args.init.split(",")
    if len(pieces) != 3:
        raise UsageError("--init must be De_cm1,re_angstrom,beta")
    try:
        init = (float(pieces[0]), float(pieces[1]), float(pieces[2]))
    except ValueError:
        raise UsageError(f"--init values must be numbers, got {args.init!r}") from None
    if (not all(math.isfinite(v) for v in init)
            or init[0] <= 0.0 or init[1] <= 0.0 or init[2] < 0.0):
        raise UsageError("--init needs finite De > 0, re > 0, beta >= 0")
    result = fit_parameters(rows, args.mu, init)
    fitted = Molecule(
        name="fit",
        de_cm1=result.de_cm1,
        re_angstrom=result.re_angstrom,
        mu_amu=args.mu,
    )
    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    # the levels at the printed parameters, not the fit's last level set:
    # that set's gamma and De differ from the printed ones in the last bits
    levels = level_energies(
        fitted, result.beta, [(n, l) for n, l, _, _ in ordered]
    )
    residuals = []
    for (n, l, e_obs, weight), (e0, de) in zip(ordered, levels):
        e_fit = energy_from_joule(e0 + de, "cm-1")
        residuals.append(
            {
                "n": n,
                "l": l,
                "e_obs": _tagged(e_obs, "cm-1"),
                "e_fit": _tagged(e_fit, "cm-1"),
                "residual": _tagged(e_fit - e_obs, "cm-1"),
                "weight": _tagged(weight, "dimensionless"),
            }
        )
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
    ]
    for row in residuals:
        human.append(
            f"{row['n']:>3} {row['l']:>3} "
            f"{row['e_obs']['value']:>14.4f} "
            f"{row['e_fit']['value']:>14.4f} "
            f"{row['residual']['value']:>12.3e}"
        )
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
    except (FileFormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoPositiveGapError, LambdaGuardError, ValueError,
            RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
