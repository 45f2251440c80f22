"""Per-operation correctness gate: None for a good report, else the reason.

Tolerances rest on the float64 error measured against the 40-digit
closed form on 45 seeds of cli-cold molecules (765 molecules, 92 565
levels, gamma 20 to 1000, with the package as the gate was written):

- E0: worst relative error 8.5e-16, gate 1e-14.
- dE: the brace of the shift cancels O(1) terms, so its error grows as
  gamma^2; worst relative error / gamma^2 was 1.6e-15, gate 2e-14 gamma^2.
- bound: worst relative error 9.1e-10 (beta_max; the gap cancels against
  G and the shift carries the brace error), gate 1e-8.
- fit: the truth must come back within 1e-6 relative, as in acceptance
  criterion 11.
"""

from __future__ import annotations

import functools
import json

import inputs

SCHEMA = "kratzerml-report/1"
E0_REL_TOL = 1e-14
DE_REL_TOL_PER_GAMMA2 = 2e-14
BOUND_REL_TOL = 1e-8
FIT_REL_TOL = 1e-6
LEVEL_GRID = 11  # spectrum --nmax 10 --lmax 10


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


@functools.lru_cache(maxsize=64)
def _spectrum_reference(de, re, mu, x_min):
    beta = inputs.beta_from_min_length(x_min)
    return {
        (n, l): inputs.level_cm1(de, re, mu, beta, n, l)
        for n in range(LEVEL_GRID)
        for l in range(LEVEL_GRID)
    }


def _molecule(op: dict, doc: dict):
    """(De, re, mu, zpe_exp) of the op: the generated values, checked
    against the report's echo; for a bundled molecule, the echo."""
    echo = doc["molecule"]
    seen = (echo["de"]["value"], echo["re"]["value"], echo["mu"]["value"],
            echo.get("zpe_exp", {}).get("value"))
    made = op.get("molecule")
    if made is None:
        return seen, None
    expected = (made["de"], made["re"], made["mu"], made["zpe_exp"])
    if seen != expected:
        return None, f"molecule echoed as {seen}, generated as {expected}"
    return expected, None


def _check_spectrum(op: dict, doc: dict) -> str | None:
    mol, why = _molecule(op, doc)
    if why:
        return why
    de, re, mu, _ = mol
    gamma = float(inputs.gamma_of(de, re, mu))
    de_tol = DE_REL_TOL_PER_GAMMA2 * gamma * gamma
    ref = _spectrum_reference(de, re, mu, op["min_length"])
    levels = {(lv["n"], lv["l"]): lv for lv in doc["levels"]}
    if set(levels) != set(ref):
        return f"{len(levels)} levels reported, {len(ref)} expected"
    for key, (e0, shift, total) in ref.items():
        lv = levels[key]
        if "error" in lv:
            return f"level {key}: {lv['error']}"
        if any(lv[k]["unit"] != "cm-1" for k in ("e0", "de", "e")):
            return f"level {key}: energies not in cm-1"
        if _rel(lv["e0"]["value"], e0) > E0_REL_TOL:
            return f"level {key}: E0 {lv['e0']['value']!r} vs reference {e0!r}"
        if _rel(lv["de"]["value"], shift) > de_tol:
            return f"level {key}: dE {lv['de']['value']!r} vs reference {shift!r}"
        allowed = E0_REL_TOL * abs(e0) + de_tol * abs(shift)
        if abs(lv["e"]["value"] - total) > allowed:
            return f"level {key}: E {lv['e']['value']!r} vs reference {total!r}"
    return None


def _check_bound(op: dict, doc: dict) -> str | None:
    mol, why = _molecule(op, doc)
    if why:
        return why
    ref = inputs.bound_reference(*mol)
    for key, value in ref.items():
        if _rel(doc[key]["value"], value) > BOUND_REL_TOL:
            return f"{key} {doc[key]['value']!r} vs reference {value!r}"
    return None


def _check_verify(op: dict, doc: dict) -> str | None:
    if doc.get("passed") is not True:
        return f"verify did not pass (worst offender {doc.get('worst_offender')})"
    return None


def _check_fit(op: dict, doc: dict) -> str | None:
    result = doc["result"]
    if result.get("converged") is not True:
        return "fit did not converge"
    for key, truth in op["truth"].items():
        got = result[key]["value"]
        if _rel(got, truth) > FIT_REL_TOL:
            return f"fitted {key} {got!r} is off the truth {truth!r}"
    return None


CHECKS = {
    "spectrum": _check_spectrum,
    "bound": _check_bound,
    "verify": _check_verify,
    "fit": _check_fit,
}


def check(op: dict, rc, stdout: str) -> str | None:
    """Why the operation failed, or None when its report is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return f"report is not {SCHEMA}"
    if doc.get("command") != op["kind"]:
        return f"report is for {doc.get('command')!r}, not {op['kind']!r}"
    try:
        return CHECKS[op["kind"]](op, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks a field: {exc!r}"
