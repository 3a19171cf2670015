"""Correctness gate: decides whether one operation's output is acceptable.

An operation fails when it raises or exits with a code other than 0 or
3, prints a non-finite number (a verify check's ``tolerance`` of +inf,
which only asks for a finite measurement, excepted), breaks a sign law, shows a cross-route
discrepancy above the acceptance-criterion-1 allowance, moves a
deterministic headline value from its reference by more than the
tolerance below, or (verify) reports a failed check.  Exit code 3 means
"not converged" and is not a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import norm2

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Headline field -> (relative, absolute) tolerance against the reference.
# Exact finite sums get 1e-12; exact lattice sums whose order may change
# get 1e-8; values carrying eigensolve or quadrature error get 1e-5 and
# 1e-4; n_b_dv gets its quadrature tolerance (1e-7) as absolute slack.
TOLERANCE = {
    "e_fs_kinetic": (1e-12, 0.0),
    "e_fs_interaction": (1e-12, 0.0),
    "e_corr_bos": (1e-4, 0.0),
    "e_corr_ex": (1e-8, 0.0),
    "n_b": (1e-5, 0.0),
    "n_ex": (1e-8, 0.0),
    "n_b_dv": (1e-6, 1e-7),
    "value": (1e-5, 0.0),
}

# Sign laws: +1 means >= 0, -1 means <= 0.
SIGN = {
    "n_b": 1, "n_b_spectral": 1, "n_b_integral": 1, "n_b_disc": 1, "n_b_dv": 1,
    "n_ex": -1, "n_ex_disc": -1, "n_ex_dv": -1,
    "e_corr_bos": -1, "e_corr_ex": 1,
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def headline(command: str, out) -> dict[str, float]:
    """Deterministic headline values of one command's parsed output.

    Outside points are keyed by |xi|^2, which the seeded images keep.
    Monte-Carlo n_ex_dv is left out on purpose.
    """
    if command == "energy":
        return {k: out[k] for k in ("e_fs_kinetic", "e_fs_interaction",
                                    "e_corr_bos", "e_corr_ex")}
    if command == "momentum":
        n = norm2(out["xi"])
        return {f"xi2={n}/n_b": out["n_b"], f"xi2={n}/n_ex": out["n_ex"]}
    if command == "dv-compare":
        vals = {}
        for row in out:
            n = norm2(row["xi"])
            vals[f"xi2={n}/n_b"] = row["n_b_disc"]
            vals[f"xi2={n}/n_ex"] = row["n_ex_disc"]
            vals[f"xi2={n}/n_b_dv"] = row["n_b_dv"]
        return vals
    if command == "momentum-sum":
        vals = {"value": out["value"]}
        for row in out["per_xi"]:
            xi = ",".join(str(c) for c in row["xi"])
            vals[f"xi={xi}/n_b"] = row["n_b"]
            vals[f"xi={xi}/n_ex"] = row["n_ex"]
        return vals
    return {}


def _records(node):
    """Yield every JSON object in the output, at any depth."""
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _records(value)
    elif isinstance(node, list):
        for item in node:
            yield from _records(item)


def _numbers(node, key=None):
    """Yield (key, number) for every number in the output; key of its field."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield key, node
    elif isinstance(node, dict):
        for k, value in node.items():
            yield from _numbers(value, k)
    elif isinstance(node, list):
        for item in node:
            yield from _numbers(item, key)


def check(command: str, rc: int | None, stdout: str, reference: dict) -> list[str]:
    """Problems with one operation's result; empty when it passes.

    ``reference`` maps headline keys to the values recorded at the seed
    commit for this op; its key set must match the output's exactly.
    """
    if rc not in (0, 3):
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    # a verify check with tolerance +inf only asks for a finite measurement
    bad = [k for k, x in _numbers(out)
           if not math.isfinite(x) and not (k == "tolerance" and x == math.inf)]
    if bad:
        problems.append(f"non-finite number in output: {sorted(set(map(str, bad)))}")
    for record in _records(out):
        for key, sign in SIGN.items():
            value = record.get(key)
            if isinstance(value, (int, float)) and sign * value < 0:
                problems.append(f"sign law broken: {key} = {value!r}")
        gap = record.get("discrepancy")
        if gap is not None:
            # acceptance criterion 1: 10 x (quadrature error + tail estimate)
            allowance = 10.0 * (record.get("quad_error", 0.0)
                                + record.get("tail_estimate", 0.0))
            if gap > allowance:
                problems.append(f"route discrepancy {gap!r} > allowance {allowance!r}")
    if command == "verify":
        failed = [r.get("name") for r in _records(out) if r.get("status") == "fail"]
        if failed:
            problems.append(f"verify checks failed: {failed}")
    try:
        values = headline(command, out)
    except (KeyError, TypeError) as exc:
        return problems + [f"headline value missing: {exc!r}"]
    if set(values) != set(reference):
        problems.append(f"headline keys {sorted(set(values) ^ set(reference))} "
                        "differ from the reference")
    for key in sorted(set(values) & set(reference)):
        rel, abs_ = TOLERANCE[key.rsplit("/", 1)[-1]]
        got, ref = values[key], reference[key]
        if not abs(got - ref) <= abs_ + rel * abs(ref):
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    return problems
