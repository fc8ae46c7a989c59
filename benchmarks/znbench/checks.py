"""Verdict checks: compare one job's exit code and report with the
reference the workload generator attached to it.

``check`` returns a list of mismatch descriptions; an empty list is a
correct verdict.  A refusal whose expected exit code is 3 is correct.
"""

from __future__ import annotations

import json

from . import refalg


def check(job, workload, code, report):
    expect = job.expect
    if code != expect["exit"]:
        return [f"exit code {code}, expected {expect['exit']}"]
    if code != 0:
        return []
    if report is None:
        return ["no report written"]
    problems = [f"assertion failed: {a['clause']}"
                for a in report.get("assertions", []) if not a["passed"]]
    kind = job.spec["kind"]
    problems.extend(CHECKS[kind](expect, report, workload))
    return problems


def _differ(label, got, want):
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def _classify(expect, report, _wl):
    res = report.get("results", {})
    return (_differ("flags", res.get("flags"), expect["flags"])
            + _differ("counts", res.get("counts"), expect["counts"]))


def _shriek(expect, report, _wl):
    res = report.get("results", {})
    stalks = sorted(json.dumps(f, sort_keys=True)
                    for f in res.get("stalk_flags", []))
    return (_differ("carrier flags", res.get("carrier_flags"),
                    expect["carrier_flags"])
            + _differ("stalk flags", stalks, expect["stalk_flags"]))


def _cohomology(expect, report, _wl):
    res = report.get("results", {})
    problems = []
    for key in ("degree", "dim_cocycles", "dim_coboundaries", "dim_h"):
        problems += _differ(key, res.get(key), expect[key])
    return problems


def _invert(expect, report, wl):
    res = report.get("results", {})
    g = res.get("inverse")
    f = expect["element"]
    if not isinstance(g, list) or len(g) != len(f):
        return [f"inverse has the wrong shape: {g!r}"]
    base, tables = wl.deformations[expect["deformation"]]
    # The truncated deformation is a finite ring, so a one-sided inverse is
    # two-sided and one product settles it.
    if refalg.series_mul(base, tables, f, g) != refalg.series_one(base, len(f)):
        return ["f * inverse is not 1"]
    return []


def _lift(expect, report, wl):
    res = report.get("results", {})
    base, tables = wl.deformations[expect["deformation"]]
    g = res.get("lift")
    if not isinstance(g, list) or not g:
        return [f"lift has the wrong shape: {g!r}"]
    problems = _differ("constant term", g[0], expect["idempotent"])
    if refalg.series_mul(base, tables, g, g) != g:
        problems.append("lift is not idempotent")
    bound = (len(g) - 1).bit_length() + 1
    if not res.get("iterations", bound + 1) <= bound:
        problems.append(f"{res.get('iterations')} Newton steps, above {bound}")
    return problems


def _probe(expect, report, _wl):
    res = report.get("results", {})
    orders = res.get("orders", [])
    problems = _differ("orders probed", len(orders), expect["orders"])
    problems += _differ("first failure", res.get("first_failure"), None)
    # Every base here is commutative, so each idempotent is central and the
    # recursion solves (and commutes) at every order.
    bad = [o["order"] for o in orders if not (o["commutes"] and o["solves"])]
    return problems + _differ("orders that fail", bad, [])


def _validate(expect, report, _wl):
    res = report.get("results", {})
    return _differ("order", res.get("order"), expect["order"])


def _extend_verify(expect, report, _wl):
    got = {a["clause"]: a.get("details") for a in report.get("assertions", [])}
    problems = []
    for clause, details in expect["clauses"].items():
        problems += _differ(clause, got.get(clause), details)
    return problems


def _extend(expect, report, _wl):
    res = report.get("results", {})
    carrier = res.get("carrier", {})
    return (_differ("carrier unit", carrier.get("unit"), expect["unit"])
            + (["carrier table differs from A + M twisted by f"]
               if carrier.get("structure") != expect["structure"] else []))


CHECKS = {
    "classify": _classify,
    "shriek": _shriek,
    "cohomology": _cohomology,
    "deform-invert": _invert,
    "deform-lift": _lift,
    "deform-probe": _probe,
    "deform-validate": _validate,
    "extend-verify": _extend_verify,
    "extend": _extend,
}

