"""Batch front door: ingest a workspace document, run verification jobs,
emit human-readable lines plus a machine-readable JSON report.

SUBCOMMANDS is the one place a subcommand, its help and its arguments are
declared.  The parser is built from it once, at import, and a job
subcommand's options are the fields of the document job it runs.

A handler reads its job and calls the library, which makes every refusal
(work above --cap before doing it, a deformation order where t vanishes)
as an error that main maps to an exit code; a handler raises only
ParseError, for a job it cannot read.  deformation.at_order moves a
deformation job's deformation to its order, at the cost of its support.
Documents are read and written only by documents.py: a handler asks its
Workspace for certified objects by name (Workspace.with_modulus under
--modulus-override) and writes a carrier with documents.algebra_to_doc.

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 parse error,
3 validation error, 4 an enumeration cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import DEFAULT_CAP
from .classify import decomposition_report, search_exchange_counterexample
from .deformation import (
    at_order,
    clean_decompose_def,
    flatten,
    invert_def,
    lift_idempotent_def,
    obstruction_probe,
    t_in_radical_check,
)
from .documents import (
    JobSpec,
    Workspace,
    algebra_to_doc,
    builtin_catalog_document,
    dump_report,
    integer_field,
    key_str,
)
from .errors import (
    CapExceeded,
    ParseError,
    SelfCheckFailed,
    ValidationFailure,
    ZnAlgError,
)
from .extension import build_extension, verify_extension_theorems
from .hochschild import cohomology_dims, regular_bimodule, zero_cochain
from .poset import build_shriek, classify_shriek, triangular_ideal_facts

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4


# subcommand -> (help, arguments as (name, argparse keywords) in --help
# order).  An option of a job subcommand is the job-spec field of the same
# name (dashes as underscores), so a command line runs exactly as the
# document job with those fields; --doc names the document, and deform's
# action is part of the job kind: its choices are the <action> of every
# deform-<action> kind of JOB_HANDLERS, in their order.
_DOC = ("--doc", {"required": True})
_EXTENSION = [_DOC, ("--algebra", {"required": True}),
              ("--bimodule", {"required": True}), ("--cochain", {})]
SUBCOMMANDS = {
    "run": ("run a named job from a document",
            [("document", {}), ("job", {})]),
    "catalog": ("emit the built-in examples document",
                [("--out",
                  {"help": "write the document here instead of stdout"})]),
    "classify": ("full flag report for an algebra",
                 [_DOC, ("--algebra", {"required": True})]),
    "extend": ("build an extension carrier", _EXTENSION),
    "extend-verify": ("run the transfer suites", _EXTENSION),
    "deform": ("deformation operations", [
        ("action", {}),
        _DOC,
        ("--deformation", {"required": True}),
        ("--element", {"help": "JSON coefficient list"}),
        ("--idempotent", {"help": "JSON coordinate list"}),
        ("--depth", {"type": int}),
        ("--order", {"type": int, "help": "override the truncation order"}),
    ]),
    "shriek": ("assemble and verify a poset algebra",
               [_DOC, ("--presheaf", {"required": True})]),
    "cohomology": ("cocycle/coboundary dimensions", [
        _DOC, ("--algebra", {}), ("--presheaf", {}),
        ("--degree", {"type": int, "default": 2}),
    ]),
    "search-open-question": ("scan exchange rings for one-sided witnesses",
                             [_DOC, ("--algebras",
                                     {"nargs": "+", "required": True})]),
}


def main(argv=None):
    args = PARSER.parse_args(argv)
    if args.command is None:
        PARSER.print_help()
        return EXIT_PARSE
    try:
        report = dispatch(args)
        emit(report, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SelfCheckFailed as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ZnAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    failed = [a for a in report.get("assertions", []) if not a["passed"]]
    return EXIT_ASSERTION if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="znalg",
        description="exact verification workbench for finite Z_n-algebras")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="refusal threshold on elements, powers, entries "
                             "and series slot visits")
    parser.add_argument("--report", help="write the JSON report to this path")
    parser.add_argument("--modulus-override", type=int, default=None,
                        help="reinterpret loaded algebras over this modulus "
                             "(rejected if validation fails)")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, arguments) in SUBCOMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name, kwargs in arguments:
            if name == "action":
                prefix = f"{command}-"
                kwargs = {"choices": [kind.removeprefix(prefix)
                                      for kind in JOB_HANDLERS
                                      if kind.startswith(prefix)]}
            cmd.add_argument(name, **kwargs)
    return parser


def dispatch(args):
    if args.cap < 0:
        raise ParseError(f"--cap must be >= 0, got {args.cap}")
    if args.command == "catalog":
        doc = builtin_catalog_document()
        text = dump_report(doc)
        if args.out:
            _write(args.out, text)
        else:
            print(text)
        return {"kind": "catalog", "assertions": [],
                "results": {"objects": sorted(doc)}}

    if args.command == "run":
        ws = Workspace.load(args.document)
        spec = ws.job(args.job)
        return execute_job(ws, args.job, spec, args)

    ws = Workspace.load(args.doc)
    spec = {"kind": args.command}
    for name, _ in SUBCOMMANDS[args.command][1]:
        field = name.lstrip("-").replace("-", "_")
        if field == "action":
            spec["kind"] = f"{args.command}-{args.action}"
        elif field != "doc":
            spec[field] = getattr(args, field)
    return execute_job(ws, args.command, spec, args)


def execute_job(ws, name, spec, args):
    start = time.monotonic()
    spec = JobSpec(spec)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in JOB_HANDLERS:
        raise ParseError(f"unknown job kind {kind!r}")
    cap = getattr(args, "cap", DEFAULT_CAP)
    report = {
        "job": name,
        "kind": kind,
        "settings": {"cap": cap},
        "assertions": [],
        "results": {},
    }
    if getattr(args, "modulus_override", None) is not None:
        ws = ws.with_modulus(args.modulus_override)
    JOB_HANDLERS[kind](ws, spec, cap, report)
    report["timing"] = {"elapsed_s": round(time.monotonic() - start, 3)}
    return report


def _assert(report, clause, passed, **details):
    entry = {"clause": clause, "passed": bool(passed)}
    if details:
        entry["details"] = details
    report["assertions"].append(entry)


def job_classify(ws, spec, cap, report):
    A = ws.algebra(spec["algebra"])
    rep = decomposition_report(A, cap)
    report["results"]["algebra"] = A.name
    report["results"]["flags"] = rep.flags
    report["results"]["counts"] = {
        "idempotents": len(rep.idempotents),
        "units": len(rep.units),
        "nilpotents": len(rep.nilpotents),
    }
    # every element has a witness record, so its label is made once here
    label = {a: key_str(a) for a in rep.witnesses}
    report["results"]["failures"] = {
        flag: {k: (label[v] if isinstance(v, tuple) else v)
               for k, v in info.items() if k in ("element", "count")}
        for flag, info in rep.failures.items()}
    report["results"]["witnesses"] = {
        label[a]: {
            k: ([label[part] for part in v] if isinstance(v, tuple) else v)
            for k, v in rec.items()}
        for a, rec in rep.witnesses.items()}
    _assert(report, "clean-implies-exchange",
            (not rep.flags["clean"]) or rep.flags["exchange"])
    _assert(report, "uniquely-clean-implies-clean",
            (not rep.flags["uniquely_clean"]) or rep.flags["clean"])
    _assert(report, "uniquely-nil-clean-implies-nil-clean",
            (not rep.flags["uniquely_nil_clean"]) or rep.flags["nil_clean"])


def _resolve_extension(ws, spec):
    A = ws.algebra(spec["algebra"])
    M = ws.bimodule(spec["bimodule"])
    if spec.get("cochain"):
        f = ws.cochain(spec["cochain"])
    else:
        f = zero_cochain(M, 2)
    return A, M, f


def job_extend(ws, spec, cap, report):
    A, M, f = _resolve_extension(ws, spec)
    B = build_extension(A, M, f)
    report["results"]["carrier"] = algebra_to_doc(B.carrier)
    _assert(report, "carrier-certified", True, rank=B.carrier.rank)


def job_extend_verify(ws, spec, cap, report):
    A, M, f = _resolve_extension(ws, spec)
    rep = verify_extension_theorems(A, M, f, cap)
    report["results"]["carrier"] = rep.carrier_name
    for clause in rep.clauses:
        _assert(report, clause.tag, clause.passed, **clause.details)


def _job_deformation(ws, spec):
    """The named deformation at the job's order, its own unless given."""
    D = ws.deformation(spec["deformation"])
    if spec.get("order") is None:
        return D
    return at_order(D, integer_field(spec, "order"))


def _json_field(spec, key, missing, convert):
    """convert applied to the JSON text in spec[key]; an absent field raises
    ParseError(missing), and text that does not parse or convert raises
    ParseError("bad <key>: ...")."""
    text = spec.get(key)
    if not text:
        raise ParseError(missing)
    try:
        return convert(json.loads(text))
    except (ValueError, TypeError, RecursionError, ZnAlgError) as exc:
        raise ParseError(f"bad {key}: {exc}")


def job_deform_validate(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    rc = t_in_radical_check(D, cap)
    report["results"]["deformation"] = D.name
    report["results"]["order"] = D.order
    _assert(report, "deformation-valid", True)
    _assert(report, "t-in-radical-structural", rc.structural_ok)
    _assert(report, "t-in-radical-brute-force", rc.brute_ok)


def job_deform_invert(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    f = _json_field(spec, "element", "this action needs --element",
                    lambda coeffs: tuple(map(D.base.coerce, coeffs)))
    g = invert_def(D, f, cap)
    report["results"]["inverse"] = [list(c) for c in g]
    # invert_def certifies f*g = g*f = 1 and raises SelfCheckFailed otherwise
    _assert(report, "inverse-two-sided", True)


def job_deform_lift(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    lift = lift_idempotent_def(D, _json_field(
        spec, "idempotent", "lift needs --idempotent", D.base.coerce), cap)
    report["results"]["lift"] = [list(c) for c in lift.lift]
    report["results"]["iterations"] = lift.iterations
    _assert(report, "newton-within-bound", lift.iterations <= lift.bound,
            iterations=lift.iterations, bound=lift.bound)
    if lift.recursed:
        # a central recursion that disagrees raises SelfCheckFailed
        _assert(report, "central-recursion-matches-newton", True)


def job_deform_probe(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    depth = (None if spec.get("depth") is None
             else integer_field(spec, "depth"))
    e = _json_field(spec, "idempotent", "probe needs --idempotent",
                    D.base.coerce)
    rep = obstruction_probe(D, e, depth, cap)
    report["results"]["orders"] = [
        {"order": k, "commutes": c, "solves": s} for k, c, s in rep.orders]
    report["results"]["first_failure"] = rep.first_failure
    _assert(report, "orders-one-and-two-solvable",
            all(s for k, _c, s in rep.orders if k <= 2))


def job_deform_flatten(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    F = flatten(D, cap)
    report["results"]["carrier"] = algebra_to_doc(F)
    _assert(report, "flattened-model-certified", True, rank=F.rank)


def job_deform_clean_decompose(ws, spec, cap, report):
    D = _job_deformation(ws, spec)
    h = _json_field(spec, "element", "this action needs --element",
                    lambda coeffs: tuple(map(D.base.coerce, coeffs)))
    e_t, u_t = clean_decompose_def(D, h, cap)
    report["results"]["idempotent_part"] = [list(c) for c in e_t]
    report["results"]["unit_part"] = [list(c) for c in u_t]
    _assert(report, "decomposition-certified", True)


def job_shriek(ws, spec, cap, report):
    F = ws.presheaf(spec["presheaf"])
    PA = build_shriek(F)
    report["results"]["carrier"] = algebra_to_doc(PA.carrier)
    facts = triangular_ideal_facts(PA, cap)
    _assert(report, "strict-blocks-form-ideal", facts.is_ideal)
    _assert(report, "ideal-nilpotency-within-chain-bound",
            facts.nilpotency_index <= facts.longest_chain,
            index=facts.nilpotency_index, chain=facts.longest_chain)
    _assert(report, "quotient-is-stalk-product",
            facts.quotient_matches_product)
    if facts.inside_radical is not None:
        _assert(report, "ideal-inside-radical", facts.inside_radical)
    shriek_rep = classify_shriek(PA, cap)
    report["results"]["stalk_flags"] = shriek_rep.stalk_flags
    report["results"]["carrier_flags"] = shriek_rep.carrier_flags
    for key, value in shriek_rep.biconditionals.items():
        if value is not None:
            _assert(report, f"{key.replace('_', '-')}-transfer", value)


def job_cohomology(ws, spec, cap, report):
    degree = integer_field(spec, "degree", 2)
    if spec.get("presheaf") and spec.get("algebra"):
        raise ParseError("cohomology takes --algebra or --presheaf, not both")
    if spec.get("presheaf"):
        PA = build_shriek(ws.presheaf(spec["presheaf"]))
        A = PA.carrier
    elif spec.get("algebra"):
        A = ws.algebra(spec["algebra"])
    else:
        raise ParseError("cohomology needs --algebra or --presheaf")
    dims = cohomology_dims(regular_bimodule(A), degree, cap)
    report["results"]["algebra"] = A.name
    report["results"]["degree"] = dims.degree
    report["results"]["dim_cocycles"] = dims.dim_cocycles
    report["results"]["dim_coboundaries"] = dims.dim_coboundaries
    report["results"]["dim_h"] = dims.dim_h
    _assert(report, "dimension-accounting",
            dims.dim_h == dims.dim_cocycles - dims.dim_coboundaries
            and dims.dim_h >= 0)


def job_search_open_question(ws, spec, cap, report):
    if not isinstance(spec["algebras"], list):
        raise ParseError("search-open-question needs an array of algebras")
    algebras = [ws.algebra(name) for name in spec["algebras"]]
    result = search_exchange_counterexample(algebras, cap)
    entries = []
    for entry in result.entries:
        row = {"algebra": entry["algebra"]}
        if "skipped" in entry:
            row["skipped"] = entry["skipped"]
        else:
            row["exchange"] = entry["exchange"]
            row["hits"] = [[key_str(a), key_str(e)]
                           for a, e in entry.get("hits", [])]
        entries.append(row)
    report["results"]["entries"] = entries
    report["results"]["total_hits"] = result.total_hits
    _assert(report, "scan-completed", True, evidence_only=True)


JOB_HANDLERS = {
    "classify": job_classify,
    "extend": job_extend,
    "extend-verify": job_extend_verify,
    "deform-validate": job_deform_validate,
    "deform-invert": job_deform_invert,
    "deform-lift": job_deform_lift,
    "deform-probe": job_deform_probe,
    "deform-flatten": job_deform_flatten,
    "deform-clean-decompose": job_deform_clean_decompose,
    "shriek": job_shriek,
    "cohomology": job_cohomology,
    "search-open-question": job_search_open_question,
}


def emit(report, args):
    if report.get("kind") == "catalog" and not getattr(args, "out", None):
        return  # document already printed
    for entry in report.get("assertions", []):
        mark = "PASS" if entry["passed"] else "FAIL"
        details = entry.get("details")
        suffix = f"  {details}" if details else ""
        print(f"[{mark}] {entry['clause']}{suffix}")
    results = report.get("results", {})
    for key in sorted(results):
        value = results[key]
        if isinstance(value, (str, int, float, bool)) or value is None:
            print(f"{key}: {value}")
    path = getattr(args, "report", None)
    if path:
        _write(path, dump_report(report))


def _write(path, text):
    """text and a newline into path; an unwritable path is a parse error."""
    try:
        with open(path, "w") as fh:
            print(text, file=fh)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}")


PARSER = build_parser()


if __name__ == "__main__":
    sys.exit(main())
