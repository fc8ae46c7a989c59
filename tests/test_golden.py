"""Golden CLI runs: reports, exit codes, stdout and stderr, byte for byte.

Each case runs the public entry point against the built-in catalog document
and compares what it wrote with the files under tests/golden/: the report
without its timing block (whose digits vary from run to run) as
<case>.report.json, and the exit code, stdout and stderr as <case>.log.
The cases are every job of the catalog document, the document itself, and
each deform action on each catalog deformation, with refusals among them:
a constant term that is not a unit, an element that is not idempotent, a
series job above the cap and an unknown deformation.

Running this file as a script rewrites the golden files from the current
code; do that only for a report change that is meant and declared.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from znalg.cli import main
from znalg.documents import builtin_catalog_document

GOLDEN = Path(__file__).resolve().parent / "golden"

# the timing block is the last key of a report, sorted after "settings"
TIMING = re.compile(
    r',\n  "timing": \{\n    "elapsed_s": [0-9.e+-]+\n  \}\n\}\n\Z')

DEFORMATIONS = {
    "trivial": "Z2[X]/(X^2) trivial (N=4)",
    "x2t": "x^2=t over Z2 (N=4)",
    "gauge": "Z2 x Z2 gauge/coboundary (N=4)",
}

# deform action -> (case suffix, extra arguments).  Every base has rank 2:
# Z2[X]/(X^2) with 1 = (1, 0), and Z2 x Z2 with 1 = (1, 1)
DEFORM_ARGS = {
    "validate": [("", [])],
    "invert": [("", ["--element", "[[1,1],[0,1],[1,0],[0,0]]"]),
               ("-not-a-unit", ["--element", "[[0,1],[0,0],[0,0],[0,0]]"])],
    "lift": [("", ["--idempotent", "[1,0]"]),
             ("-order-9", ["--idempotent", "[1,0]", "--order", "9"])],
    "probe": [("", ["--idempotent", "[1,0]"]),
              ("-depth-2", ["--idempotent", "[0,1]", "--depth", "2"])],
    "flatten": [("", []), ("-order-2", ["--order", "2"])],
    "clean-decompose": [("", ["--element", "[[0,1],[1,0],[0,0],[0,1]]"])],
}


def cases():
    """{case: argv after the global options, with DOC for the document}."""
    out = {f"job-{job}": ["run", "DOC", job]
           for job in sorted(builtin_catalog_document()["jobs"])}
    for label, name in DEFORMATIONS.items():
        for action, variants in DEFORM_ARGS.items():
            for suffix, extra in variants:
                out[f"deform-{action}{suffix}-{label}"] = [
                    "deform", action, "--doc", "DOC", "--deformation", name,
                    *extra]
    # refusals: a series job over the cap, and an unknown name
    out["deform-invert-cap-x2t"] = [
        "--cap", "20", "deform", "invert", "--doc", "DOC", "--deformation",
        DEFORMATIONS["x2t"], "--element", "[[1,0],[0,0],[0,0],[0,0]]"]
    out["deform-validate-unknown"] = [
        "deform", "validate", "--doc", "DOC", "--deformation", "nope"]
    return out


CASES = cases()


def run_case(argv, tmp):
    """(report text without timing or None, log text) of one CLI run."""
    doc = tmp / "catalog.json"
    if not doc.exists():
        assert main(["catalog", "--out", str(doc)]) == 0
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    argv = [str(doc) if a == "DOC" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--report", str(report), *argv])
    text = None
    if report.exists():
        text, count = TIMING.subn("\n}\n", report.read_text())
        assert count == 1, "report has no trailing timing block"
    log = (f"exit: {code}\n--- stdout\n{out.getvalue()}"
           f"--- stderr\n{err.getvalue()}")
    return text, log


def golden(case, suffix):
    path = GOLDEN / f"{case}{suffix}"
    return path.read_text() if path.exists() else None


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_catalog_document_is_golden(tmp):
    doc = tmp / "catalog.json"
    assert main(["catalog", "--out", str(doc)]) == 0
    assert doc.read_text() == golden("catalog", ".json")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_run_is_golden(tmp, case):
    report, log = run_case(CASES[case], tmp)
    assert log == golden(case, ".log")
    assert report == golden(case, ".report.json")


def test_every_golden_file_has_a_case():
    names = {p.name for p in GOLDEN.iterdir()}
    expected = {"catalog.json"} | {f"{c}.log" for c in CASES} | {
        f"{c}.report.json" for c in CASES
        if (GOLDEN / f"{c}.report.json").exists()}
    assert names == expected


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for case, argv in sorted(CASES.items()):
            report, log = run_case(argv, tmp)
            (GOLDEN / f"{case}.log").write_text(log)
            if report is not None:
                (GOLDEN / f"{case}.report.json").write_text(report)
        doc = (tmp / "catalog.json").read_text()
        (GOLDEN / "catalog.json").write_text(doc)


if __name__ == "__main__":
    sys.exit(write_golden())
