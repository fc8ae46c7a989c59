"""Workspace documents, job dispatch, exit codes, and report determinism."""

import copy
import json

import pytest

from znalg.cli import main
from znalg.documents import Workspace, builtin_catalog_document, dump_report
from znalg.errors import ParseError


@pytest.fixture()
def catalog_doc(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(builtin_catalog_document()))
    return path


def test_workspace_resolves_catalog_objects(catalog_doc):
    ws = Workspace.load(catalog_doc)
    A = ws.algebra("Z2[X]/(X^2)")
    assert A.rank == 2
    M = ws.bimodule("twisted projection")
    assert M.rank == 1
    D = ws.deformation("x^2=t over Z2 (N=4)")
    assert D.order == 4
    F = ws.presheaf("example-1")
    assert F.poset.size == 3


def test_workspace_missing_reference(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"algebras": {}}))
    ws = Workspace.load(path)
    with pytest.raises(ParseError):
        ws.algebra("nope")


def test_malformed_document_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code = main(["run", str(path), "anything"])
    assert code == 2


def run_document(tmp_path, doc, job="j"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["run", str(path), job])


def classify_table(structure):
    return {"algebras": {"A": {"modulus": 2, "rank": 1,
                               "structure": structure, "unit": [1]}},
            "jobs": {"j": {"kind": "classify", "algebra": "A"}}}


def test_job_missing_field_is_parse_error(tmp_path, capsys):
    code = run_document(tmp_path, {"jobs": {"j": {"kind": "classify"}}})
    assert code == 2
    assert "'algebra'" in capsys.readouterr().err


def test_non_array_structure_is_validation_error(tmp_path, capsys):
    assert run_document(tmp_path, classify_table(5)) == 3
    assert "not an array" in capsys.readouterr().err


def test_string_table_entry_is_validation_error(tmp_path, capsys):
    assert run_document(tmp_path, classify_table([[["1"]]])) == 3
    assert "integers" in capsys.readouterr().err


def table_document():
    # Z2 x Z2 with the projection twist, the dual numbers D with their
    # regular bimodule, a zero cochain and the order-2 x^2 = t deformation,
    # and the constant Z2 presheaf on a two-element chain
    return {
        "algebras": {
            "Z2": {"modulus": 2, "rank": 1, "unit": [1], "structure": [[[1]]]},
            "P": {"modulus": 2, "rank": 2, "unit": [1, 1],
                  "structure": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
            "D": {"modulus": 2, "rank": 2, "unit": [1, 0],
                  "structure": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}},
        "bimodules": {
            "twist": {"algebra": "P", "rank": 1,
                      "left_action": [[[1]], [[0]]],
                      "right_action": [[[0], [1]]]},
            "reg": {"algebra": "D", "regular": True, "rank": 2}},
        "cochains": {"f": {"bimodule": "reg", "degree": 2,
                           "values": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}},
        "deformations": {"x2t": {"algebra": "D", "order": 2, "cochains": [
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}},
        "posets": {"chain": {"size": 2, "covers": [[0, 1]]}},
        "presheaves": {"chain": {"poset": "chain", "stalks": ["Z2", "Z2"],
                                 "maps": {"0,1": [[1]]}}},
        "jobs": {
            "twist": {"kind": "extend", "algebra": "P", "bimodule": "twist"},
            "f": {"kind": "extend", "algebra": "D", "bimodule": "reg",
                  "cochain": "f"},
            "x2t": {"kind": "deform-validate", "deformation": "x2t"},
            "chain": {"kind": "shriek", "presheaf": "chain"}},
    }


def _cells_parent(table):
    """The array whose items are the innermost integer cells of table."""
    while isinstance(table[0][0], list):
        table = table[0]
    return table


def _set_entry(make):
    def mutate(table):
        cell = _cells_parent(table)[0]
        cell[0] = make(cell[0])
        return table
    return mutate


def _set_cell(make):
    def mutate(table):
        cells = _cells_parent(table)
        cells[0] = make(cells[0])
        return table
    return mutate


# table name -> path to it in table_document(); the second step names the
# object and the job that loads it
TABLES = {
    "left_action": ("bimodules", "twist", "left_action"),
    "right_action": ("bimodules", "twist", "right_action"),
    "values": ("cochains", "f", "values"),
    "cochains": ("deformations", "x2t", "cochains"),
    "maps": ("presheaves", "chain", "maps", "0,1"),
}

MUTATIONS = {
    "intact": (lambda table: table, 0),
    # an entry that would read back as the same integer if coerced
    "string-entry": (_set_entry(str), 3),
    "float-entry": (_set_entry(lambda v: v + 0.5), 3),
    "scalar-cell": (_set_cell(lambda cell: 1), 3),
    "long-cell": (_set_cell(lambda cell: cell + [0]), 3),
    "non-array": (lambda table: "0", 3),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("table", list(TABLES))
def test_malformed_table_is_validation_error(tmp_path, capsys, table,
                                             mutation):
    mutate, expected = MUTATIONS[mutation]
    doc = table_document()
    *path, key = TABLES[table]
    owner = doc
    for step in path:
        owner = owner[step]
    owner[key] = mutate(copy.deepcopy(owner[key]))
    assert run_document(tmp_path, doc, path[1]) == expected
    assert "Traceback" not in capsys.readouterr().err


def test_classify_job_exit_zero(catalog_doc, capsys):
    code = main(["classify", "--doc", str(catalog_doc),
                 "--algebra", "Z2[X]/(X^2)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_run_named_job(catalog_doc, capsys):
    code = main(["run", str(catalog_doc), "classify-dual-numbers"])
    assert code == 0


def test_extend_verify_twisted_passes_biconditional(catalog_doc, capsys):
    code = main(["run", str(catalog_doc), "extend-verify-twisted"])
    out = capsys.readouterr().out
    assert code == 0
    assert "uniquely-nil-clean-criterion" in out


def test_extend_emits_reingestible_carrier(catalog_doc, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["--report", str(report_path), "extend",
                 "--doc", str(catalog_doc),
                 "--algebra", "Z2", "--bimodule", "Z2 regular"])
    assert code == 0
    carrier = json.loads(report_path.read_text())["results"]["carrier"]
    doc2 = {"algebras": {"carrier": carrier},
            "jobs": {"go": {"kind": "classify", "algebra": "carrier"}}}
    p2 = tmp_path / "doc2.json"
    p2.write_text(json.dumps(doc2))
    assert main(["run", str(p2), "go"]) == 0


def test_deform_subcommands(catalog_doc, capsys):
    name = "x^2=t over Z2 (N=4)"
    assert main(["deform", "validate", "--doc", str(catalog_doc),
                 "--deformation", name]) == 0
    assert main(["deform", "invert", "--doc", str(catalog_doc),
                 "--deformation", name,
                 "--element", "[[1,1],[0,0],[0,0],[0,0]]"]) == 0
    assert main(["deform", "lift", "--doc", str(catalog_doc),
                 "--deformation", name, "--idempotent", "[1,0]"]) == 0
    assert main(["deform", "probe", "--doc", str(catalog_doc),
                 "--deformation", name, "--idempotent", "[1,0]"]) == 0
    assert main(["deform", "flatten", "--doc", str(catalog_doc),
                 "--deformation", name, "--order", "2"]) == 0
    assert main(["deform", "clean-decompose", "--doc", str(catalog_doc),
                 "--deformation", name, "--order", "3",
                 "--element", "[[0,1],[0,0],[0,0]]"]) == 0


def test_deform_invert_rejects_bad_element(catalog_doc, capsys):
    code = main(["deform", "invert", "--doc", str(catalog_doc),
                 "--deformation", "x^2=t over Z2 (N=4)",
                 "--element", "[[0,1],[0,0],[0,0],[0,0]]"])
    assert code == 3  # constant term not a unit: validation failure


def test_shriek_job(catalog_doc, capsys):
    code = main(["shriek", "--doc", str(catalog_doc),
                 "--presheaf", "example-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nil-clean-transfer" in out.replace("_", "-")


def test_cohomology_job_square(catalog_doc, tmp_path):
    report_path = tmp_path / "coh.json"
    code = main(["--report", str(report_path), "cohomology",
                 "--doc", str(catalog_doc),
                 "--presheaf", "square-circle", "--degree", "1"])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["results"]["dim_h"] == 1


def test_search_open_question_job(catalog_doc, tmp_path):
    report_path = tmp_path / "search.json"
    code = main(["--report", str(report_path), "search-open-question",
                 "--doc", str(catalog_doc),
                 "--algebras", "Z2", "Z3", "Z4"])
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["results"]["total_hits"] == 4


def test_cap_exit_code(catalog_doc):
    code = main(["--cap", "2", "classify", "--doc", str(catalog_doc),
                 "--algebra", "Z4"])
    assert code == 4


def test_modulus_override_rejected_when_invalid(tmp_path):
    # basis {1, a, b} with ab = 2b and other generator products zero is
    # associative mod 4 (a(ab) = 4b = 0) but not mod 3 (4b = b != 0)
    doc = {"algebras": {"mod4-twist": {
        "modulus": 4, "rank": 3,
        "structure": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 2]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
        "unit": [1, 0, 0]}}}
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--doc", str(path),
                 "--algebra", "mod4-twist"]) == 0
    code = main(["--modulus-override", "3", "classify",
                 "--doc", str(path), "--algebra", "mod4-twist"])
    assert code == 3


def test_modulus_override_accepted_when_valid(catalog_doc):
    # the dual-numbers table validates over any modulus
    code = main(["--modulus-override", "5", "classify",
                 "--doc", str(catalog_doc), "--algebra", "Z2[X]/(X^2)"])
    assert code == 0


def test_report_determinism_roundtrip(catalog_doc, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        assert main(["--report", str(p), "run", str(catalog_doc),
                     "classify-dual-numbers"]) == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("timing")
    r2.pop("timing")
    assert dump_report(r1) == dump_report(r2)


def test_catalog_roundtrip_identical_reports(tmp_path):
    out1 = tmp_path / "cat1.json"
    out2 = tmp_path / "cat2.json"
    assert main(["catalog", "--out", str(out1)]) == 0
    assert main(["catalog", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    # re-ingesting the emitted document reproduces the same classify report
    r1, r2 = tmp_path / "q1.json", tmp_path / "q2.json"
    assert main(["--report", str(r1), "classify", "--doc", str(out1),
                 "--algebra", "T2(Z2)"]) == 0
    assert main(["--report", str(r2), "classify", "--doc", str(out2),
                 "--algebra", "T2(Z2)"]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("timing")
    d2.pop("timing")
    assert d1 == d2


def test_document_cochain_drives_extension(tmp_path):
    # a multiplication-valued cocycle defined inline in the document
    doc = {
        "algebras": {"Z2": {"modulus": 2, "rank": 1,
                            "structure": [[[1]]], "unit": [1]}},
        "bimodules": {"reg": {"algebra": "Z2", "regular": True, "rank": 1}},
        "cochains": {"mul": {"bimodule": "reg", "degree": 2,
                             "values": [[[1]]]}},
        "jobs": {"v": {"kind": "extend-verify", "algebra": "Z2",
                       "bimodule": "reg", "cochain": "mul"}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "v"]) == 0


def test_cohomology_rejects_non_prime_modulus(catalog_doc):
    code = main(["cohomology", "--doc", str(catalog_doc),
                 "--algebra", "Z4", "--degree", "2"])
    assert code == 3


def test_failed_assertion_exit_code(catalog_doc, monkeypatch):
    # job assertions are theorems on valid input, so force a failing clause
    # through a stub handler to pin the exit-code contract
    from znalg import cli

    def stub(ws, spec, cap, report):
        report["assertions"].append({"clause": "stub-clause", "passed": False})

    monkeypatch.setitem(cli.JOB_HANDLERS, "classify", stub)
    code = main(["classify", "--doc", str(catalog_doc), "--algebra", "Z2"])
    assert code == 1
