"""Workspace documents, job dispatch, exit codes, and report determinism."""

import copy
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from znalg.algebra import Multilinear
from znalg.cli import main
from znalg.deformation import x_squared_t_deformation
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
            "chain": {"kind": "shriek", "presheaf": "chain"},
            "D": {"kind": "classify", "algebra": "D"}},
    }


def _cells_parent(table):
    """The array whose items are the innermost integer cells of table."""
    while isinstance(table[0][0], list):
        table = table[0]
    return table


def _on_cell(change):
    """The mutation that replaces the first cell of a table, its innermost
    array of integers, by change(cell); a vector is its own first cell."""
    def mutate(table):
        if not isinstance(table[0], list):
            return change(table)
        cells = _cells_parent(table)
        cells[0] = change(cells[0])
        return table
    return mutate


def _set_entry(make):
    return _on_cell(lambda cell: [make(cell[0])] + cell[1:])


def _ragged(table):
    """The first row of cells one cell short; a vector one entry short."""
    if not isinstance(table[0], list):
        return table[:-1]
    _cells_parent(table).pop()
    return table


def _two_faults(table):
    """A string first entry and a cell one entry too long at the end."""
    table = _set_entry(str)(table)
    node = table
    while isinstance(node[-1], list):
        node = node[-1]
    node.append(0)
    return table


def _long_then_scalar(table):
    """The first cell one entry too long and the last cell a scalar."""
    if not isinstance(table[0], list):
        return 1
    table = _on_cell(lambda cell: cell + [0])(table)
    node = table
    while isinstance(node[-1][-1], list):
        node = node[-1]
    node[-1] = 1
    return table


# table name -> path to it in table_document(); the second step names the
# object and the job that loads it
TABLES = {
    "structure": ("algebras", "D", "structure"),
    "unit": ("algebras", "D", "unit"),
    "left_action": ("bimodules", "twist", "left_action"),
    "right_action": ("bimodules", "twist", "right_action"),
    "values": ("cochains", "f", "values"),
    "cochains": ("deformations", "x2t", "cochains"),
    "maps": ("presheaves", "chain", "maps", "0,1"),
}

MUTATIONS = {
    "intact": lambda table: table,
    # an entry that would read back as the same integer if coerced
    "string-entry": _set_entry(str),
    "float-entry": _set_entry(lambda v: v + 0.5),
    # JSON true and false are not the integers 1 and 0
    "bool-entry": _set_entry(bool),
    "scalar-cell": _on_cell(lambda cell: 1),
    "long-cell": _on_cell(lambda cell: cell + [0]),
    "non-array": lambda table: "0",
    # an array above the cells one item short, every row alike
    "short-row": lambda table: table[1:],
    "ragged": _ragged,
    "two-faults": _two_faults,
    "long-then-scalar": _long_then_scalar,
}

# (table, mutation) -> the message of the refused job, exit 3, whose whole
# stderr is "validation error: <message>\n"
TABLE_REFUSALS = {
    ("structure", "string-entry"):
        "structure table entries must be integers",
    ("structure", "float-entry"):
        "structure table entries must be integers",
    ("structure", "bool-entry"):
        "structure table entries must be integers",
    ("structure", "scalar-cell"):
        "structure table is not an array at depth 2",
    ("structure", "long-cell"):
        "structure table has an array of length 3 at depth 2, expected 2",
    ("structure", "non-array"):
        "structure table is not an array at depth 0",
    ("structure", "short-row"):
        "structure table has an array of length 1 at depth 0, expected 2",
    ("structure", "ragged"):
        "structure table has an array of length 1 at depth 1, expected 2",
    ("structure", "two-faults"):
        "structure table has an array of length 3 at depth 2, expected 2",
    ("unit", "string-entry"):
        "unit vector entries must be integers",
    ("unit", "float-entry"):
        "unit vector entries must be integers",
    ("unit", "bool-entry"):
        "unit vector entries must be integers",
    ("unit", "scalar-cell"):
        "unit vector is not an array at depth 0",
    ("unit", "long-cell"):
        "unit vector has an array of length 3 at depth 0, expected 2",
    ("unit", "non-array"):
        "unit vector is not an array at depth 0",
    ("unit", "short-row"):
        "unit vector has an array of length 1 at depth 0, expected 2",
    ("unit", "ragged"):
        "unit vector has an array of length 1 at depth 0, expected 2",
    ("unit", "two-faults"):
        "unit vector has an array of length 3 at depth 0, expected 2",
    ("left_action", "string-entry"):
        "left action table entries must be integers",
    ("left_action", "float-entry"):
        "left action table entries must be integers",
    ("left_action", "bool-entry"):
        "left action table entries must be integers",
    ("left_action", "scalar-cell"):
        "left action table is not an array at depth 2",
    ("left_action", "long-cell"):
        "left action table has an array of length 2 at depth 2, expected 1",
    ("left_action", "non-array"):
        "left action table is not an array at depth 0",
    ("left_action", "short-row"):
        "left action table has an array of length 1 at depth 0, expected 2",
    ("left_action", "ragged"):
        "left action table has an array of length 0 at depth 1, expected 1",
    ("left_action", "two-faults"):
        "left action table has an array of length 2 at depth 2, expected 1",
    ("right_action", "string-entry"):
        "right action table entries must be integers",
    ("right_action", "float-entry"):
        "right action table entries must be integers",
    ("right_action", "bool-entry"):
        "right action table entries must be integers",
    ("right_action", "scalar-cell"):
        "right action table is not an array at depth 2",
    ("right_action", "long-cell"):
        "right action table has an array of length 2 at depth 2, expected 1",
    ("right_action", "non-array"):
        "right action table is not an array at depth 0",
    ("right_action", "short-row"):
        "right action table has an array of length 0 at depth 0, expected 1",
    ("right_action", "ragged"):
        "right action table has an array of length 1 at depth 1, expected 2",
    ("right_action", "two-faults"):
        "right action table has an array of length 2 at depth 2, expected 1",
    ("values", "string-entry"):
        "cochain values entries must be integers",
    ("values", "float-entry"):
        "cochain values entries must be integers",
    ("values", "bool-entry"):
        "cochain values entries must be integers",
    ("values", "scalar-cell"):
        "cochain values is not an array at depth 2",
    ("values", "long-cell"):
        "cochain values has an array of length 3 at depth 2, expected 2",
    ("values", "non-array"):
        "cochain values is not an array at depth 0",
    ("values", "short-row"):
        "cochain values has an array of length 1 at depth 0, expected 2",
    ("values", "ragged"):
        "cochain values has an array of length 1 at depth 1, expected 2",
    ("values", "two-faults"):
        "cochain values has an array of length 3 at depth 2, expected 2",
    ("cochains", "string-entry"):
        "deformation cochains entries must be integers",
    ("cochains", "float-entry"):
        "deformation cochains entries must be integers",
    ("cochains", "bool-entry"):
        "deformation cochains entries must be integers",
    ("cochains", "scalar-cell"):
        "deformation cochains is not an array at depth 3",
    ("cochains", "long-cell"):
        "deformation cochains has an array of length 3 at depth 3, expected 2",
    ("cochains", "non-array"):
        "deformation cochains is not an array at depth 0",
    ("cochains", "short-row"):
        "deformation cochains has an array of length 0 at depth 0, expected 1",
    ("cochains", "ragged"):
        "deformation cochains has an array of length 1 at depth 2, expected 2",
    ("cochains", "two-faults"):
        "deformation cochains has an array of length 3 at depth 3, expected 2",
    ("maps", "string-entry"):
        "map table for (0,1) entries must be integers",
    ("maps", "float-entry"):
        "map table for (0,1) entries must be integers",
    ("maps", "bool-entry"):
        "map table for (0,1) entries must be integers",
    ("maps", "scalar-cell"):
        "map table for (0,1) is not an array at depth 1",
    ("maps", "long-cell"):
        "map table for (0,1) has an array of length 2 at depth 1, expected 1",
    ("maps", "non-array"):
        "map table for (0,1) is not an array at depth 0",
    ("maps", "short-row"):
        "map table for (0,1) has an array of length 0 at depth 0, expected 1",
    ("maps", "ragged"):
        "map table for (0,1) has an array of length 0 at depth 0, expected 1",
    ("maps", "two-faults"):
        "map table for (0,1) has an array of length 2 at depth 1, expected 1",
    # two faults on one level, a cell one entry too long before a scalar
    # cell: a level's types are checked before its lengths, so the scalar
    # is named, also for structure, left_action, right_action, values and
    # cochains, where a check of each array's type and length together
    # would name the long cell
    ("structure", "long-then-scalar"):
        "structure table is not an array at depth 2",
    ("unit", "long-then-scalar"):
        "unit vector is not an array at depth 0",
    ("left_action", "long-then-scalar"):
        "left action table is not an array at depth 2",
    ("right_action", "long-then-scalar"):
        "right action table is not an array at depth 2",
    ("values", "long-then-scalar"):
        "cochain values is not an array at depth 2",
    ("cochains", "long-then-scalar"):
        "deformation cochains is not an array at depth 3",
    ("maps", "long-then-scalar"):
        "map table for (0,1) is not an array at depth 1",
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("table", list(TABLES))
def test_malformed_table_is_validation_error(tmp_path, capsys, table,
                                             mutation):
    doc = table_document()
    *path, key = TABLES[table]
    owner = doc
    for step in path:
        owner = owner[step]
    owner[key] = MUTATIONS[mutation](copy.deepcopy(owner[key]))
    code = run_document(tmp_path, doc, path[1])
    err = capsys.readouterr().err
    if mutation == "intact":
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (
            3, f"validation error: {TABLE_REFUSALS[table, mutation]}\n")


def _set(*path, value):
    def mutate(doc):
        owner = doc
        for step in path[:-1]:
            owner = owner[step]
        owner[path[-1]] = value
    return mutate


CLASSIFY, EXTEND, SHRIEK = ("classify-dual-numbers", "extend-verify-twisted",
                            "shriek-example-1")
CIRCLE, SEARCH = "cohomology-circle", "search-open-question"
DEFORM = "deform-validate"


def _deform_job(order, kind="deform-validate",
                deformation="x^2=t over Z2 (N=4)", **fields):
    return _set("jobs", DEFORM, value=dict(
        fields, kind=kind, deformation=deformation, order=order))


def _probe_job(depth):
    return _deform_job(None, "deform-probe", idempotent="[1, 0]", depth=depth)


def _trivial_z3_clean_decompose(order):
    add = _set("deformations", "Z3 trivial", value={
        "algebra": "Z3", "order": 4, "cochains": [[[[0]]]] * 3})
    job = _deform_job(order, "deform-clean-decompose", "Z3 trivial",
                      element=json.dumps([[2]] + [[1]] * (order - 1)))
    return _then(add, job)


def _then(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


# case -> (mutation of the catalog document, job to run, exit code): 2 for a
# field of the wrong JSON type, 3 for a value the object cannot take
MALFORMED = {
    "kind-array": (_set("jobs", CLASSIFY, "kind", value=["classify"]),
                   CLASSIFY, 2),
    "reference-array": (_set("jobs", EXTEND, "algebra", value=["Z2 x Z2"]),
                        EXTEND, 2),
    "reference-object": (_set("jobs", EXTEND, "algebra",
                              value={"name": "Z2 x Z2"}), EXTEND, 2),
    "search-algebras-float": (_set("jobs", SEARCH, "algebras", value=2.5),
                              SEARCH, 2),
    "null-bimodule": (_set("bimodules", "twisted projection", value=None),
                      EXTEND, 2),
    "maps-array": (_set("presheaves", "example-1", "maps", value=[]),
                   SHRIEK, 2),
    "maps-int": (_set("presheaves", "example-1", "maps", value=5), SHRIEK, 2),
    "degree-string": (_set("jobs", CIRCLE, "degree", value="x"), CIRCLE, 2),
    # a job that names its algebra twice is refused, not read as one of them
    "cohomology-algebra-and-presheaf": (_set("jobs", CIRCLE, "algebra",
                                             value="Z2"), CIRCLE, 2),
    "cover-out-of-range": (_set("posets", "example-1", "covers", 0,
                                value=[0, 9]), SHRIEK, 3),
    "cover-negative": (_set("posets", "example-1", "covers", 0,
                            value=[0, -1]), SHRIEK, 3),
    "poset-size-negative": (_set("posets", "example-1", "size", value=-1),
                            SHRIEK, 3),
    "modulus-float": (_set("algebras", "Z2[X]/(X^2)", "modulus", value=2.5),
                      CLASSIFY, 3),
    "degree-float": (_set("jobs", CIRCLE, "degree", value=1.5), CIRCLE, 3),
    "map-incomparable": (_set("presheaves", "example-1", "maps", "1,2",
                              value=[[1]]), SHRIEK, 3),
    "map-reversed": (_set("presheaves", "example-1", "maps", "1,0",
                          value=[[1], [0]]), SHRIEK, 3),
    "map-outside-poset": (_set("presheaves", "example-1", "maps", "0,5",
                               value=[[1, 0]]), SHRIEK, 3),
    # JSON true is not the integer 1, in any table or cover
    "structure-bool": (_set("algebras", "Z2[X]/(X^2)", "structure", 0, 0,
                            value=[True, False]), CLASSIFY, 3),
    "unit-bool": (_set("algebras", "Z2[X]/(X^2)", "unit",
                       value=[True, False]), CLASSIFY, 3),
    "action-bool": (_set("bimodules", "twisted projection", "left_action", 0,
                         value=[[True]]), EXTEND, 3),
    "deformation-cochain-bool": (_then(_deform_job(None), _set(
        "deformations", "x^2=t over Z2 (N=4)", "cochains", 0, 1, 1,
        value=[True, False])), DEFORM, 3),
    "map-bool": (_set("presheaves", "example-1", "maps", "0,1",
                      value=[[True, False]]), SHRIEK, 3),
    "cover-bool": (_set("posets", "example-1", "covers", 0,
                        value=[0, True]), SHRIEK, 3),
    "deform-order-zero": (_deform_job(0), DEFORM, 3),
    # the ranges of a document's own integers are checked before its tables
    "algebra-rank-zero": (_set("algebras", "Z2[X]/(X^2)", "rank", value=0),
                          CLASSIFY, 3),
    "algebra-modulus-one": (_set("algebras", "Z2[X]/(X^2)", "modulus",
                                 value=1), CLASSIFY, 3),
    "bimodule-rank-negative": (_set("bimodules", "twisted projection",
                                    "rank", value=-1), EXTEND, 3),
    "bimodule-without-left-action": (_set(
        "bimodules", "twisted projection", value={
            "algebra": "Z2 x Z2", "rank": 1, "right_action": [[[0], [1]]]}),
        EXTEND, 2),
    "deformation-order-zero": (_then(_deform_job(None), _set(
        "deformations", "x^2=t over Z2 (N=4)", "order", value=0)),
        DEFORM, 3),
    # three correction tables for a document order of 5
    "deformation-cochains-short": (_then(_deform_job(None), _set(
        "deformations", "x^2=t over Z2 (N=4)", "order", value=5)),
        DEFORM, 3),
    # 2^(2*800) elements: refused before validating 800 orders
    "deform-order-800": (_deform_job(800), DEFORM, 4),
    "probe-depth-zero": (_probe_job(0), DEFORM, 3),
    "probe-depth-negative": (_probe_job(-3), DEFORM, 3),
    # order 1 leaves no order to probe, with or without a depth
    "probe-order-one": (_deform_job(1, "deform-probe", idempotent="[1, 0]"),
                        DEFORM, 3),
    "probe-order-one-depth-5": (_deform_job(
        1, "deform-probe", idempotent="[1, 0]", depth=5), DEFORM, 3),
    # the lift of a central idempotent at order 1 is e itself: there is no
    # order for the central recursion to derive, so no probe runs
    "lift-order-one": (_deform_job(1, "deform-lift", idempotent="[1, 0]"),
                       DEFORM, 0),
    # the uniquely clean base flattens: 2^(2*200) elements are refused
    # before re-validating, lifting and inverting at order 200
    "clean-decompose-order-200": (_deform_job(
        200, "deform-clean-decompose",
        element=json.dumps([[1, 1]] + [[0, 0]] * 199)), DEFORM, 4),
    # Z3 is not uniquely clean, so it never flattens: 3^20 elements above
    # the cap are no reason to refuse, while the 520 slot visits of the
    # unit part's inverse and the 760 of the Newton lift are (see CAPS)
    "clean-decompose-z3-order-20": (_trivial_z3_clean_decompose(20),
                                    DEFORM, 0),
    "clean-decompose-z3-order-20-over-work": (
        _trivial_z3_clean_decompose(20), DEFORM, 4),
    "clean-decompose-z3-order-20-over-newton": (
        _trivial_z3_clean_decompose(20), DEFORM, 4),
    # more nodes than the carrier rank limit: refused before the closure
    "poset-size-65": (_set("posets", "example-1", "size", value=65),
                      SHRIEK, 4),
    # the shape of a degree-10^12 table is never spelled out: the values
    # are refused at their first depth
    "cochain-degree-10**12": (_then(
        _set("cochains", value={"huge": {"bimodule": "twisted projection",
                                         "degree": 10 ** 12,
                                         "values": [[[0]]]}}),
        _set("jobs", EXTEND, "cochain", value="huge")), EXTEND, 3),
    # a well-formed table nested 501 deep is refused on its degree alone,
    # before the recursive build could run out of stack
    "cochain-degree-500": (_then(
        _set("cochains", value={"deep": {
            "bimodule": "Z2 regular", "degree": 500,
            "values": json.loads("[" * 501 + "0" + "]" * 501)}}),
        _set("jobs", EXTEND, value={"kind": "extend-verify", "algebra": "Z2",
                                    "bimodule": "Z2 regular",
                                    "cochain": "deep"})), EXTEND, 3),
}


# seconds; every other case must finish in under 2 s
TIME_LIMITS = {"clean-decompose-order-200": 0.5}
# --cap for the cases that are not run under 64: the Z3 decomposition at
# order 20 estimates 520 slot visits for its inverse and 760 for its Newton
# lift
CAPS = {"clean-decompose-z3-order-20": 760,
        "clean-decompose-z3-order-20-over-work": 519,
        "clean-decompose-z3-order-20-over-newton": 759}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_catalog_document_exit_code(tmp_path, capsys, case):
    mutate, job, expected = MALFORMED[case]
    doc = builtin_catalog_document()
    mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert main(["--cap", str(CAPS.get(case, 64)), "run", str(path),
                 job]) == expected
    # every refusal comes before the work it refuses
    assert time.monotonic() - start < TIME_LIMITS.get(case, 2)
    assert "Traceback" not in capsys.readouterr().err


def _cochain_of_degree(degree):
    return _then(
        _set("cochains", value={"c": {"bimodule": "twisted projection",
                                      "degree": degree, "values": [[[0]]]}}),
        _set("jobs", EXTEND, "cochain", value="c"))


# case -> (mutation of the catalog document, job to run, whole stderr of
# the refusal, exit 3): a rank far beyond any table is refused at the
# table's first short array, and a negative bimodule rank and a cochain
# degree no job reads before its table is read
DOCUMENT_RANGE_REFUSALS = {
    "algebra-rank-10**20": (
        _set("algebras", "Z2[X]/(X^2)", value={
            "modulus": 2, "rank": 10 ** 20, "structure": [], "unit": []}),
        CLASSIFY, "structure table has an array of length 0 at depth 0, "
                  "expected 100000000000000000000"),
    "bimodule-rank-10**20": (
        _set("bimodules", "twisted projection", value={
            "algebra": "Z2 x Z2", "rank": 10 ** 20, "left_action": [[], []],
            "right_action": []}),
        EXTEND, "left action table has an array of length 0 at depth 1, "
                "expected 100000000000000000000"),
    "bimodule-rank--1": (
        _set("bimodules", "twisted projection", "rank", value=-1), EXTEND,
        "bimodule rank must be >= 0, got -1"),
    "cochain-degree-4": (
        _cochain_of_degree(4), EXTEND,
        "cochain degree must be 0 to 3 (the coboundary's inputs), got 4"),
    "cochain-degree-5": (
        _cochain_of_degree(5), EXTEND,
        "cochain degree must be 0 to 3 (the coboundary's inputs), got 5"),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_RANGE_REFUSALS))
def test_document_range_refusals_are_pinned(tmp_path, capsys, case):
    mutate, job, message = DOCUMENT_RANGE_REFUSALS[case]
    doc = builtin_catalog_document()
    mutate(doc)
    assert run_document(tmp_path, doc, job) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"


N32 = "x^2=t over Z2 (N=32)"


def _order_32_document(order_2=None):
    """The catalog document with x^2=t over Z2 at order 32 written out as
    its dense list of 31 correction tables, 30 of them zero, and
    optionally another table at order 2."""
    cochains = json.loads(json.dumps(x_squared_t_deformation(2, 32).cochains))
    if order_2 is not None:
        cochains[1] = order_2
    doc = builtin_catalog_document()
    doc["deformations"][N32] = {"algebra": "Z2[X]/(X^2)", "order": 32,
                                "cochains": cochains}
    return doc


# a zero table at order 2 that is not the all-int zero table of rank 2 ->
# the whole stderr of its refusal (exit 3), as before the reader dropped
# zero tables
NEAR_ZERO_TABLES = {
    "false": ([[[0, 0], [0, 0]], [[0, 0], [False, 0]]],
              "deformation cochains entries must be integers"),
    "float": ([[[0, 0], [0.0, 0]], [[0, 0], [0, 0]]],
              "deformation cochains entries must be integers"),
    "short-row": ([[[0, 0], [0, 0]], [[0, 0]]],
                  "deformation cochains has an array of length 1 at depth 2, "
                  "expected 2"),
}


def test_a_document_deformation_maps_only_its_nonzero_corrections(
        tmp_path, capsys, monkeypatch):
    ws, built, init = Workspace(_order_32_document()), [], Multilinear.__init__

    def counting(self, table, n, shape, what="table", top=0):
        built.append(what)
        init(self, table, n, shape, what, top)
    monkeypatch.setattr(Multilinear, "__init__", counting)
    D = ws.deformation(N32)
    monkeypatch.undo()
    assert built.count("deformation cochains") == 1
    expected = x_squared_t_deformation(2, 32)
    assert ({m: a.dense for m, a in D.alphas.items()}, D.cochains) == (
        {m: a.dense for m, a in expected.alphas.items()}, expected.cochains)
    for case, (table, message) in NEAR_ZERO_TABLES.items():
        doc = _order_32_document(table)
        _deform_job(None, deformation=N32)(doc)
        assert run_document(tmp_path, doc, DEFORM) == 3, case
        assert capsys.readouterr().err == f"validation error: {message}\n"


def _run_bytes(content):
    def argv(tmp_path, catalog):
        path = tmp_path / "raw.json"
        path.write_bytes(content)
        return ["run", str(path), "j"]
    return argv


# case -> (argv from tmp_path and the catalog document's path, exit code)
UNREADABLE = {
    "document-not-utf8": (_run_bytes(b"\xff\xfe{}"), 2),
    "number-past-the-digit-limit": (_run_bytes(
        b'{"algebras": {"A": {"modulus": 1' + b"0" * 5000 + b"}}}"), 2),
    "document-nested-100000-deep": (_run_bytes(
        b"[" * 100000 + b"]" * 100000), 2),
    "element-nested-5000-deep": (lambda tmp_path, catalog: [
        "deform", "invert", "--doc", str(catalog),
        "--deformation", "x^2=t over Z2 (N=4)",
        "--element", "[" * 5000 + "]" * 5000], 2),
    "report-into-missing-directory": (lambda tmp_path, catalog: [
        "--report", str(tmp_path / "missing" / "r.json"),
        "run", str(catalog), CLASSIFY], 2),
    "catalog-into-missing-directory": (lambda tmp_path, catalog: [
        "catalog", "--out", str(tmp_path / "missing" / "ws.json")], 2),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_is_a_parse_error(tmp_path, catalog_doc, capsys,
                                           case):
    argv, expected = UNREADABLE[case]
    assert main(argv(tmp_path, catalog_doc)) == expected
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(-3, 12),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


def _mutate(data, doc):
    """Walk down from the root, one entry per level, then replace the leaf
    reached by an arbitrary JSON value, or delete an object key on the way."""
    delete = data.draw(st.booleans(), label="delete")
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)), label="key")
        child = node[key]
        leaf = not isinstance(child, (dict, list)) or not child
        if delete and isinstance(node, dict) and (
                leaf or data.draw(st.booleans(), label="stop")):
            del node[key]
            return
        if leaf:
            node[key] = data.draw(JSON_VALUES, label="value")
            return
        node = child


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_catalog_document_never_escapes(data):
    doc = builtin_catalog_document()
    _mutate(data, doc)
    # under --cap 64 both cohomology jobs are refused before assembly: the
    # circle's degree 1 needs 288 coboundary entries, the sphere's degree 2
    # needs 49248
    jobs = sorted(doc.get("jobs", {}))
    job = data.draw(st.sampled_from(jobs or ["none"]), label="job")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["--cap", "64", "run", str(path), job]) in (0, 2, 3, 4)


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


GAUGE = "Z2 x Z2 gauge/coboundary (N=4)"
# one bad coordinate each: a float, a bool, a string, a float that
# truncates to 0 mod 2, the two non-finite floats, and a wrong rank
BAD_COORDINATES = {"float": "[1.5, 0]", "bool": "[true, 0]",
                   "string": '["1", 0]', "huge-float": "[1e300, 0]",
                   "nan": "[NaN, 0]", "infinity": "[Infinity, 0]",
                   "wrong-rank": "[1, 0, 0]"}


@pytest.mark.parametrize("action,field,series", [
    ("invert", "--element", True),
    ("clean-decompose", "--element", True),
    ("lift", "--idempotent", False),
    ("probe", "--idempotent", False),
])
@pytest.mark.parametrize("bad", sorted(BAD_COORDINATES))
def test_non_integer_coordinates_are_parse_errors(
        catalog_doc, capsys, action, field, series, bad):
    # a coordinate that is not an integer is refused, never truncated: exit
    # 2 and a message, with no traceback
    text = BAD_COORDINATES[bad]
    if series:
        text = f"[{text}, [0, 0], [0, 0], [0, 0]]"
    code = main(["deform", action, "--doc", str(catalog_doc),
                 "--deformation", GAUGE, field, text])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: bad ")
    assert "Traceback" not in err


def test_wrong_coefficient_count_stays_order_mismatch(catalog_doc, capsys):
    code = main(["deform", "invert", "--doc", str(catalog_doc),
                 "--deformation", GAUGE,
                 "--element", "[[1, 0], [0, 0], [0, 0]]"])
    assert code == 3
    assert "3 coefficients" in capsys.readouterr().err


def test_lift_job_runs_newton_once(catalog_doc, tmp_path, monkeypatch):
    # the central recursion is compared against the job's own Newton lift
    import znalg.deformation as deformation
    calls = []
    newton = deformation.lift_idempotent_newton

    def counted(*args):
        calls.append(args)
        return newton(*args)
    monkeypatch.setattr(deformation, "lift_idempotent_newton", counted)
    report = tmp_path / "lift.json"
    assert main(["--report", str(report), "deform", "lift", "--doc",
                 str(catalog_doc), "--deformation", GAUGE, "--idempotent",
                 "[1, 0]", "--order", "16"]) == 0
    assert len(calls) == 1
    passed = {a["clause"]: a["passed"]
              for a in json.loads(report.read_text())["assertions"]}
    assert passed["central-recursion-matches-newton"] is True


@pytest.mark.parametrize("action, field, value, job", [
    ("invert", "--element", json.dumps([[1, 1]] * 10000), "inverse"),
    ("lift", "--idempotent", "[1, 0]", "obstruction probe"),
    ("probe", "--idempotent", "[1, 0]", "obstruction probe"),
], ids=["invert", "lift", "probe"])
def test_series_jobs_refuse_their_work_before_any_product(
        catalog_doc, capsys, monkeypatch, action, field, value, job):
    # x^2=t at order 10000: the estimated slot visits of the job's products
    # (3.7e6 for the inverse, 6e8 for the probe, which the lift of a
    # central idempotent runs) are refused at the default cap, naming the
    # order and the estimate, before a product is formed
    import znalg.deformation as deformation

    def ran(*args, **kwargs):
        raise AssertionError("series work ran before the refusal")
    for name in ("_kronecker_product", "def_mul", "lift_idempotent_newton"):
        monkeypatch.setattr(deformation, name, ran)
    assert main(["deform", action, "--doc", str(catalog_doc),
                 "--deformation", X2T, "--order", "10000",
                 field, value]) == 4
    err = capsys.readouterr().err
    assert f"{job} at order 10000:" in err
    assert " slot visits exceeds cap 1048576" in err


@pytest.mark.parametrize("action, field, value, refusal", [
    ("invert", "--element", "[[1, 1]]", "inverse at order 1000000: "
     "516000000"),
    ("lift", "--idempotent", "[1, 0]", "obstruction probe at order 1000000: "
     "6000005999988"),
    ("probe", "--idempotent", "[1, 0]", "obstruction probe at order "
     "1000000: 6000005999988"),
], ids=["invert", "lift", "probe"])
def test_series_jobs_refuse_before_padding_to_the_order(
        catalog_doc, capsys, action, field, value, refusal):
    # x^2=t is stored at order 4 and the job runs at order 10^6: moving it
    # there costs its two supported orders, not 10^6 zero tables, and the
    # estimated slot visits of the job's products are refused before any
    # series work, naming them.  The inverse refuses its work before it
    # reads the element, whose length is not the order here
    start = time.monotonic()
    assert main(["deform", action, "--doc", str(catalog_doc),
                 "--deformation", X2T, "--order", "1000000",
                 field, value]) == 4
    assert time.monotonic() - start < 1
    assert (f"{refusal} slot visits exceeds cap 1048576"
            in capsys.readouterr().err)


def test_lift_refuses_the_newton_estimate_and_admits_small_orders(
        tmp_path, capsys):
    # the T2(Z2) gauge deformation (seeded map 5) is written at order 4;
    # lifting the noncentral e_00 at order 20000 exits 4 within a second,
    # naming the Newton estimate, while x^2=t at order 64 and the gauge
    # deformation at order 32 lift and match the central recursion
    from znalg.algebra import triangular_algebra
    from znalg.deformation import gauge_deformation, seeded_gauge_map
    from znalg.documents import algebra_to_doc
    T2 = triangular_algebra(2, 2)
    D = gauge_deformation(T2, seeded_gauge_map(T2, 5), 4)
    doc = builtin_catalog_document()
    doc["algebras"][T2.name] = algebra_to_doc(T2)
    doc["deformations"]["T2 gauge"] = {
        "algebra": T2.name, "order": D.order,
        "cochains": [[[list(c) for c in row] for row in table]
                     for table in D.cochains]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert main(["deform", "lift", "--doc", str(path), "--deformation",
                 "T2 gauge", "--idempotent", "[1,0,0]", "--order",
                 "20000"]) == 4
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err == ("cap exceeded: Newton lift at order 20000: 43120000 slot "
                   "visits exceeds cap 1048576\n")
    for name, order in ((X2T, "64"), (GAUGE, "32")):
        assert main(["deform", "lift", "--doc", str(path), "--deformation",
                     name, "--idempotent", "[1,0]", "--order", order]) == 0


def test_shriek_job(catalog_doc, capsys):
    code = main(["shriek", "--doc", str(catalog_doc),
                 "--presheaf", "example-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nil-clean-transfer" in out.replace("_", "-")


def test_shriek_above_cap_still_certifies_the_quotient(catalog_doc, tmp_path):
    report_path = tmp_path / "shriek.json"
    code = main(["--cap", "64", "--report", str(report_path), "shriek",
                 "--doc", str(catalog_doc), "--presheaf", "example-1"])
    assert code == 0
    clauses = {a["clause"]: a["passed"]
               for a in json.loads(report_path.read_text())["assertions"]}
    assert clauses["quotient-is-stalk-product"] is True
    assert "ideal-inside-radical" not in clauses


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


def test_modulus_override_zero_rejected(catalog_doc):
    code = main(["--modulus-override", "0", "classify",
                 "--doc", str(catalog_doc), "--algebra", "Z2"])
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


# refusals with their exit codes and exact messages; DOC stands for the
# catalog document
REFUSALS = {
    "element-cap": (
        ["--cap", "2", "classify", "--doc", "DOC", "--algebra", "Z4"], 4,
        "cap exceeded: Z4: 4 elements exceeds cap 2\n"),
    # a cap of 0 is valid and refuses every scan; a negative one is refused
    # before any job runs
    "zero-cap": (
        ["--cap", "0", "classify", "--doc", "DOC", "--algebra", "Z2"], 4,
        "cap exceeded: Z2: 2 elements exceeds cap 0\n"),
    "negative-cap": (
        ["--cap", "-1", "classify", "--doc", "DOC", "--algebra", "Z2"], 2,
        "parse error: --cap must be >= 0, got -1\n"),
    "linalg-cap": (
        ["cohomology", "--doc", "DOC", "--presheaf", "example-2-sphere",
         "--degree", "3"], 4,
        "cap exceeded: degree 3 coboundary: 1108080 entries exceeds cap "
        "1048576\n"),
    "composite-modulus": (
        ["cohomology", "--doc", "DOC", "--algebra", "Z4"], 3,
        "validation error: cohomology dimensions need a prime modulus, "
        "got 4\n"),
    "cohomology-algebra-and-presheaf": (
        ["cohomology", "--doc", "DOC", "--algebra", "Z2", "--presheaf",
         "square-circle"], 2,
        "parse error: cohomology takes --algebra or --presheaf, not both\n"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_messages_are_pinned(catalog_doc, capsys, case):
    argv, code, err = REFUSALS[case]
    argv = [str(catalog_doc) if a == "DOC" else a for a in argv]
    assert main(argv) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err)


def test_search_records_the_refusal_of_an_algebra_above_the_cap(
        catalog_doc, tmp_path):
    report_path = tmp_path / "search.json"
    assert main(["--cap", "3", "--report", str(report_path),
                 "search-open-question", "--doc", str(catalog_doc),
                 "--algebras", "Z2", "Z4"]) == 0
    entries = json.loads(report_path.read_text())["results"]["entries"]
    assert entries == [
        {"algebra": "Z2", "exchange": True, "hits": [["(1)", "(0)"]]},
        {"algebra": "Z4", "skipped": "Z4: 4 elements exceeds cap 3"}]


def test_failed_assertion_exit_code(catalog_doc, monkeypatch):
    # job assertions are theorems on valid input, so force a failing clause
    # through a stub handler to pin the exit-code contract
    from znalg import cli

    def stub(ws, spec, cap, report):
        report["assertions"].append({"clause": "stub-clause", "passed": False})

    monkeypatch.setitem(cli.JOB_HANDLERS, "classify", stub)
    code = main(["classify", "--doc", str(catalog_doc), "--algebra", "Z2"])
    assert code == 1


def test_modulus_override_rejects_non_object_algebra(tmp_path, capsys):
    doc = builtin_catalog_document()
    doc["algebras"]["Z4"] = None
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--modulus-override", "3", "classify", "--doc", str(path),
                 "--algebra", "Z2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_rank_one_algebra_over_a_huge_prime_is_decided_quickly(tmp_path):
    # no certificate walks all p residues of the scalar ring
    p = 2 ** 31 - 1
    doc = {"algebras": {"Zp": {"modulus": p, "rank": 1,
                               "structure": [[[1]]], "unit": [1]}},
           "bimodules": {"R": {"algebra": "Zp", "regular": True}},
           "jobs": {"extend": {"kind": "extend", "algebra": "Zp",
                               "bimodule": "R"},
                    "cohomology": {"kind": "cohomology", "algebra": "Zp",
                                   "degree": 1}}}
    for job in ("extend", "cohomology"):
        start = time.perf_counter()
        assert run_document(tmp_path, doc, job) == 0
        assert time.perf_counter() - start < 2


X2T = "x^2=t over Z2 (N=4)"
# a subcommand line without its --doc, and the document job with the same
# fields
SUBCOMMAND_JOBS = {
    "classify": (["classify", "--algebra", "Z2[X]/(X^2)"],
                 {"kind": "classify", "algebra": "Z2[X]/(X^2)"}),
    "extend": (["extend", "--algebra", "Z2", "--bimodule", "Z2 regular"],
               {"kind": "extend", "algebra": "Z2", "bimodule": "Z2 regular"}),
    "extend-verify": (
        ["extend-verify", "--algebra", "Z2 x Z2",
         "--bimodule", "twisted projection"],
        {"kind": "extend-verify", "algebra": "Z2 x Z2",
         "bimodule": "twisted projection"}),
    "deform-validate": (["deform", "validate", "--deformation", X2T],
                        {"kind": "deform-validate", "deformation": X2T}),
    "deform-invert": (
        ["deform", "invert", "--deformation", X2T,
         "--element", "[[1,1],[0,0],[0,0],[0,0]]"],
        {"kind": "deform-invert", "deformation": X2T,
         "element": "[[1,1],[0,0],[0,0],[0,0]]"}),
    "deform-lift": (
        ["deform", "lift", "--deformation", X2T, "--idempotent", "[1,0]"],
        {"kind": "deform-lift", "deformation": X2T, "idempotent": "[1,0]"}),
    "deform-probe": (
        ["deform", "probe", "--deformation", X2T, "--idempotent", "[1,0]",
         "--depth", "2"],
        {"kind": "deform-probe", "deformation": X2T, "idempotent": "[1,0]",
         "depth": 2}),
    "deform-flatten": (
        ["deform", "flatten", "--deformation", X2T, "--order", "2"],
        {"kind": "deform-flatten", "deformation": X2T, "order": 2}),
    "deform-clean-decompose": (
        ["deform", "clean-decompose", "--deformation", X2T, "--order", "3",
         "--element", "[[0,1],[0,0],[0,0]]"],
        {"kind": "deform-clean-decompose", "deformation": X2T, "order": 3,
         "element": "[[0,1],[0,0],[0,0]]"}),
    "shriek": (["shriek", "--presheaf", "example-1"],
               {"kind": "shriek", "presheaf": "example-1"}),
    "cohomology-default-degree": (
        ["cohomology", "--presheaf", "square-circle"],
        {"kind": "cohomology", "presheaf": "square-circle"}),
    "cohomology-linalg-cap": (
        ["cohomology", "--algebra", "Z2[X]/(X^2)", "--degree", "1"],
        {"kind": "cohomology", "algebra": "Z2[X]/(X^2)", "degree": 1}),
    "cohomology-linalg-cap-refused": (
        ["cohomology", "--algebra", "Z2[X]/(X^2)", "--degree", "1"],
        {"kind": "cohomology", "algebra": "Z2[X]/(X^2)", "degree": 1}),
    "cohomology-algebra-and-presheaf": (
        ["cohomology", "--algebra", "Z2", "--presheaf", "square-circle"],
        {"kind": "cohomology", "algebra": "Z2", "presheaf": "square-circle"}),
    "search-open-question": (
        ["search-open-question", "--algebras", "Z2", "Z3", "Z4"],
        {"kind": "search-open-question", "algebras": ["Z2", "Z3", "Z4"]}),
}
# global options given before both forms; degree 1 of Z2[X]/(X^2) assembles
# 18 coboundary entries, so the cap bounds the subcommand and the job alike
SUBCOMMAND_OPTIONS = {
    "cohomology-linalg-cap": ["--cap", "18"],
    "cohomology-linalg-cap-refused": ["--cap", "17"],
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_JOBS))
def test_subcommand_runs_as_its_document_job(tmp_path, capsys, case):
    argv, fields = SUBCOMMAND_JOBS[case]
    doc = builtin_catalog_document()
    doc["jobs"]["same"] = fields
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    options = SUBCOMMAND_OPTIONS.get(case, [])
    outcomes = []
    for args in (argv + ["--doc", str(path)], ["run", str(path), "same"]):
        report_path = tmp_path / "report.json"
        report_path.unlink(missing_ok=True)
        code = main(["--report", str(report_path)] + options + args)
        report = (json.loads(report_path.read_text())
                  if report_path.exists() else None)
        for key in ("timing", "job"):
            (report or {}).pop(key, None)
        outcomes.append((code, report, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]


def test_cohomology_refuses_on_the_coboundary_entries_under_cap(
        catalog_doc, capsys):
    # Z2[X]/(X^2) in degree 1 assembles (1+2)*2*3 = 18 coboundary entries
    # and 6 in degree 0; --cap is the only threshold
    argv = ["cohomology", "--doc", str(catalog_doc),
            "--algebra", "Z2[X]/(X^2)", "--degree", "1"]
    assert main(["--cap", "17"] + argv) == 4
    assert capsys.readouterr().err == (
        "cap exceeded: degree 1 coboundary: 18 entries exceeds cap 17\n")
    assert main(["--cap", "18"] + argv) == 0
    with pytest.raises(SystemExit):
        main(argv + ["--linalg-cap", "1000"])


def test_main_reuses_one_parser(catalog_doc, monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert main(["classify", "--doc", str(catalog_doc),
                     "--algebra", "Z2"]) == 0
    assert built == []


def _count_decodes(monkeypatch):
    decoded = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        decoded.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return decoded


def test_loading_the_same_text_twice_decodes_once(tmp_path, monkeypatch):
    doc = classify_table([[[1]]])
    doc["path"] = str(tmp_path)  # text no earlier test has loaded
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    decoded = _count_decodes(monkeypatch)
    first, second = Workspace.load(path), Workspace.load(path)
    assert len(decoded) == 1
    assert first.doc is second.doc
    # the decoded dict is shared, the built objects are not
    assert first.algebra("A") is not second.algebra("A")


def test_rewritten_text_of_the_same_length_is_decoded_again(
        tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    texts = [json.dumps({"path": str(tmp_path), "x": x}) for x in (1, 2)]
    assert len(texts[0]) == len(texts[1])
    decoded = _count_decodes(monkeypatch)
    for x, text in enumerate(texts, 1):
        path.write_text(text)
        assert Workspace.load(path).doc["x"] == x
    assert len(decoded) == 2


def test_text_that_is_not_json_exits_2_on_every_call(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    errors = []
    for _ in range(2):
        assert main(["run", str(path), "anything"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("parse error: document is not valid JSON")


@pytest.fixture(scope="module")
def catalog_runs(tmp_path_factory):
    """Every catalog job run once from one document: the document's path
    and each report dict as the CLI handed it to dump_report."""
    import znalg.cli as cli
    tmp = tmp_path_factory.mktemp("catalog")
    path = tmp / "catalog.json"
    doc = builtin_catalog_document()
    path.write_text(json.dumps(doc))
    reports = {}

    def captured(report):
        reports[report["job"]] = report
        return dump_report(report)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "dump_report", captured)
        for job in sorted(doc["jobs"]):
            assert main(["--report", str(tmp / "r.json"),
                         "run", str(path), job]) == 0
    assert sorted(reports) == sorted(doc["jobs"])
    return path, reports


def test_catalog_jobs_leave_the_shared_document_unchanged(catalog_runs):
    path, _ = catalog_runs
    assert Workspace.load(path).doc == json.loads(path.read_text())


def test_catalog_reports_match_json_dumps(catalog_runs):
    _, reports = catalog_runs
    for report in reports.values():
        assert dump_report(report) == json.dumps(
            report, indent=2, sort_keys=True)


REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.lists(st.integers(), max_size=4),
    st.lists(st.text(max_size=8), max_size=4),
    st.tuples(st.integers(), st.integers()))


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        REPORT_LEAVES)


# every leaf kind, under up to three levels of lists, tuples and objects
# below the report's own object; three fixed levels draw about four times
# faster than st.recursive, and about a quarter of the 300 examples nest
# three or more arrays and objects below the report's own
REPORT_VALUES = _nested(_nested(_nested(REPORT_LEAVES)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(report=st.dictionaries(st.text(max_size=6), REPORT_VALUES,
                              max_size=4))
def test_dump_report_matches_json_dumps(report):
    assert dump_report(report) == json.dumps(report, indent=2,
                                             sort_keys=True)


@pytest.mark.parametrize("value", [{"a": {1}}, {"a": [1, b"x"]},
                                   {(1,): 2}])
def test_dump_report_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dump_report(value)


CERTIFICATES = ("validate_poset", "validate_presheaf", "validate_deformation",
                "decomposition_report")


def _wrap_everywhere(monkeypatch, name, wrapper):
    """Rebind every module-level binding of the package function name to
    wrapper(original)."""
    import importlib
    import inspect
    modules = [importlib.import_module(f"znalg.{m}") for m in (
        "algebra", "classify", "cli", "deformation", "documents",
        "extension", "hochschild", "poset")]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    new = wrapper(original)
    for mod in modules:
        if inspect.isfunction(getattr(mod, name, None)) and \
                getattr(mod, name) is original:
            monkeypatch.setattr(mod, name, new)


def test_each_object_is_certified_once_per_job(tmp_path, monkeypatch):
    # Over every catalog job and each deform case on x^2=t, each poset,
    # presheaf and deformation is certified once and each algebra
    # classified once; validate_deformation sums one _compose walk per
    # order it certifies, and a lift runs Newton and the probe once
    from test_golden import CASES, run_case
    (tmp_path / "catalog.json").write_text(
        json.dumps(builtin_catalog_document()))
    calls = {name: [] for name in (*CERTIFICATES, "_compose",
                                   "lift_idempotent_newton",
                                   "obstruction_probe")}
    walks = []  # per validate_deformation call: [D, _compose calls]
    active = []  # the validate_deformation call that is running

    def recorder(name):
        def wrapper(fn):
            def recorded(*args, **kwargs):
                calls[name].append(args[0])
                if name == "_compose" and active:
                    active[-1][1] += 1
                if name != "validate_deformation":
                    return fn(*args, **kwargs)
                walks.append([args[0], 0])
                active.append(walks[-1])
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return recorded
        return wrapper
    for name in calls:
        _wrap_everywhere(monkeypatch, name, recorder(name))

    ran = []
    for case, argv in CASES.items():
        if not (case.startswith("job-") or case.endswith("-x2t")):
            continue
        for recorded in calls.values():
            recorded.clear()
        walks.clear()
        run_case(argv, tmp_path)
        ran.append(case)
        per_object = {name: [calls[name].count(obj) for obj in
                             {id(o): o for o in calls[name]}.values()]
                      for name in CERTIFICATES}
        assert all(c == [1] * len(c) for c in per_object.values()), \
            (case, per_object)
        for D, composed in walks:
            support = (0, *D.alphas)
            orders = {a + b for a in support for b in support
                      if a + b < D.order}
            assert composed == len(orders), (case, D.name, composed)
        if argv[0] == "run" and argv[2] in ("shriek-example-1",
                                           "cohomology-circle",
                                           "cohomology-sphere"):
            assert len(calls["validate_poset"]) == 1, case
            assert len(calls["validate_presheaf"]) == 1, case
        if case == "job-shriek-example-1":
            # the stalks Z2[X]/(X^2) and Z2, then the carrier
            assert len(calls["decomposition_report"]) == 3
        if case.startswith("deform-lift-"):
            assert len(calls["lift_idempotent_newton"]) == 1, case
            assert len(calls["obstruction_probe"]) == 1, case
    assert len(ran) == 6 + 11 and "deform-lift-order-9-x2t" in ran


def test_cli_imports_no_private_name():
    # the CLI handlers read their job and call public library functions
    import ast
    import znalg.cli
    tree = ast.parse(Path(znalg.cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert names and not [n for n in names
                          if n.rsplit(".", 1)[-1].startswith("_")]


def test_cli_imports_only_the_errors_main_catches():
    # the library makes every refusal: cli.py imports an error class only
    # for an except clause of main, and raises only ParseError itself
    import ast
    import znalg.cli
    tree = ast.parse(Path(znalg.cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "errors"
                for alias in node.names}
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {handler.type.id for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler)}
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert "ParseError" in imported and imported <= caught, imported - caught
    assert raised == {"ParseError"}, raised
