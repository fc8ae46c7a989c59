"""Workspace documents: one JSON file holding named algebras, bimodules,
cochains, deformations, posets, presheaves, and jobs referencing them.

This is the one module that reads or writes the document format.  A
Workspace hands out certified objects by name: it checks what belongs to
the format, a spec's fields, a cochain's degree, and a deformation's order
and its cochains, an array of order - 1 tables, of which it drops the
all-int zero tables of the algebra's rank; it hands each number and table
straight to its object's constructor, which refuses a bad range and,
through algebra.Multilinear, a bad shape; and it has the library certify
the object (validate_algebra, validate_bimodule, validate_deformation).
algebra_to_doc and builtin_catalog_document write the same format back.
Workspace.load decodes each document text once per process: it reads the
file on every call and reuses the decoded dict while the text equals the
last text it decoded.  Only the decoded dict is shared, never a built
object, so every job still builds and validates what it uses.

Reports are plain dicts with deterministic content; timing lives under a
separate key so golden-file comparisons can drop it.  dump_report writes
the bytes of json.dumps(report, indent=2, sort_keys=True) through the
private writer _emit, which joins an array of integers in one call and
quotes strings with the C string encoder; json.dumps with an indent would
run the pure-Python encoder.  The helpers stay private so that a tracer
timing the public functions sees one span per report.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .algebra import FiniteAlgebra, _check_int, validate_algebra
from .catalog import catalog_algebras, twisted_projection_module, z2xz2
from .deformation import (
    TruncatedDeformation,
    catalog_deformations,
    validate_deformation,
)
from .errors import BadShape, ParseError
from .hochschild import (MAX_COCHAIN_DEGREE, Bimodule, Cochain,
                         regular_bimodule, validate_bimodule)
from .poset import (
    Poset,
    Presheaf,
    example_one_presheaf,
    sphere_presheaf,
    square_presheaf,
    validate_presheaf,
)


class Workspace:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ParseError("workspace document must be a JSON object")
        self.doc = doc
        self._built = {}

    # The last document text this process decoded, and its decoded dict.
    _decoded = (None, None)

    @classmethod
    def load(cls, path):
        """A workspace over the document at path.  The text is read on every
        call but decoded only when it differs from the text decoded last;
        jobs only read the decoded dict, so workspaces share it, and each
        still builds and validates its own objects."""
        try:
            with open(path) as fh:
                text = fh.read()
            if text != Workspace._decoded[0]:
                Workspace._decoded = (text, json.loads(text))
        except OSError as exc:
            raise ParseError(f"cannot read document: {exc}")
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, integers past the digit limit
            raise ParseError(f"document is not valid JSON: {exc}")
        return cls(Workspace._decoded[1])

    def _section(self, key):
        sec = self.doc.get(key, {})
        if not isinstance(sec, dict):
            raise ParseError(f"section {key!r} must be an object")
        return sec

    def _object(self, section, what, name, build):
        """The named object of a section, built from its spec on first use;
        the reference must be a string and the spec a JSON object."""
        if not isinstance(name, str):
            raise ParseError(f"{what} reference {name!r} is not a string")
        key = (section, name)
        if key not in self._built:
            sec = self._section(section)
            if name not in sec:
                raise ParseError(f"{what} {name!r} is not defined")
            spec = sec[name]
            if not isinstance(spec, dict):
                raise ParseError(f"{what} {name!r} must be an object")
            self._built[key] = build(JobSpec(spec, f"{what} {name!r}"))
        return self._built[key]

    def with_modulus(self, modulus):
        """A workspace over the same document with every algebra read over
        modulus instead of its own, each built and certified now, in
        document order, so an algebra the new modulus breaks is refused
        before any job runs."""
        algebras = {name: dict(spec, modulus=modulus)
                    if isinstance(spec, dict) else spec
                    for name, spec in self._section("algebras").items()}
        ws = Workspace(dict(self.doc, algebras=algebras))
        for name in algebras:
            ws.algebra(name)
        return ws

    def algebra(self, name):
        def build(spec):
            return validate_algebra(FiniteAlgebra(
                spec["modulus"], spec["rank"], spec["structure"],
                spec["unit"], name or spec.get("name")))
        return self._object("algebras", "algebra", name, build)

    def bimodule(self, name):
        def build(spec):
            A = self.algebra(spec["algebra"])
            if spec.get("regular"):
                return regular_bimodule(A)
            return validate_bimodule(Bimodule(
                A, spec["rank"], spec["left_action"], spec["right_action"],
                name=name or spec.get("name", "")))
        return self._object("bimodules", "bimodule", name, build)

    def cochain(self, name):
        def build(spec):
            M = self.bimodule(spec["bimodule"])
            degree = integer_field(spec, "degree")
            if not 0 <= degree <= MAX_COCHAIN_DEGREE:
                raise BadShape(
                    f"cochain degree must be 0 to {MAX_COCHAIN_DEGREE} "
                    f"(the coboundary's inputs), got {degree}")
            return Cochain(degree, M, spec["values"])
        return self._object("cochains", "cochain", name, build)

    def deformation(self, name):
        def build(spec):
            A = self.algebra(spec["algebra"])
            order = _check_int(spec["order"], "truncation order")
            cochains = spec["cochains"]
            if order < 1:
                raise BadShape("truncation order must be at least 1")
            if not isinstance(cochains, list):
                raise BadShape("deformation cochains is not an array at "
                               "depth 0")
            if len(cochains) != order - 1:
                raise BadShape(
                    f"deformation cochains has an array of length "
                    f"{len(cochains)} at depth 0, expected {order - 1}")
            r = A.rank
            zero = [[[0] * r] * r] * r
            return validate_deformation(TruncatedDeformation(
                A, order, {m: table for m, table in enumerate(cochains, 1)
                           if not _is_int_zero(table, zero)},
                name=name or spec.get("name", "")))
        return self._object("deformations", "deformation", name, build)

    def poset(self, name):
        def build(spec):
            covers = spec["covers"]
            if not isinstance(covers, list) or not all(
                    isinstance(c, list) for c in covers):
                raise ParseError(f"poset {name!r} covers must be an array "
                                 "of arrays")
            return Poset.from_covers(integer_field(spec, "size"), covers)
        return self._object("posets", "poset", name, build)

    def presheaf(self, name):
        def build(spec):
            P = self.poset(spec["poset"])
            stalks, maps = spec["stalks"], spec.get("maps", {})
            if not isinstance(stalks, list) or not isinstance(maps, dict):
                raise ParseError(f"presheaf {name!r} needs an array of "
                                 "stalks and an object of maps")
            parsed = {}
            for key, table in maps.items():
                try:
                    h, i = key.split(",")
                    parsed[(int(h), int(i))] = table
                except ValueError:
                    raise ParseError(f"presheaf {name!r} map key {key!r} is "
                                     "not of the form 'h,i'")
            return validate_presheaf(Presheaf(
                P, [self.algebra(s) for s in stalks], parsed, name=name))
        return self._object("presheaves", "presheaf", name, build)

    def job(self, name):
        return self._object("jobs", "job", name, lambda spec: spec)


class JobSpec(dict):
    """The fields of a job or a document object; reading a field it lacks is
    a parse error."""

    def __init__(self, fields, what="job"):
        super().__init__(fields)
        self.what = what

    def __missing__(self, key):
        raise ParseError(f"{self.what} needs the field {key!r}")


def integer_field(spec, key, default=None):
    """An integer field of a job or object: a value that is not a number is a
    parse error, a number that is not an integer a validation error."""
    value = spec[key] if default is None else spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{spec.what} field {key!r} must be a number, "
                         f"got {value!r}")
    return _check_int(value, f"{spec.what} field {key!r}")


def _is_int_zero(table, zero):
    """Whether a correction table is zero, the all-int zero table of its
    rank; one equal to it that holds a false or a 0.0 is not."""
    return table == zero and all(
        type(v) is int for row in table for cell in row for v in cell)


def builtin_catalog_document() -> dict:
    """Every built-in example as a plain document, ready to re-ingest."""
    doc = {"algebras": {}, "bimodules": {}, "deformations": {},
           "posets": {}, "presheaves": {}, "jobs": {}}
    algebras = catalog_algebras()
    for A in algebras:
        doc["algebras"][A.name] = algebra_to_doc(A)

    P = z2xz2()
    doc["algebras"].setdefault(P.name, algebra_to_doc(P))
    T = twisted_projection_module(P)
    doc["bimodules"]["twisted projection"] = {
        "algebra": P.name,
        "rank": T.rank,
        "left_action": [[list(c) for c in row] for row in T.left],
        "right_action": [[list(c) for c in row] for row in T.right],
    }
    for A in algebras:
        doc["bimodules"][f"{A.name} regular"] = {
            "algebra": A.name, "regular": True, "rank": A.rank}

    for D in catalog_deformations(4):
        doc["algebras"].setdefault(D.base.name, algebra_to_doc(D.base))
        doc["deformations"][D.name] = {
            "algebra": D.base.name,
            "order": D.order,
            "cochains": [[[list(c) for c in row] for row in table]
                         for table in D.cochains],
        }

    for label, F in (("example-1", example_one_presheaf()),
                     ("square-circle", square_presheaf(2)),
                     ("example-2-sphere", sphere_presheaf(2))):
        pdoc = {"size": F.poset.size,
                "covers": [[i, j] for i in range(F.poset.size)
                           for j in range(F.poset.size)
                           if i != j and F.poset.leq[i][j]]}
        doc["posets"][label] = pdoc
        stalk_names = []
        for S in F.stalks:
            doc["algebras"].setdefault(S.name, algebra_to_doc(S))
            stalk_names.append(S.name)
        doc["presheaves"][label] = {
            "poset": label,
            "stalks": stalk_names,
            "maps": {f"{h},{i}": [list(v) for v in table]
                     for (h, i), table in F.maps.items()},
        }

    doc["jobs"] = {
        "classify-dual-numbers": {"kind": "classify",
                                  "algebra": "Z2[X]/(X^2)"},
        "extend-verify-twisted": {"kind": "extend-verify",
                                  "algebra": "Z2 x Z2",
                                  "bimodule": "twisted projection"},
        "shriek-example-1": {"kind": "shriek", "presheaf": "example-1"},
        "cohomology-circle": {"kind": "cohomology",
                              "presheaf": "square-circle", "degree": 1},
        "cohomology-sphere": {"kind": "cohomology",
                              "presheaf": "example-2-sphere", "degree": 2},
        "search-open-question": {"kind": "search-open-question",
                                 "algebras": ["Z2", "Z3", "Z4"]},
    }
    return doc


def algebra_to_doc(alg) -> dict:
    """The document form of an algebra, which Workspace.algebra reads back."""
    return {
        "modulus": alg.n,
        "rank": alg.rank,
        "structure": [[list(cell) for cell in row] for row in alg.table],
        "unit": list(alg.unit),
        "name": alg.name,
    }


def dump_report(report: dict) -> str:
    """Deterministic JSON text for a report dict with string keys: the
    bytes of json.dumps(report, indent=2, sort_keys=True), which with an
    indent runs the pure-Python encoder, written by _emit instead."""
    parts = []
    _emit(report, parts, "\n")
    return "".join(parts)


def _emit(value, parts, newline):
    """Append the indent-2, sorted-key JSON text of value to parts; newline
    is a line break plus the indent of the line value starts on.  An array
    of plain integers or of plain strings is one join, strings go through
    the C string encoder, and a key that is not a string or a value JSON
    has no form for raises TypeError."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))  # a bool is not of type int
        show = (int.__repr__ if kinds == {int}
                else _quote if kinds == {str} else None)
        if show:
            parts.append("[" + inner + ("," + inner).join(
                map(show, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _emit(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + _quote(key) + ": ")
            _emit(value[key], parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def key_str(element) -> str:
    """Stable text form for element tuples used as report keys."""
    return "(" + ",".join(str(v) for v in element) + ")"
