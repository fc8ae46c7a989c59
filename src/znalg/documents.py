"""Workspace documents: one JSON file holding named algebras, bimodules,
cochains, deformations, posets, presheaves, and jobs referencing them.

Loading resolves every cross-reference and validates every object; the
returned Workspace hands out certified values by name.  Reports are plain
dicts with deterministic content; timing lives under a separate key so
golden-file comparisons can drop it.
"""

from __future__ import annotations

import json

from .algebra import algebra_to_doc, validate_algebra
from .catalog import catalog_algebras, twisted_projection_module, z2xz2
from .deformation import validate_deformation
from .errors import ParseError
from .hochschild import cochain_from_table, regular_bimodule, validate_bimodule
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
        self._algebras = {}
        self._bimodules = {}
        self._cochains = {}
        self._deformations = {}
        self._posets = {}
        self._presheaves = {}

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read document: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"document is not valid JSON: {exc}")
        return cls(doc)

    def _section(self, key):
        sec = self.doc.get(key, {})
        if not isinstance(sec, dict):
            raise ParseError(f"section {key!r} must be an object")
        return sec

    def algebra(self, name):
        if name not in self._algebras:
            sec = self._section("algebras")
            if name not in sec:
                raise ParseError(f"algebra {name!r} is not defined")
            self._algebras[name] = validate_algebra(sec[name], name=name)
        return self._algebras[name]

    def bimodule(self, name):
        if name not in self._bimodules:
            sec = self._section("bimodules")
            if name not in sec:
                raise ParseError(f"bimodule {name!r} is not defined")
            spec = sec[name]
            if "algebra" not in spec:
                raise ParseError(f"bimodule {name!r} must reference an algebra")
            A = self.algebra(spec["algebra"])
            if spec.get("regular"):
                self._bimodules[name] = regular_bimodule(A)
            else:
                self._bimodules[name] = validate_bimodule(spec, algebra=A,
                                                          name=name)
        return self._bimodules[name]

    def cochain(self, name):
        if name not in self._cochains:
            sec = self._section("cochains")
            if name not in sec:
                raise ParseError(f"cochain {name!r} is not defined")
            spec = sec[name]
            try:
                M = self.bimodule(spec["bimodule"])
                degree = int(spec["degree"])
                values = spec["values"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"cochain {name!r} malformed: {exc}")
            self._cochains[name] = cochain_from_table(M, degree, values)
        return self._cochains[name]

    def deformation(self, name):
        if name not in self._deformations:
            sec = self._section("deformations")
            if name not in sec:
                raise ParseError(f"deformation {name!r} is not defined")
            spec = sec[name]
            if "algebra" not in spec:
                raise ParseError(f"deformation {name!r} must reference an algebra")
            A = self.algebra(spec["algebra"])
            self._deformations[name] = validate_deformation(
                spec, base=A, name=name)
        return self._deformations[name]

    def poset(self, name):
        if name not in self._posets:
            sec = self._section("posets")
            if name not in sec:
                raise ParseError(f"poset {name!r} is not defined")
            spec = sec[name]
            try:
                size = int(spec["size"])
                covers = [tuple(c) for c in spec["covers"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"poset {name!r} malformed: {exc}")
            self._posets[name] = Poset.from_covers(size, covers)
        return self._posets[name]

    def presheaf(self, name):
        if name not in self._presheaves:
            sec = self._section("presheaves")
            if name not in sec:
                raise ParseError(f"presheaf {name!r} is not defined")
            spec = sec[name]
            try:
                P = self.poset(spec["poset"])
                stalks = [self.algebra(s) for s in spec["stalks"]]
                maps = {}
                for key, table in spec.get("maps", {}).items():
                    h, i = key.split(",")
                    maps[(int(h), int(i))] = table
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"presheaf {name!r} malformed: {exc}")
            self._presheaves[name] = validate_presheaf(
                Presheaf(P, stalks, maps, name=name))
        return self._presheaves[name]

    def job(self, name):
        sec = self._section("jobs")
        if name not in sec:
            raise ParseError(f"job {name!r} is not defined")
        spec = sec[name]
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ParseError(f"job {name!r} is not an object with a kind")
        return spec


def builtin_catalog_document() -> dict:
    """Every built-in example as a plain document, ready to re-ingest."""
    doc = {"algebras": {}, "bimodules": {}, "deformations": {},
           "posets": {}, "presheaves": {}, "jobs": {}}
    for A in catalog_algebras():
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
    for A in catalog_algebras():
        doc["bimodules"][f"{A.name} regular"] = {
            "algebra": A.name, "regular": True, "rank": A.rank}

    from .deformation import catalog_deformations
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


def dump_report(report: dict, strip_timing=False) -> str:
    """Deterministic JSON text for a report dict."""
    if strip_timing:
        report = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(report, indent=2, sort_keys=True, default=_jsonable)


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "__dict__"):
        return vars(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def key_str(element) -> str:
    """Stable text form for element tuples used as report keys."""
    return "(" + ",".join(str(v) for v in element) + ")"
