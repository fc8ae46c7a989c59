"""Seeded workloads: a workspace document, its job list, and the reference
verdict for every job.

Each workload is built from its seed alone and serialised with sorted keys,
so the same seed gives a byte-identical document.  The program sees only
that document; the expectations stay on the benchmark's side and come from
``refalg`` and ``reference.json``, never from znalg.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import refalg

REFERENCE = json.loads(
    (Path(__file__).with_name("reference.json")).read_text())

BUILDERS = {
    "Z16[X]/(X^2)": lambda: refalg.poly_x2(16),
    "(Z4[X]/(X^2))^2": lambda: refalg.direct_product(
        [refalg.poly_x2(4), refalg.poly_x2(4)]),
    "Z2^8": lambda: refalg.direct_product([refalg.zn(2)] * 8),
    "M2(Z3)": lambda: refalg.full_matrix(3, 2),
    "T2(Z4)": lambda: refalg.upper_triangular(4, 2),
    "T3(Z2)": lambda: refalg.upper_triangular(2, 3),
    "Z2": lambda: refalg.zn(2),
    "Z3": lambda: refalg.zn(3),
    "Z4": lambda: refalg.zn(4),
    "Z2[X]/(X^2)": lambda: refalg.poly_x2(2),
    "Z2 x Z2": lambda: refalg.direct_product([refalg.zn(2)] * 2),
    "T2(Z2)": lambda: refalg.upper_triangular(2, 2),
}

# Classify inputs: the table density each seeded basis is held at (the
# median over 200 full-shear changes of basis) and the number of bases.  The
# three small algebras take well under 0.3 s a job, so three bases each make
# the middle of the job-time distribution a cluster of nine jobs rather than
# a single job, and job_p50_s steady.
CLASSIFY_ALGEBRAS = {"Z16[X]/(X^2)": (4, 1), "(Z4[X]/(X^2))^2": (21, 1),
                     "Z2^8": (72, 1), "M2(Z3)": (26, 3), "T2(Z4)": (11, 3),
                     "T3(Z2)": (46, 3)}
ROOT_NNZ = 4
EXTENSION_ALGEBRAS = ("Z2", "Z3", "Z4", "Z2[X]/(X^2)", "Z2 x Z2", "T2(Z2)")

V_COVERS = [(0, 1), (0, 2)]
CIRCLE_COVERS = [(0, 2), (0, 3), (1, 2), (1, 3)]
SPHERE_COVERS = [(0, 2), (0, 3), (1, 2), (1, 3),
                 (2, 4), (2, 5), (3, 4), (3, 5)]

DEFORM_ORDER = 32
VALIDATE_ORDER = 4
INVERTS_PER_DEFORMATION = 8

WHY = {
    "classify": (
        "Enumeration-bound: every classify job scans all N elements with "
        "FiniteAlgebra.mul and no linear algebra. A seeded full-shear change "
        "of basis raises table density without moving any flag or count."),
    "cohomology": (
        "Bypasses the element scans: time goes to coboundary-matrix assembly "
        "and to both elimination paths (bitsets for p = 2, dense lists for "
        "odd p). Node relabelling permutes the basis without changing any "
        "dimension."),
    "deform-extend": (
        "Exercises the deformation product at order 32 and cochain "
        "evaluation on the rank-18 sphere carrier, at rank 2 rather than "
        "8-18 in the deformation jobs, plus the reject path: a perturbed "
        "cocycle that must be refused with exit 3."),
}


@dataclass
class Job:
    name: str
    spec: dict
    expect: dict
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    doc: dict
    jobs: list
    why: dict
    deformations: dict = field(default_factory=dict)

    def document_text(self):
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))

    def table_nnz(self):
        return sum(refalg.table_nnz(a) for a in self.doc["algebras"].values())


def build(name, seed):
    builders = {"classify": classify, "cohomology": cohomology,
                "deform-extend": deform_extend}
    if name not in builders:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(builders)}")
    rng = random.Random(f"{name}/{seed}")
    wl = Workload(name, seed, _empty_doc(), [], {"workload": WHY[name]})
    builders[name](wl, rng)
    wl.doc["jobs"] = {job.name: job.spec for job in wl.jobs}
    return wl


def _empty_doc():
    return {"algebras": {}, "bimodules": {}, "cochains": {},
            "deformations": {}, "posets": {}, "presheaves": {}, "jobs": {}}


def _alg_props(alg):
    return {"N": alg["modulus"] ** alg["rank"], "rank": alg["rank"],
            "nnz": refalg.table_nnz(alg)}


def flags_of(key):
    ref = REFERENCE["algebras"][key]
    return refalg.expected_flags(ref["radical_quotient"],
                                 ref["idempotents_central"])


# classify

def classify(wl, rng):
    for key, (nnz, bases) in CLASSIFY_ALGEBRAS.items():
        for k in range(bases):
            name = key if bases == 1 else f"{key} basis {k}"
            alg = refalg.change_basis_at_density(BUILDERS[key](), rng, nnz,
                                                 name=name)
            wl.doc["algebras"][name] = alg
            wl.jobs.append(Job(
                f"classify {name}", {"kind": "classify", "algebra": name},
                {"exit": 0, "flags": flags_of(key),
                 "counts": REFERENCE["algebras"][key]["counts"]},
                _alg_props(alg)))
    wl.why["algebras"] = (
        "Z16[X]/(X^2), (Z4[X]/(X^2))^2 and Z2^8 have 256 elements with "
        "2, 4 and 256 idempotents; M2(Z3), T2(Z4) and T3(Z2) add a "
        "noncommutative simple ring and two triangular rings with "
        "noncentral idempotents, so every flag is false somewhere.")

    ref = REFERENCE["presheaves"]["example-1"]
    root = refalg.change_basis_at_density(refalg.poly_x2(2), rng, ROOT_NNZ,
                                          name="Z2[X]/(X^2)")
    wl.doc["algebras"]["example-1 root"] = root
    wl.doc["algebras"]["Z2"] = refalg.zn(2)
    perm = [0, 1, 2]
    rng.shuffle(perm)
    stalks = [None] * 3
    stalks[perm[0]] = "example-1 root"
    stalks[perm[1]] = stalks[perm[2]] = "Z2"
    covers = refalg.relabel(V_COVERS, perm)
    wl.doc["posets"]["example-1"] = {"size": 3,
                                     "covers": [list(c) for c in covers]}
    wl.doc["presheaves"]["example-1"] = {
        "poset": "example-1", "stalks": stalks,
        "maps": {f"{h},{i}": [list(root["unit"])] for h, i in covers}}
    carrier_flags = refalg.expected_flags(ref["carrier_radical_quotient"],
                                          ref["carrier_idempotents_central"])
    carrier_rank = 2 + 1 + 1 + 2 + 2      # three diagonal and two root blocks
    wl.jobs.append(Job(
        "shriek example-1", {"kind": "shriek", "presheaf": "example-1"},
        {"exit": 0, "carrier_flags": carrier_flags,
         "stalk_flags": sorted(json.dumps(flags_of(s), sort_keys=True)
                               for s in ref["stalks"])},
        {"N": 2 ** carrier_rank, "rank": carrier_rank,
         "nnz": refalg.table_nnz(root)}))
    wl.why["example-1"] = (
        "The dual numbers under two points with its nodes relabelled and "
        "the root stalk in a sheared basis: the only classify input that "
        "goes through poset assembly, the ideal facts and the radical.")


# cohomology

def _closure_pairs(size, covers):
    leq = refalg.closure(size, covers)
    return [(h, i) for h in range(size) for i in range(size)
            if h != i and leq[h][i]]


def _cohomology_expect(rank, betti, degree):
    z, b, h = refalg.hochschild_dims(rank, betti, degree)
    return {"exit": 0, "degree": degree, "dim_cocycles": z,
            "dim_coboundaries": b, "dim_h": h}


def _nerve(label, size, covers, p):
    betti = refalg.nerve_betti(size, covers, p, 2)
    if betti != REFERENCE["nerves"][label]["betti"]:
        raise AssertionError(
            f"nerve of the {label} over F{p} gives {betti}, not "
            f"{REFERENCE['nerves'][label]['betti']}")
    return betti


def _delta_props(rank, p, degree):
    return {"N": p ** rank, "rank": rank,
            "delta_shape": [rank ** (degree + 1), rank ** (degree + 2)]}


def cohomology(wl, rng):
    perm = list(range(6))
    rng.shuffle(perm)
    sphere = refalg.relabel(SPHERE_COVERS, perm)
    wl.doc["posets"]["sphere"] = {"size": 6,
                                  "covers": [list(c) for c in sphere]}
    pairs = _closure_pairs(6, sphere)
    sphere_rank = 6 + len(pairs)
    for p, degrees in ((2, (1, 2)), (3, (1,))):
        wl.doc["algebras"][f"Z{p}"] = refalg.zn(p)
        label = f"sphere Z{p}"
        wl.doc["presheaves"][label] = {
            "poset": "sphere", "stalks": [f"Z{p}"] * 6,
            "maps": {f"{h},{i}": [[1]] for h, i in pairs}}
        betti = _nerve("sphere", 6, sphere, p)
        for d in degrees:
            wl.jobs.append(Job(
                f"cohomology {label} degree {d}",
                {"kind": "cohomology", "presheaf": label, "degree": d},
                _cohomology_expect(sphere_rank, betti, d),
                _delta_props(sphere_rank, p, d)))

    perm = list(range(4))
    rng.shuffle(perm)
    circle = refalg.relabel(CIRCLE_COVERS, perm)
    for p in (2, 3, 5):
        label = f"circle Z{p}"
        alg = refalg.incidence_algebra(p, 4, circle, label)
        wl.doc["algebras"][label] = alg
        betti = _nerve("circle", 4, circle, p)
        for d in (1, 2):
            wl.jobs.append(Job(
                f"cohomology {label} degree {d}",
                {"kind": "cohomology", "algebra": label, "degree": d},
                _cohomology_expect(alg["rank"], betti, d),
                _delta_props(alg["rank"], p, d)))
    wl.why["inputs"] = (
        "The sphere goes through the presheaf path (poset assembly), the "
        "circle through incidence tables written here. Sphere degree 2 over "
        "Z3 is left out: it is refused today by the dense-elimination "
        "budget.")


# deformations and extensions

def _seeded_series(base, rng, order):
    constant = rng.choice(refalg.units(base))
    n, r = base["modulus"], base["rank"]
    return [list(constant)] + [[rng.randrange(n) for _ in range(r)]
                               for _ in range(order - 1)]


def deform_extend(wl, rng):
    doc = wl.doc
    x2_base, x2_tables = refalg.x2_equals_t(2, DEFORM_ORDER)
    triv_base = refalg.poly_x2(3)
    gauge_base = BUILDERS["Z2 x Z2"]()
    gmap = refalg.gauge_map(gauge_base, rng)
    deformations = {
        "x^2=t over Z2": (x2_base, x2_tables, [1, 0]),
        "trivial over Z3[X]/(X^2)": (
            triv_base, refalg.trivial_cochains(triv_base, DEFORM_ORDER),
            [1, 0]),
        "gauge over Z2 x Z2": (
            gauge_base,
            refalg.gauge_cochains(gauge_base, gmap, DEFORM_ORDER),
            rng.choice([[1, 0], [0, 1]])),
    }
    for name, (base, tables, _e) in deformations.items():
        doc["algebras"][base["name"]] = base
        doc["deformations"][name] = {"algebra": base["name"],
                                     "order": DEFORM_ORDER,
                                     "cochains": tables}
        wl.deformations[name] = (base, tables)
    wl.why["deformations"] = (
        "x^2=t, the trivial deformation and a gauge deformation from a "
        "seeded gauge map, all at rank 2 and order 32; inversion at order 32 "
        "costs O(N^3) deformed products.")

    # Validation at order 4 brute-forces the radical of a 256-element
    # flattening, about a second a job, so it runs on one deformation.
    gauge = "gauge over Z2 x Z2"
    jobs = [Job(
        f"deform-validate {gauge}",
        {"kind": "deform-validate", "deformation": gauge,
         "order": VALIDATE_ORDER},
        {"exit": 0, "order": VALIDATE_ORDER},
        {"N": 2 ** (gauge_base["rank"] * VALIDATE_ORDER),
         "rank": gauge_base["rank"], "order": VALIDATE_ORDER})]
    for name, (base, _tables, e) in deformations.items():
        props = {"rank": base["rank"], "order": DEFORM_ORDER}
        for k in range(INVERTS_PER_DEFORMATION):
            f = _seeded_series(base, rng, DEFORM_ORDER)
            jobs.append(Job(
                f"deform-invert {name} #{k}",
                {"kind": "deform-invert", "deformation": name,
                 "element": json.dumps(f)},
                {"exit": 0, "deformation": name, "element": f}, props))
        jobs.append(Job(
            f"deform-lift {name}",
            {"kind": "deform-lift", "deformation": name,
             "idempotent": json.dumps(e)},
            {"exit": 0, "deformation": name, "idempotent": e}, props))
        jobs.append(Job(
            f"deform-probe {name}",
            {"kind": "deform-probe", "deformation": name,
             "idempotent": json.dumps(e)},
            {"exit": 0, "orders": DEFORM_ORDER - 1}, props))
    wl.why["series"] = (
        "Unit-constant series with seeded coefficients at every order, so "
        "the inductive solve touches all 32 orders; the lift uses a seeded "
        "idempotent, nontrivial on Z2 x Z2.")

    jobs.extend(_extension_instances(doc, rng))
    jobs.extend(_sphere_extension(doc, rng))
    wl.jobs.extend(jobs)


TWISTED = {"modulus": 2, "rank": 1, "left": [[[1]], [[0]]],
           "right": [[[0], [1]]]}


def _extension_instances(doc, rng):
    """The catalog's extension instances: each small algebra with its
    regular bimodule and a zero, multiplication-valued and seeded
    coboundary cocycle, plus the twisted Z2 x Z2 module with two."""
    cases = []
    for key in EXTENSION_ALGEBRAS:
        alg = BUILDERS[key]()
        doc["algebras"][key] = alg
        mod = f"{key} regular"
        doc["bimodules"][mod] = {"algebra": key, "regular": True,
                                 "rank": alg["rank"]}
        M = refalg.regular_module(alg)
        central = REFERENCE["algebras"][key]["idempotents_central"]
        for kind in ("zero", "mul", "coboundary"):
            cases.append((key, alg, mod, M, kind, central))
    doc["bimodules"]["twisted projection"] = {
        "algebra": "Z2 x Z2", "rank": 1,
        "left_action": TWISTED["left"], "right_action": TWISTED["right"]}
    for kind in ("zero", "coboundary"):
        cases.append(("Z2 x Z2", BUILDERS["Z2 x Z2"](), "twisted projection",
                      TWISTED, kind, False))

    jobs = []
    for key, alg, mod, M, kind, central in cases:
        r, s, n = alg["rank"], M["rank"], alg["modulus"]
        if kind == "zero":
            values = [[[0] * s for _ in range(r)] for _ in range(r)]
        elif kind == "mul":
            values = alg["structure"]
        else:
            g = [[rng.randrange(n) for _ in range(s)] for _ in range(r)]
            values = refalg.coboundary1(alg, M, g)
        cname = f"{mod}|{kind}"
        doc["cochains"][cname] = {"bimodule": mod, "degree": 2,
                                  "values": values}
        jobs.append(Job(
            f"extend-verify {cname}",
            {"kind": "extend-verify", "algebra": key, "bimodule": mod,
             "cochain": cname},
            {"exit": 0, "clauses": _transfer_clauses(key, central)},
            {"N": n ** (r + s), "rank": r + s}))
    return jobs


def _transfer_clauses(key, central):
    base = flags_of(key)
    return {
        "nil-clean-transfer": {"base": base["nil_clean"],
                               "carrier": base["nil_clean"]},
        "clean-transfer": {"base": base["clean"], "carrier": base["clean"]},
        "exchange-transfer": {"base": base["exchange"],
                              "carrier": base["exchange"]},
        "uniquely-nil-clean-criterion": {
            "base": base["uniquely_nil_clean"],
            "carrier": base["uniquely_nil_clean"] and central,
            "idempotents_commute_with_module": central},
        "uniquely-clean-criterion": {
            "base": base["uniquely_clean"],
            "carrier": base["uniquely_clean"] and central,
            "idempotents_commute_with_module": central},
    }


def _sphere_extension(doc, rng):
    perm = list(range(6))
    rng.shuffle(perm)
    covers = refalg.relabel(SPHERE_COVERS, perm)
    alg = refalg.incidence_algebra(2, 6, covers, "sphere incidence Z2")
    M = refalg.regular_module(alg)
    r = alg["rank"]
    doc["algebras"]["sphere incidence Z2"] = alg
    doc["bimodules"]["sphere regular"] = {
        "algebra": "sphere incidence Z2", "regular": True, "rank": r}
    g = [[rng.randrange(2) for _ in range(r)] for _ in range(r)]
    f = refalg.coboundary1(alg, M, g)
    doc["cochains"]["sphere dg"] = {"bimodule": "sphere regular",
                                    "degree": 2, "values": f}
    while True:
        i, j, k = rng.randrange(r), rng.randrange(r), rng.randrange(r)
        bad = [[[v for v in cell] for cell in row] for row in f]
        bad[i][j][k] ^= 1
        if refalg.cocycle_violations(alg, M, bad):
            break
    doc["cochains"]["sphere dg perturbed"] = {
        "bimodule": "sphere regular", "degree": 2, "values": bad}
    structure, unit = refalg.extension_carrier(alg, M, f)
    props = {"N": 2 ** (2 * r), "rank": 2 * r,
             "nnz": refalg.table_nnz(alg)}
    return [
        Job("extend sphere dg",
            {"kind": "extend", "algebra": "sphere incidence Z2",
             "bimodule": "sphere regular", "cochain": "sphere dg"},
            {"exit": 0, "structure": structure, "unit": unit}, props),
        Job("extend sphere dg perturbed",
            {"kind": "extend", "algebra": "sphere incidence Z2",
             "bimodule": "sphere regular", "cochain": "sphere dg perturbed"},
            {"exit": 3}, props),
    ]
