"""The seeded generator and the reference oracle it relies on."""

import random

import pytest

from znbench import refalg, workloads

WORKLOADS = sorted(workloads.WHY)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_document(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    assert first.document_text() == again.document_text()
    assert [j.expect for j in first.jobs] == [j.expect for j in again.jobs]
    assert first.document_text() != workloads.build(name, 8).document_text()


def test_hand_checked_z4():
    # Z4: idempotents 0, 1; units 1, 3; nilpotents 0, 2.
    assert refalg.element_counts(refalg.zn(4)) == {
        "idempotents": 2, "units": 2, "nilpotents": 2}
    assert refalg.units(refalg.zn(4)) == [[1], [3]]


def test_hand_checked_circle_over_z2():
    # The 4-cycle: one component, one loop, no 2-dimensional cohomology.
    assert refalg.nerve_betti(4, workloads.CIRCLE_COVERS, 2, 2) == [1, 1, 0]
    # Incidence algebra of the circle has rank 8 (4 points + 4 covers):
    # B^1 = 8 - 1, Z^1 = B^1 + H^1, B^2 = 8^2 - Z^1, Z^2 = B^2 + H^2.
    assert refalg.hochschild_dims(8, [1, 1, 0], 1) == (8, 7, 1)
    assert refalg.hochschild_dims(8, [1, 1, 0], 2) == (56, 56, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sphere_nerve_is_a_two_sphere(p):
    assert refalg.nerve_betti(6, workloads.SPHERE_COVERS, p, 2) == [1, 0, 1]


SMALL = [key for key, ref in workloads.REFERENCE["algebras"].items()
         if ref["elements"] <= 81]


@pytest.mark.parametrize("key", SMALL)
def test_reference_counts_match_brute_force(key):
    alg = workloads.BUILDERS[key]()
    ref = workloads.REFERENCE["algebras"][key]
    assert alg["modulus"] ** alg["rank"] == ref["elements"]
    assert refalg.element_counts(alg) == ref["counts"]


@pytest.mark.parametrize("key", ["T2(Z4)", "M2(Z3)", "Z2[X]/(X^2)"])
def test_change_of_basis_keeps_counts(key):
    alg = workloads.BUILDERS[key]()
    sheared = refalg.change_basis(alg, random.Random(key))
    assert sheared["structure"] != alg["structure"]
    assert refalg.element_counts(sheared) == refalg.element_counts(alg)


def test_expected_flags_from_structure():
    flags = refalg.expected_flags(["M2(F3)"], False)
    assert flags["clean"] and flags["exchange"] and flags["strongly_clean"]
    assert not (flags["nil_clean"] or flags["uniquely_clean"]
                or flags["uniquely_nil_clean"])
    flags = refalg.expected_flags(["F2", "F2"], False)
    assert flags["nil_clean"] and not flags["uniquely_clean"]
    assert all(refalg.expected_flags(["F2"], True).values())


def test_coboundary_is_a_cocycle_and_perturbation_is_not():
    alg = refalg.incidence_algebra(2, 4, workloads.CIRCLE_COVERS, "circle")
    M = refalg.regular_module(alg)
    rng = random.Random(3)
    g = [[rng.randrange(2) for _ in range(alg["rank"])]
         for _ in range(alg["rank"])]
    f = refalg.coboundary1(alg, M, g)
    assert refalg.cocycle_violations(alg, M, f) == []
    f[0][0][0] ^= 1
    assert refalg.cocycle_violations(alg, M, f)


def test_gauge_deformation_is_associative_with_undeformed_unit():
    base = workloads.BUILDERS["Z2 x Z2"]()
    rng = random.Random(5)
    tables = refalg.gauge_cochains(base, refalg.gauge_map(base, rng), 6)

    def series():
        return [[rng.randrange(2) for _ in range(2)] for _ in range(6)]

    for _ in range(5):
        f, g, h = series(), series(), series()
        left = refalg.series_mul(base, tables,
                                 refalg.series_mul(base, tables, f, g), h)
        right = refalg.series_mul(base, tables, f,
                                  refalg.series_mul(base, tables, g, h))
        assert left == right
        one = refalg.series_one(base, 6)
        assert refalg.series_mul(base, tables, one, f) == f


def test_perturbed_sphere_cocycle_is_expected_to_be_refused():
    wl = workloads.build("deform-extend", 1)
    jobs = {j.name: j for j in wl.jobs}
    assert jobs["extend sphere dg perturbed"].expect == {"exit": 3}
    assert jobs["extend sphere dg"].expect["exit"] == 0
