"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its elapsed time.  Budgets are asserted where stated; everything else
is exact equality."""

import random
import time
from itertools import product

import pytest

from znalg.algebra import matrix_algebra, triangular_algebra
from znalg.catalog import catalog_algebras, catalog_extension_instances
from znalg.classify import (
    classify_elements,
    decomposition_report,
    jacobson_radical,
    search_exchange_counterexample,
)
from znalg.deformation import (
    catalog_deformations,
    def_mul,
    def_one,
    flatten,
    flatten_element,
    invert_def,
    lift_idempotent_def,
    lift_idempotent_newton,
    remark2_series,
    t_in_radical_check,
    x_squared_t_deformation,
)
from znalg.errors import LinAlgCapExceeded
from znalg.extension import (
    build_extension,
    idempotent_equation_solutions,
    invert_extension_element,
    lift_idempotent,
    verify_extension_theorems,
)
from znalg.hochschild import (
    Cochain,
    coboundary,
    cohomology_dims,
    is_cocycle2,
    regular_bimodule,
)
from znalg.poset import build_shriek, example_one_presheaf, sphere_presheaf


def _report(criterion, started, detail=""):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")
    return elapsed


def _idempotents(A):
    return [x for x in A.elements() if A.mul(x, x) == x]


def test_criterion_01_idempotent_characterization():
    started = time.monotonic()
    instances = catalog_extension_instances()
    assert len(instances) >= 6
    assert any("twisted" in label for label, *_ in instances)
    assert any(not f.is_zero() for *_, f in instances)
    for label, A, M, f in instances:
        B = build_extension(A, M, f)
        expected = set()
        for e in _idempotents(A):
            sols = idempotent_equation_solutions(B, e)
            central = all(M.lact(e, M.basis(j)) == M.ract(M.basis(j), e)
                          for j in range(M.rank))
            assert (len(sols) == 1) == central, label
            for t in sols:
                expected.add(B.pair(e, t))
            for x in product(range(M.n), repeat=M.rank):
                z = lift_idempotent(B, e, x)
                assert z in expected, label
        brute = set(classify_elements(B.carrier).idempotents)
        assert brute == expected, label
    elapsed = _report(1, started, f"{len(instances)} instances")
    assert elapsed < 60


def test_criterion_02_transfer_biconditionals():
    started = time.monotonic()
    for label, A, M, f in catalog_extension_instances():
        rep = verify_extension_theorems(A, M, f)
        for tag in ("clean-transfer", "nil-clean-transfer",
                    "exchange-transfer"):
            assert rep.clause(tag).passed, (label, tag)
    elapsed = _report(2, started)
    assert elapsed < 60


def test_criterion_03_uniqueness_biconditionals():
    started = time.monotonic()
    carrier_side_failure_seen = False
    for label, A, M, f in catalog_extension_instances():
        rep = verify_extension_theorems(A, M, f)
        for tag in ("uniquely-clean-criterion", "uniquely-nil-clean-criterion"):
            clause = rep.clause(tag)
            assert clause.passed, (label, tag)
            if clause.details["base"] and not clause.details["carrier"]:
                carrier_side_failure_seen = True
    assert carrier_side_failure_seen
    _report(3, started, "includes a carrier-side uniqueness failure")


def test_criterion_04_inverse_formula_everywhere():
    started = time.monotonic()
    checked = 0
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        for z, zinv in classify_elements(B.carrier).units:
            d, p = B.split(z)
            assert invert_extension_element(B, d, p) == zinv, label
            checked += 1
    _report(4, started, f"{checked} carrier units")


def test_criterion_05_series_inversion():
    started = time.monotonic()
    deformations = catalog_deformations(8)
    assert len(deformations) == 3
    for index, D in enumerate(deformations):
        A = D.base
        units = [u for u, _ in classify_elements(A).units]
        rng = random.Random(500 + index)
        one = def_one(D)
        for _ in range(100):
            coeffs = [tuple(rng.randrange(A.n) for _ in range(A.rank))
                      for _ in range(8)]
            coeffs[0] = units[rng.randrange(len(units))]
            f = tuple(coeffs)
            g = invert_def(D, f)
            assert def_mul(D, f, g) == one
            assert def_mul(D, g, f) == one
    _report(5, started, "3 deformations x 100 elements")


def test_criterion_06_newton_convergence():
    started = time.monotonic()
    bound = (16 - 1).bit_length() + 1  # ceil(log2 16) + 1 = 5
    for D in catalog_deformations(16):
        A = D.base
        for e in _idempotents(A):
            g, iterations = lift_idempotent_newton(D, e)
            assert iterations <= bound, D.name
            assert def_mul(D, g, g) == g
            assert g[0] == e
    _report(6, started, f"bound {bound} iterations at order 16")


def test_criterion_07_central_recursion_agreement():
    started = time.monotonic()
    for D in catalog_deformations(4):
        A = D.base
        for e in _idempotents(A):
            central = all(A.mul(e, A.basis(i)) == A.mul(A.basis(i), e)
                          for i in range(A.rank))
            # equality with Newton is certified inside the recursion, which
            # runs exactly for a central idempotent at order N > 1
            assert lift_idempotent_def(D, e).recursed is central
    # order-2 bridge: flattening equals the self-extension by the first
    # cochain, and the canonical lifts coincide coordinatewise
    for D in catalog_deformations(2):
        A = D.base
        M = regular_bimodule(A)
        f = Cochain(2, M, D.cochains[0])
        B = build_extension(A, M, f)
        F = flatten(D)
        assert F.table == B.carrier.table
        assert F.unit == B.carrier.unit
        for e in _idempotents(A):
            central = all(A.mul(e, A.basis(i)) == A.mul(A.basis(i), e)
                          for i in range(A.rank))
            lift = lift_idempotent_def(D, e)
            assert lift.recursed is central
            if central:
                assert flatten_element(D, lift.lift) == lift_idempotent(B, e)
    _report(7, started)


def test_criterion_08_flattened_deformation_flags():
    started = time.monotonic()
    for order, size in ((2, 16), (3, 64)):
        D = x_squared_t_deformation(2, order)
        F = flatten(D)
        assert F.size == size
        rep = decomposition_report(F)
        assert rep.flags["clean"]
        assert rep.flags["uniquely_clean"]
        assert rep.flags["exchange"]
        t_flat = flatten_element(D, tuple(
            [D.base.zero() if k != 1 else D.base.one() for k in range(order)]))
        assert t_flat in set(jacobson_radical(F))
        check = t_in_radical_check(D)
        assert check.structural_ok and check.brute_ok
    elapsed = _report(8, started, "orders 2 and 3")
    assert elapsed < 60


def test_criterion_09_noncentral_lift_series():
    started = time.monotonic()
    cases = [
        (triangular_algebra(2, 2), (1, 0, 0), (0, 1, 0)),
        (matrix_algebra(2, 2), (1, 0, 0, 0), (0, 1, 1, 0)),
        (triangular_algebra(4, 2), (1, 0, 0), (0, 1, 0)),
    ]
    for A, e, x in cases:
        verdict = remark2_series(A, e, x, order=4)
        assert verdict.idempotent, A.name
        assert verdict.nontrivial, A.name
    _report(9, started, "3 noncentral cases mod t^4")


def test_criterion_10_mixed_stalk_carrier_flags():
    started = time.monotonic()
    PA = build_shriek(example_one_presheaf())
    assert PA.carrier.size == 256
    rep = decomposition_report(PA.carrier)
    assert rep.flags["nil_clean"]
    assert rep.flags["strongly_clean"]
    elapsed = _report(10, started, "256-element carrier")
    assert elapsed < 60


def test_criterion_11_sphere_cohomology_dimension():
    started = time.monotonic()
    PA = build_shriek(sphere_presheaf(2))
    A = PA.carrier
    assert A.rank == 18
    M = regular_bimodule(A)
    assert M.rank * A.rank ** 2 == 5832
    dims = cohomology_dims(M, 2)
    assert dims.dim_h == 1
    # degree 3 assembles 5 * 18^3 * 38 = 1108080 coboundary entries: the
    # default cap refuses it, and that many decide it, as the nerve does
    with pytest.raises(LinAlgCapExceeded, match="1108080 entries"):
        cohomology_dims(M, 3)
    with pytest.raises(LinAlgCapExceeded):
        cohomology_dims(M, 3, cap=1108079)
    dims3 = cohomology_dims(M, 3, cap=1108080)
    assert (dims3.dim_cocycles, dims3.dim_coboundaries, dims3.dim_h) \
        == (5524, 5524, 0)
    elapsed = _report(11, started, f"dims {dims}, {dims3}")
    assert elapsed < 600


def test_criterion_12_complex_identities():
    started = time.monotonic()
    rng = random.Random(12)
    for A in catalog_algebras():
        M = regular_bimodule(A)
        for degree in (0, 1, 2):
            for _ in range(3):
                values = _random_table(M, degree, rng)
                g = Cochain(degree, M, values)
                assert coboundary(coboundary(g)).is_zero()
        for _ in range(3):
            g = Cochain(1, M, _random_table(M, 1, rng))
            ok, _v = is_cocycle2(coboundary(g))
            assert ok
    # catalog cocycles: the full derived-identity sweep runs inside
    for label, A, M, f in catalog_extension_instances():
        ok, _v = is_cocycle2(f)
        assert ok, label
    _report(12, started)


def _random_table(M, degree, rng):
    r = M.algebra.rank

    def build(depth):
        if depth == 0:
            return tuple(rng.randrange(M.n) for _ in range(M.rank))
        return tuple(build(depth - 1) for _ in range(r))

    return build(degree)


def test_criterion_13_open_question_scan_deterministic():
    started = time.monotonic()
    first = search_exchange_counterexample(catalog_algebras())
    second = search_exchange_counterexample(catalog_algebras())
    assert first.entries == second.entries
    assert len(first.entries) == len(catalog_algebras())
    for entry in first.entries:
        assert "hits" in entry or "skipped" in entry
    _report(13, started, f"{first.total_hits} hits recorded")
