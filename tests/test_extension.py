"""Extension carriers: idempotent lifting, the explicit inverse, transfer
biconditionals, and the proved exchange factorization."""

import pytest

from znalg.algebra import triangular_algebra, zn, zn_poly_x2
from znalg.catalog import (
    catalog_extension_instances,
    seeded_cochain,
    twisted_projection_module,
    z2xz2,
)
from znalg.classify import classify_elements
from znalg.errors import (
    BadDecomposition,
    BadShape,
    NotACocycle,
    NotIdempotent,
)
from znalg.extension import (
    build_extension,
    exchange_half_witness,
    idempotent_equation_solutions,
    invert_extension_element,
    lift_clean_decomposition,
    lift_idempotent,
    lift_nil_clean_decomposition,
    probe_remark_second_half,
    verify_extension_theorems,
)
from znalg.hochschild import Cochain, regular_bimodule, zero_cochain


def trivial_self_extension(A):
    M = regular_bimodule(A)
    return build_extension(A, M, zero_cochain(M, 2))


def test_trivial_extension_of_z2_is_dual_numbers():
    A = zn(2)
    B = trivial_self_extension(A)
    assert B.carrier.size == 4
    z = B.pair((0,), (1,))
    assert B.carrier.mul(z, z) == B.pair((0,), (0,))
    # same table as Z2[X]/(X^2)
    assert B.carrier.table == zn_poly_x2(2).table
    assert B.carrier.unit == (1, 0)


def test_multiplication_cocycle_extension_unit():
    A = zn(2)
    M = regular_bimodule(A)
    f = Cochain(2, M, A.table)  # f(a, b) = ab
    B = build_extension(A, M, f)
    assert B.carrier.size == 4
    assert B.carrier.unit == B.pair((1,), (1,))  # (1, -f(1,1)) = (1, 1) mod 2


def test_trivial_extension_unit_is_one_zero():
    A = zn(3)
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    assert B.carrier.unit == B.pair(A.one(), M.zero())


def test_non_cocycle_rejected():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    for seed in range(20):
        f = seeded_cochain(M, 2, seed)
        from znalg.hochschild import is_cocycle2
        if not is_cocycle2(f)[0]:
            with pytest.raises(NotACocycle):
                build_extension(A, M, f)
            return
    pytest.skip("no non-cocycle found in seeds")


def test_solution_set_zero_and_one():
    A = z2xz2()
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    assert idempotent_equation_solutions(B, A.zero()) == [M.zero()]
    sols = idempotent_equation_solutions(B, A.one())
    assert sols == [M.zero()]   # t = -f(1,1) = 0 here
    assert B.pair(A.one(), sols[0]) == B.carrier.unit


def test_twisted_idempotent_has_two_lifts():
    P = z2xz2()
    T = twisted_projection_module(P)
    B = build_extension(P, T, zero_cochain(T, 2))
    sols = idempotent_equation_solutions(B, (1, 0))
    assert sols == [(0,), (1,)]


def test_central_idempotents_have_unique_lift():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    for e in classify_elements(A).idempotents:
        sols = idempotent_equation_solutions(B, e)
        assert len(sols) == 1  # commutative base: every idempotent central


def test_lift_idempotent_examples():
    A = zn(2)
    M = regular_bimodule(A)
    f = Cochain(2, M, A.table)
    B = build_extension(A, M, f)
    # e = 1, x = 0: (1-2)f(1,1) = -1 = 1 mod 2, the carrier unit
    assert lift_idempotent(B, (1,)) == B.carrier.unit
    # e = 0 lifts to (0, 0) whatever x is
    for x in ((0,), (1,)):
        assert lift_idempotent(B, (0,), x) == B.pair((0,), (0,))


def test_lift_idempotent_with_offdiagonal_x():
    T2 = triangular_algebra(2, 2)
    B = trivial_self_extension(T2)
    e11 = (1, 0, 0)
    e12 = (0, 1, 0)
    z = lift_idempotent(B, e11, e12)
    assert z == B.pair(e11, e12)
    assert B.carrier.mul(z, z) == z


def test_lift_rejects_non_idempotent():
    B = trivial_self_extension(zn(4))
    with pytest.raises(NotIdempotent):
        lift_idempotent(B, (2,))


def test_formula_lifts_lie_in_solution_set():
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        from itertools import product as iproduct
        idems = classify_elements(A).idempotents
        for e in idems:
            sols = set(idempotent_equation_solutions(B, e))
            for x in iproduct(range(M.n), repeat=M.rank):
                z = lift_idempotent(B, e, x)
                _, t = B.split(z)
                assert t in sols


def test_inverse_formula_against_twisted_unit():
    # f(a,b) = ab over Z2: the carrier unit is (1, 1), not (1, 0), and the
    # formula must produce an inverse certified against that twisted unit
    A = zn(2)
    M = regular_bimodule(A)
    B = build_extension(A, M, Cochain(2, M, A.table))
    assert B.carrier.unit == B.pair((1,), (1,))
    d_p = B.pair((1,), (0,))
    z = invert_extension_element(B, (1,), (0,))
    # formula: (1, -f(1,1) - f(1,1)) = (1, 0): self-inverse under this unit
    assert z == d_p
    assert B.carrier.mul(d_p, z) == B.pair((1,), (1,))
    assert B.carrier.mul(z, d_p) == B.pair((1,), (1,))


def test_inverse_formula_trivial_cocycle():
    A = zn(3)
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    assert invert_extension_element(B, (2,), (0,)) == B.pair((2,), (0,))


def test_inverse_formula_matches_brute_force_everywhere():
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        units = classify_elements(B.carrier).units
        brute = dict(units)
        base_units = {u for u, _ in classify_elements(A).units}
        for z, zinv in brute.items():
            d, p = B.split(z)
            if d in base_units:
                assert invert_extension_element(B, d, p) == zinv


def test_module_arguments_are_coerced_like_algebra_arguments():
    # a float or a wrong-length module element is refused with BadShape by
    # every formula that takes one, as an algebra element is; a residue
    # outside 0..n-1 is reduced, never certified as it stands
    A = zn_poly_x2(2)
    B = trivial_self_extension(A)
    one, zero = A.one(), A.zero()
    for m in ((0.5, 0), (1, 0, 0), (1,)):
        for call in (
                lambda: invert_extension_element(B, one, m),
                lambda: lift_clean_decomposition(
                    B, (zero, m), one, A.sub(zero, one)),
                lambda: lift_nil_clean_decomposition(B, (one, m), one, zero),
                lambda: exchange_half_witness(B, (one, m), one, one),
                lambda: lift_idempotent(B, one, m)):
            with pytest.raises(BadShape):
                call()
    assert invert_extension_element(B, one, (3, -1)) \
        == invert_extension_element(B, one, (1, 1))


def test_carrier_units_are_exactly_unit_constant_parts():
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        base_units = {u for u, _ in classify_elements(A).units}
        carrier_units = {u for u, _ in classify_elements(B.carrier).units}
        from itertools import product as iproduct
        expect = {B.pair(d, p) for d in base_units
                  for p in iproduct(range(M.n), repeat=M.rank)}
        assert carrier_units == expect


def test_carrier_nilpotents_are_exactly_nilpotent_constant_parts():
    from itertools import product as iproduct
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        base_nil = dict(classify_elements(A).nilpotents)
        carrier_nil = dict(classify_elements(B.carrier).nilpotents)
        expect = {B.pair(x, p) for x in base_nil
                  for p in iproduct(range(M.n), repeat=M.rank)}
        assert set(carrier_nil) == expect, label
        # index of (x, p) is at most twice the index of x
        for z, index in carrier_nil.items():
            x, _p = B.split(z)
            assert index <= 2 * base_nil[x], label


def test_nil_clean_lift_example():
    A = zn_poly_x2(2)
    B = trivial_self_extension(A)
    x = (0, 1)
    first, second = lift_nil_clean_decomposition(B, (x, A.zero()), A.zero(), x)
    assert first == B.pair(A.zero(), A.zero())
    assert second == B.pair(x, A.zero())
    # (x, 0)^4 = 0: power iteration inside the certification already checked
    p = second
    for _ in range(3):
        p = B.carrier.mul(p, second)
    assert not any(p)


def test_clean_lift_example():
    A = zn_poly_x2(2)
    B = trivial_self_extension(A)
    x = (0, 1)
    e = A.one()
    u = A.sub(x, e)  # x = 1 + (1 + x)
    first, second = lift_clean_decomposition(B, (x, A.zero()), e, u)
    assert first == B.pair(e, A.zero())
    assert second == B.pair(u, A.zero())


def test_bad_decomposition_rejected():
    A = zn(2)
    B = trivial_self_extension(A)
    e = A.one()
    with pytest.raises(BadDecomposition):
        # u = a - e = 0 is not a unit
        lift_clean_decomposition(B, (e, A.zero()), e, A.zero())


@pytest.mark.parametrize("lift, a, e, part, message", [
    # e is checked first, then its partner, then the sum
    (lift_clean_decomposition, (1, 0), (0, 1), (0, 0),
     "(0, 1) is not idempotent"),
    (lift_clean_decomposition, (1, 0), (1, 0), (0, 0),
     "(0, 0) is not a unit"),
    (lift_clean_decomposition, (1, 0), (1, 0), (1, 0), "e + u != a"),
    (lift_nil_clean_decomposition, (1, 0), (0, 1), (1, 0),
     "(0, 1) is not idempotent"),
    (lift_nil_clean_decomposition, (1, 0), (0, 0), (1, 0),
     "(1, 0) is not nilpotent"),
    (lift_nil_clean_decomposition, (1, 0), (1, 0), (0, 1), "e + x != a"),
])
def test_decomposition_lifts_refuse_by_type_and_message(lift, a, e, part,
                                                        message):
    A = zn_poly_x2(2)
    B = trivial_self_extension(A)
    with pytest.raises(BadDecomposition) as err:
        lift(B, (a, A.zero()), e, part)
    assert type(err.value) is BadDecomposition
    assert str(err.value) == message


def test_build_extension_leaves_the_degree_to_the_cocycle_check():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    with pytest.raises(BadShape) as refused:
        build_extension(A, M, zero_cochain(M, 3))
    assert str(refused.value) == "cocycle check expects a degree-2 cochain"


def test_build_extension_refuses_a_cochain_of_another_bimodule():
    # valued in an equal bimodule over A, but not in M itself
    A = zn_poly_x2(2)
    M, other = regular_bimodule(A), regular_bimodule(A)
    assert other is not M
    with pytest.raises(BadShape) as refused:
        build_extension(A, M, zero_cochain(other, 2))
    assert str(refused.value) == (
        "cocycle must be a degree-2 cochain valued in M")


def test_half_witness_refuses_an_element_that_is_not_idempotent():
    A = zn_poly_x2(2)
    B = trivial_self_extension(A)
    with pytest.raises(NotIdempotent) as refused:
        exchange_half_witness(B, (A.one(), A.zero()), (0, 1), A.one())
    assert str(refused.value) == "(0, 1) is not idempotent in Z2[X]/(X^2)"


def test_half_witness_unit_case():
    A = zn(2)
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    w = exchange_half_witness(B, (A.one(), M.zero()), A.one(), A.one())
    assert w.idempotent == B.carrier.unit


def test_half_witness_idempotent_case():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    B = build_extension(A, M, zero_cochain(M, 2))
    e = A.one()
    w = exchange_half_witness(B, (e, M.zero()), e, e)
    assert w.idempotent == B.pair(e, M.zero())


def test_half_witness_z3_nonzero_cocycle():
    A = zn(3)
    M = regular_bimodule(A)
    B = build_extension(A, M, Cochain(2, M, A.table))
    # a = 2, r = 2, e = 1 = 2*2 in Z3; all m values
    for m in ((0,), (1,), (2,)):
        w = exchange_half_witness(B, ((2,), m), (1,), (2,))
        assert B.carrier.mul(w.idempotent, w.idempotent) == w.idempotent


def test_half_witness_across_catalog():
    for label, A, M, f in catalog_extension_instances():
        B = build_extension(A, M, f)
        from znalg.classify import decomposition_report
        witnesses = decomposition_report(A).witnesses
        from itertools import product as iproduct
        for a, rec in sorted(witnesses.items()):
            e, r, _s = rec["exchange"]
            for m in iproduct(range(M.n), repeat=M.rank):
                exchange_half_witness(B, (a, m), e, r)


def test_verify_extension_theorems_z2x_regular():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    rep = verify_extension_theorems(A, M, zero_cochain(M, 2))
    assert rep.all_passed
    clause = rep.clause("uniquely-nil-clean-criterion")
    assert clause.details["carrier"] is True


def test_verify_extension_theorems_twisted_uniqueness_fails_on_carrier():
    P = z2xz2()
    T = twisted_projection_module(P)
    rep = verify_extension_theorems(P, T, zero_cochain(T, 2))
    assert rep.all_passed
    clause = rep.clause("uniquely-nil-clean-criterion")
    assert clause.details["base"] is True
    assert clause.details["carrier"] is False
    assert clause.details["idempotents_commute_with_module"] is False


def test_verify_extension_theorems_z3_mul_cocycle():
    A = zn(3)
    M = regular_bimodule(A)
    rep = verify_extension_theorems(A, M, Cochain(2, M, A.table))
    assert rep.all_passed
    assert rep.clause("clean-transfer").details["carrier"] is True
    assert rep.clause("nil-clean-transfer").details["carrier"] is False


def test_all_catalog_instances_pass_theorems():
    for label, A, M, f in catalog_extension_instances():
        rep = verify_extension_theorems(A, M, f)
        assert rep.all_passed, label


def test_second_half_probe_reports():
    A = zn(3)
    M = regular_bimodule(A)
    B = build_extension(A, M, Cochain(2, M, A.table))
    probe = probe_remark_second_half(B)
    assert probe.cases
    for case in probe.cases:
        assert isinstance(case["found"], bool)


def test_second_half_probe_noncommutative_carrier():
    # evidence gathering over a noncommutative base with a nonzero cocycle;
    # the probe records outcomes and the recorded factors re-verify
    T2 = triangular_algebra(2, 2)
    M = regular_bimodule(T2)
    B = build_extension(T2, M, Cochain(2, M, T2.table))
    probe = probe_remark_second_half(B)
    assert len(probe.cases) == T2.size * B.module.n ** B.module.rank
    carrier = B.carrier
    one = T2.one()
    neg_f11 = M.neg(B.f11)
    for case in probe.cases:
        if case["found"]:
            a, m, e = case["a"], case["m"], case["e"]
            r = case["r"]
            f = B.cocycle
            x = M.neg(M.add(f.evaluate(a, r), M.ract(m, r)))
            t = M.lact(T2.sub(one, T2.smul(2, e)), f.evaluate(e, e))
            t = M.add(t, M.sub(M.lact(e, x), M.ract(x, e)))
            target = B.pair(T2.sub(one, e), M.sub(neg_f11, t))
            left = B.pair(T2.sub(one, a), M.sub(neg_f11, m))
            assert carrier.mul(left, case["factor"]) == target


def test_certificates_evaluate_no_product_per_basis_triple(monkeypatch):
    # the sphere carrier (rank 18), its regular bimodule and the rank-36
    # extension by a coboundary are certified from the sparse cells: the
    # unit laws read the cells too, so the bimodule makes no product call,
    # and only the derived cocycle checks evaluate products, O(r) of them;
    # a product per basis pair or triple would make r^2 = 324 or r^3 = 5832
    # calls
    from collections import Counter
    from znalg.algebra import FiniteAlgebra
    from znalg.hochschild import Bimodule, coboundary
    from znalg.poset import build_shriek, sphere_presheaf
    S = build_shriek(sphere_presheaf(2)).carrier
    r = S.rank
    calls = Counter()
    for cls, name in ((FiniteAlgebra, "mul"), (Bimodule, "lact"),
                      (Bimodule, "ract"), (Cochain, "evaluate")):
        def counted(*args, _method=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(cls, name, counted)
    M = regular_bimodule(S)
    assert not calls
    f = coboundary(seeded_cochain(M, 1, 7))
    calls.clear()
    B = build_extension(S, M, f)
    assert B.carrier.rank == 2 * r
    assert calls["evaluate"] >= 1 and max(calls.values()) <= 8 * r
