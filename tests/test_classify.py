"""Classification oracles: expected values below were computed by direct
enumeration from the definitions (the rings are small enough to do by hand)
and are frozen; the library must reproduce them exactly."""

import time
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st
from test_algebra import sheared

from znalg.algebra import (
    FiniteAlgebra,
    _matrix_units_algebra,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from znalg.classify import (
    ClassificationReport,
    classify_elements,
    decomposition_report,
    in_radical,
    jacobson_radical,
    search_exchange_counterexample,
)
from znalg.errors import CapExceeded, SelfCheckFailed


def brute_idempotents(A):
    # independent of classify internals: definition scan
    return sorted(x for x in A.elements() if A.mul(x, x) == x)


def brute_units(A):
    elems = list(A.elements())
    return sorted(x for x in elems
                  if any(A.mul(x, y) == A.one() and A.mul(y, x) == A.one()
                         for y in elems))


def test_z2x_classification_frozen():
    A = zn_poly_x2(2)
    rep = classify_elements(A)
    assert rep.idempotents == [(0, 0), (1, 0)]
    assert [u for u, _ in rep.units] == [(1, 0), (1, 1)]
    assert sorted(x for x, _ in rep.nilpotents) == [(0, 0), (0, 1)]
    # recorded inverses are two-sided
    for u, v in rep.units:
        assert A.mul(u, v) == A.one() == A.mul(v, u)


def test_z4_classification_frozen():
    A = zn(4)
    rep = classify_elements(A)
    assert rep.idempotents == [(0,), (1,)]
    assert [u for u, _ in rep.units] == [(1,), (3,)]
    assert sorted(x for x, _ in rep.nilpotents) == [(0,), (2,)]


def test_one_is_idempotent_and_unit_everywhere():
    for A in (zn(2), zn(5), zn_poly_x2(3), triangular_algebra(2, 2)):
        rep = classify_elements(A)
        assert A.one() in rep.idempotents
        assert A.one() in dict(rep.units)


def test_oracle_agreement_on_catalog():
    for A in (zn(4), zn_poly_x2(2), triangular_algebra(2, 2),
              direct_product([zn(2), zn(2)])):
        rep = classify_elements(A)
        assert rep.idempotents == brute_idempotents(A)
        assert [u for u, _ in rep.units] == brute_units(A)


def test_z2x_flags():
    rep = decomposition_report(zn_poly_x2(2))
    assert rep.flags["clean"]
    assert rep.flags["nil_clean"]
    assert rep.flags["uniquely_clean"]
    assert rep.flags["uniquely_nil_clean"]


def test_z3_not_nil_clean():
    rep = decomposition_report(zn(3))
    assert rep.flags["clean"]
    assert not rep.flags["nil_clean"]
    assert rep.failures["nil_clean"]["element"] == (2,)


def test_t2z2_nil_clean_but_not_uniquely():
    # e11 = e11 + 0 = (e11 + e12) + e12 gives two decompositions
    rep = decomposition_report(triangular_algebra(2, 2))
    assert rep.flags["nil_clean"]
    assert not rep.flags["uniquely_nil_clean"]
    bad = rep.failures["uniquely_nil_clean"]
    assert bad["count"] >= 2


def test_z2xz2_idempotents_are_everything():
    P = direct_product([zn(2), zn(2)])
    rep = classify_elements(P)
    assert len(rep.idempotents) == 4


def test_witness_records_reverify():
    A = triangular_algebra(2, 2)
    rep = decomposition_report(A)
    for a, rec in rep.witnesses.items():
        if rec["clean"]:
            e, u = rec["clean"]
            assert A.add(e, u) == a
            assert A.mul(e, e) == e
            assert u in dict(rep.units)
        if rec["nil_clean"]:
            e, x = rec["nil_clean"]
            assert A.add(e, x) == a
            assert A.mul(e, e) == e
        if rec["strongly_clean"]:
            e, u = rec["strongly_clean"]
            assert A.mul(e, u) == A.mul(u, e)


def test_flag_implications_on_catalog():
    for A in (zn(2), zn(3), zn(4), zn_poly_x2(2),
              direct_product([zn(2), zn(2)]), triangular_algebra(2, 2)):
        rep = decomposition_report(A)
        if rep.flags["clean"]:
            assert rep.flags["exchange"]
        if rep.flags["uniquely_clean"]:
            assert rep.flags["clean"]
        if rep.flags["uniquely_nil_clean"]:
            assert rep.flags["nil_clean"]


def _exchange_witnesses(A):
    rep = decomposition_report(A)
    return {a: rec["exchange"] for a, rec in rep.witnesses.items()}


def test_exchange_z2x():
    assert len(_exchange_witnesses(zn_poly_x2(2))) == 4


def test_exchange_witness_z3():
    witnesses = _exchange_witnesses(zn(3))
    assert len(witnesses) == 3
    e, r, s = witnesses[(2,)]
    A = zn(3)
    assert A.mul((2,), r) == e
    assert A.mul(A.sub(A.one(), (2,)), s) == A.sub(A.one(), e)
    # e = 1 works too: 1 = 2*2 in Z3 and 0 lies in (1-2)Z3
    assert A.mul((2,), (2,)) == (1,)
    assert A.zero() in {A.mul(A.sub(A.one(), (2,)), b) for b in A.elements()}


def test_exchange_witnesses_reverify_everywhere():
    for A in (zn(4), triangular_algebra(2, 2), matrix_algebra(3, 2),
              triangular_algebra(2, 3)):
        witnesses = _exchange_witnesses(A)
        assert len(witnesses) == A.size
        one = A.one()
        for a, (e, r, s) in witnesses.items():
            comp = A.sub(one, a)
            assert A.mul(e, e) == e
            assert A.mul(a, r) == e == A.mul(r, a)
            assert A.mul(comp, s) == A.sub(one, e) == A.mul(s, comp)


def test_decomposition_report_at_1024_elements():
    A = direct_product([zn_poly_x2(2)] * 5)
    assert A.size == 1024
    rep = decomposition_report(A)
    assert all(rep.flags.values())
    assert len(rep.idempotents) == len(rep.units) == len(rep.nilpotents) == 32


def test_units_form_a_group():
    for A in (zn(4), zn_poly_x2(2), triangular_algebra(2, 2)):
        units = classify_elements(A).units
        unit_set = {u for u, _ in units}
        # the inverse of a unit is a unit, and inversion is an involution
        inverses = dict(units)
        for u, v in units:
            assert v in unit_set
            assert inverses[v] == u


def test_jacobson_radical_frozen():
    assert jacobson_radical(zn(4)) == [(0,), (2,)]
    assert jacobson_radical(zn_poly_x2(2)) == [(0, 0), (0, 1)]
    assert jacobson_radical(zn(2)) == [(0,)]


def test_in_radical_matches_the_definition():
    from znalg.catalog import catalog_algebras
    algebras = catalog_algebras() + [
        matrix_algebra(3, 2), triangular_algebra(2, 3),
        triangular_algebra(4, 2), zn_poly_x2(16)]
    for A in algebras:
        elems = list(A.elements())
        units = set(brute_units(A))
        one = A.one()
        radical = [x for x in elems
                   if all(A.sub(one, A.mul(x, r)) in units for r in elems)
                   and all(A.sub(one, A.mul(r, x)) in units for r in elems)]
        # jacobson_radical asks in_radical about every element
        assert jacobson_radical(A) == radical, A.name
        assert in_radical(A, A.zero()) and not in_radical(A, one)


# Incidence algebras of at most 256 elements over Z4, Z6, Z8 and Z9, each
# poset given by its order relation (pairs a <= b): a point, antichains of
# 2-4 points, the 2-chain (T2) and the 2-chain beside a point.
T2 = [(0, 0), (0, 1), (1, 1)]
SMALL_INCIDENCE = [
    (n, pairs) for n in (4, 6, 8, 9)
    for pairs in ([(0, 0)], [(0, 0), (1, 1)], T2, [(0, 0), (1, 1), (2, 2)],
                  T2 + [(2, 2)], [(0, 0), (1, 1), (2, 2), (3, 3)])
    if n ** len(pairs) <= 256]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(SMALL_INCIDENCE),
       shear=st.none() | st.integers(0, 2 ** 16))
@example(case=(4, T2), shear=None)  # |e00·A| = 16 but |A·e00| = 4
@example(case=(4, T2), shear=7)
@example(case=(6, T2), shear=3)
def test_in_radical_against_the_definition_on_both_sides(case, shear):
    """in_radical walks the one-sided ideals through their Smith forms
    (invariant factors other than 1 and n over Z4, Z6, Z8 and Z9); the
    oracle asks brute_units about 1 - xr and 1 - rx for every r in A."""
    n, pairs = case
    A = _matrix_units_algebra(n, pairs, f"incidence {pairs} over Z{n}")
    if shear is not None:
        A = sheared(A, shear)
    elems = list(A.elements())
    units = set(brute_units(A))
    one = A.one()
    for x in elems:
        right = all(A.sub(one, A.mul(x, r)) in units for r in elems)
        left = all(A.sub(one, A.mul(r, x)) in units for r in elems)
        assert right == left == in_radical(A, x), (A.name, x)


def test_in_radical_walks_the_span_of_one_lazily():
    """1·A is all 2^18 elements of the sphere carrier; the span is listed
    lazily, so the walk stops at its first non-unit instead of listing A."""
    from znalg.poset import build_shriek, sphere_presheaf
    carrier = build_shriek(sphere_presheaf(2)).carrier
    start = time.monotonic()
    assert not in_radical(carrier, carrier.one())
    assert time.monotonic() - start < 1


def test_in_radical_refuses_on_its_two_one_sided_ideals():
    """in_radical refuses on |xA| + |Ax|, the elements its walks would
    list, not on the 2^18 elements of the sphere carrier: e_1 (block
    (0, 2)) has |e_1 A| = 8 and |A e_1| = 2, and 1 has 2^18 on each side."""
    from znalg.poset import build_shriek, sphere_presheaf
    PA = build_shriek(sphere_presheaf(2))
    carrier = PA.carrier
    strict = [PA.offsets[pair][0] for pair in PA.blocks if pair[0] != pair[1]]
    assert all(in_radical(carrier, carrier.basis(k), cap=1000)
               for k in strict)
    e1 = carrier.basis(1)
    assert in_radical(carrier, e1, cap=10)
    with pytest.raises(CapExceeded, match="10 elements exceeds cap 9"):
        in_radical(carrier, e1, cap=9)
    with pytest.raises(CapExceeded, match="524288 elements exceeds cap 1000"):
        in_radical(carrier, carrier.one(), cap=1000)


def test_strict_blocks_of_the_sphere_lie_in_the_radical_within_budget():
    """Each strict basis element's one-sided ideals are small, so the 12
    in_radical calls walk them and never the 2^18-element carrier."""
    from znalg.poset import build_shriek, sphere_presheaf, triangular_ideal_facts
    PA = build_shriek(sphere_presheaf(2))
    start = time.monotonic()
    assert triangular_ideal_facts(PA).inside_radical is True
    assert time.monotonic() - start < 2


# Enumerated oracle for the quotient by an ideal: element-set closure, coset
# table, greedy basis and coordinate walk.  test_poset checks the poset
# carriers' table certificate of A/I against it, and the frozen cases below
# check the oracle itself.


class QuotientNotFree(Exception):
    """The quotient's additive group is not a free module over any single Z_d."""


def enumerated_saturate_ideal(A: FiniteAlgebra, gens, cap=None) -> set:
    """Close gens under addition and one-sided basis multiplications: the
    two-sided ideal they generate."""
    A.require_within_cap(cap)
    ideal = {A.zero()}
    frontier = [A.coerce(g) for g in gens]
    basis = [A.basis(i) for i in range(A.rank)]
    while frontier:
        x = frontier.pop()
        if x in ideal:
            continue
        ideal.add(x)
        for s in list(ideal):
            y = A.add(x, s)
            if y not in ideal:
                frontier.append(y)
        for b in basis:
            for y in (A.mul(b, x), A.mul(x, b)):
                if y not in ideal:
                    frontier.append(y)
    return ideal


def enumerated_quotient_by_ideal(A: FiniteAlgebra, gens, cap=None):
    """Coset algebra of the two-sided ideal generated by gens.

    Returns (Q, project, ideal) where Q is a validated FiniteAlgebra over
    Z_d (d the additive exponent of the quotient), project maps an element
    of A to its Q-coordinates, and ideal is the saturated element set.
    Raises QuotientNotFree when the quotient's additive group is not a free
    Z_d-module, which the structure-constant form cannot represent.
    """
    ideal = enumerated_saturate_ideal(A, gens, cap)
    size = A.size
    if size % len(ideal):
        raise SelfCheckFailed("ideal size does not divide algebra size")
    qsize = size // len(ideal)
    if qsize == 1:
        raise QuotientNotFree(
            f"{A.name}: quotient by the whole ring has one element, below "
            "the representable modulus 2")

    rep_of = {}
    reps = []
    for x in A.elements(cap):
        if x in rep_of:
            continue
        reps.append(x)          # lex-first member is the canonical rep
        for i in ideal:
            rep_of[A.add(x, i)] = x

    def coset_add(x, y):
        return rep_of[A.add(x, y)]

    zero = A.zero()
    # additive exponent of the quotient
    d = 1
    orders = {}
    for x in reps:
        acc, k = x, 1
        while acc != zero:
            acc = coset_add(acc, x)
            k += 1
        orders[x] = k
        d = lcm(d, k)
    s = 0
    t = qsize
    while t > 1:
        if t % d:
            raise QuotientNotFree(
                f"{A.name}: quotient size {qsize} is not a power of the "
                f"additive exponent {d}")
        t //= d
        s += 1

    # greedy basis of order-d cosets with trivial span intersection; try the
    # images of the original basis first so trivial quotients keep their
    # coordinates
    candidates = []
    for i in range(A.rank):
        r = rep_of[A.basis(i)]
        if r not in candidates:
            candidates.append(r)
    seen_cand = set(candidates)
    candidates.extend(x for x in reps if x not in seen_cand)
    span = {zero}
    gens_q = []
    for g in candidates:
        if len(span) == qsize:
            break
        if orders[g] != d:
            continue
        mult, multiples = g, []
        ok = True
        while mult != zero:
            if mult in span:
                ok = False
                break
            multiples.append(mult)
            mult = coset_add(mult, g)
        if not ok:
            continue
        gens_q.append(g)
        grown = set(span)
        for m in multiples:
            grown.update(coset_add(h, m) for h in span)
        span = grown
    if len(span) != qsize or len(gens_q) != s:
        raise QuotientNotFree(
            f"{A.name}: quotient additive group is not free over Z_{d}")

    # coordinates of every coset, certified bijective
    coords_of = {zero: (0,) * s}
    for axis, g in enumerate(gens_q):
        new = {}
        for x, cs in coords_of.items():
            acc = x
            for mult in range(1, d):
                acc = coset_add(acc, g)
                c2 = list(cs)
                c2[axis] = mult
                new[acc] = tuple(c2)
        coords_of.update(new)
    if len(coords_of) != qsize:
        raise QuotientNotFree(
            f"{A.name}: quotient coordinates are not bijective")

    structure = [
        [list(coords_of[rep_of[A.mul(gi, gj)]]) for gj in gens_q]
        for gi in gens_q
    ]
    Q = validate_algebra(FiniteAlgebra(
        d, s, structure, coords_of[rep_of[A.one()]], f"{A.name}/I"))

    def project(x):
        return coords_of[rep_of[A.coerce(x)]]

    return Q, project, ideal


def test_quotient_z4_by_two():
    Q, project, ideal = enumerated_quotient_by_ideal(zn(4), [(2,)])
    assert ideal == {(0,), (2,)}
    assert Q.size == 2 and Q.n == 2
    assert project((3,)) == project((1,))
    assert project(Q and (1,)) == Q.one()


def test_quotient_by_zero_is_identity():
    A = zn_poly_x2(2)
    Q, project, ideal = enumerated_quotient_by_ideal(A, [])
    assert ideal == {A.zero()}
    assert Q.table == A.table and Q.unit == A.unit
    for x in A.elements():
        assert project(x) == x


def test_quotient_t2_by_strict_upper():
    A = triangular_algebra(2, 2)
    e01 = (0, 1, 0)
    Q, project, ideal = enumerated_quotient_by_ideal(A, [e01])
    assert len(ideal) == 2
    assert Q.size == 4
    # isomorphic to Z2 x Z2: every element idempotent
    assert all(Q.mul(q, q) == q for q in Q.elements())


def test_quotient_projection_is_ring_map():
    A = zn(4)
    Q, project, ideal = enumerated_quotient_by_ideal(A, [(2,)])
    for x in A.elements():
        for y in A.elements():
            assert project(A.mul(x, y)) == Q.mul(project(x), project(y))
            assert project(A.add(x, y)) == Q.add(project(x), project(y))
    assert project(A.one()) == Q.one()
    # fibers all have size |I|
    from collections import Counter
    sizes = Counter(project(x) for x in A.elements())
    assert set(sizes.values()) == {len(ideal)}


def test_quotient_represents_over_smaller_modulus():
    # (Z4 x Z4) / ((2,2)) has additive exponent 2: the quotient drops to a
    # rank-2 table over Z2 isomorphic to Z2 x Z2
    A = direct_product([zn(4), zn(4)])
    Q, project, ideal = enumerated_quotient_by_ideal(A, [(2, 2)])
    assert sorted(ideal) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert Q.n == 2 and Q.rank == 2
    assert all(Q.mul(q, q) == q for q in Q.elements())
    for x in A.elements():
        for y in A.elements():
            assert project(A.mul(x, y)) == Q.mul(project(x), project(y))


def test_quotient_not_free_detected():
    # Z4[x]/(x^2) has the ideal {0, 2x}; the quotient has additive group
    # Z4 x Z2, which no single-modulus table can carry
    A = zn_poly_x2(4)
    with pytest.raises(QuotientNotFree):
        enumerated_quotient_by_ideal(A, [(0, 2)])


def test_sphere_quotient_by_strict_blocks_is_the_stalk_product():
    """shriek's certificate (triangular_ideal_facts) proves A/I = Z2^6 from
    the table of the 2^18-element sphere carrier, I its strict span;
    diagonal extraction, the isomorphism, is a unital ring map on the
    images of all 2^6 diagonal elements."""
    from znalg.poset import build_shriek, sphere_presheaf, triangular_ideal_facts
    PA = build_shriek(sphere_presheaf(2))
    carrier, size = PA.carrier, PA.presheaf.poset.size
    start = time.monotonic()
    facts = triangular_ideal_facts(PA)
    assert time.monotonic() - start < 2
    assert carrier.size == 2 ** 18
    assert facts.is_ideal and facts.quotient_matches_product

    def diagonal(z):
        return tuple(PA.block(z, (i, i))[0] for i in range(size))

    stalks = direct_product([zn(2)] * size)
    lift = {s: PA.inject({(i, i): (s[i],) for i in range(size)})
            for s in stalks.elements()}
    assert diagonal(carrier.one()) == stalks.one()
    for s, x in lift.items():
        assert diagonal(x) == s
        for t, y in lift.items():
            assert diagonal(carrier.mul(x, y)) == stalks.mul(s, t)


def lifting_proposition(A, gens):
    """(A clean, A/I clean, every idempotent of A/I lifts) for the ideal I
    generated by gens, which must lie in the radical; A/I is the enumerated
    quotient.  A is clean exactly when the other two hold."""
    Q, project, ideal = enumerated_quotient_by_ideal(A, gens)
    assert all(in_radical(A, x) for x in ideal)
    base, quotient = decomposition_report(A), decomposition_report(Q)
    lifted = {project(e) for e in base.idempotents}
    return (base.flags["clean"], quotient.flags["clean"],
            all(q in lifted for q in quotient.idempotents))


def test_lifting_proposition_z4():
    assert lifting_proposition(zn(4), [(2,)]) == (True, True, True)


def test_lifting_proposition_z2x():
    assert lifting_proposition(zn_poly_x2(2), [(0, 1)]) == (True, True, True)


def test_lifting_proposition_zero_ideal_degenerates():
    assert lifting_proposition(zn(3), []) == (True, True, True)


def test_counterexample_search_frozen_hits():
    # hand enumeration: hits are (a, e) with e in aR but 1-e not in (1-a)R,
    # e.g. a = 1, e = 0: 1-e = 1 is not in 0*R
    report = search_exchange_counterexample([zn(2), zn(3), zn(4)])
    by_name = {e["algebra"]: e for e in report.entries}
    assert by_name["Z2"]["hits"] == [((1,), (0,))]
    assert by_name["Z3"]["hits"] == [((1,), (0,))]
    assert by_name["Z4"]["hits"] == [((1,), (0,)), ((3,), (0,))]


def test_counterexample_search_matches_brute_force_membership():
    """The search decides e in aA and 1 - e in (1-a)A from two Smith forms
    per a; the oracle lists both one-sided ideals as sets of products."""
    A = direct_product([zn_poly_x2(2)] * 4)
    report = search_exchange_counterexample([A])
    elems = list(A.elements())
    one = A.one()
    hits = []
    for a in elems:
        aA = {A.mul(a, y) for y in elems}
        compA = {A.mul(A.sub(one, a), y) for y in elems}
        hits += [(a, e) for e in brute_idempotents(A)
                 if e in aA and A.sub(one, e) not in compA]
    assert len(hits) == 1040
    assert report.entries[0]["hits"] == hits


def test_counterexample_search_empty_catalog():
    report = search_exchange_counterexample([])
    assert report.entries == [] and report.total_hits == 0


def test_cap_refusal():
    A = zn(2)
    with pytest.raises(CapExceeded):
        classify_elements(A, cap=1)


def test_missing_unit_fails_the_clean_self_check(monkeypatch):
    from znalg.algebra import FiniteAlgebra
    from znalg.errors import SelfCheckFailed
    decide = FiniteAlgebra.inverse_and_index

    # no element is reported a unit; nilpotents stay nilpotent
    def no_unit(self, x, cap=None):
        return None, decide(self, x, cap)[1]
    monkeypatch.setattr(FiniteAlgebra, "inverse_and_index", no_unit)
    with pytest.raises(SelfCheckFailed, match="strongly clean"):
        decomposition_report(zn(3))


def test_wrong_inverse_fails_the_exchange_self_check(monkeypatch):
    from znalg.algebra import FiniteAlgebra
    from znalg.errors import SelfCheckFailed
    decide = FiniteAlgebra.inverse_and_index

    # units stay units, but 1 is reported as every unit's inverse
    def one_as_inverse(self, x, cap=None):
        y, index = decide(self, x, cap)
        return (None if y is None else self.one()), index
    monkeypatch.setattr(FiniteAlgebra, "inverse_and_index", one_as_inverse)
    with pytest.raises(SelfCheckFailed, match="exchange witness"):
        decomposition_report(zn(3))


def subtracting_decomposition_report(A):
    """The pairing by subtraction: every unit and nilpotent walk, then
    a - e tested against the units and the nilpotents for every element a
    and idempotent e, 2·N·|E| subtractions; the oracle for the forward
    pairing of decomposition_report."""
    rep = ClassificationReport(A.name)
    rep.idempotents = A.idempotents()
    for x in A.elements():
        y = A.inverse(x)
        if y is not None:
            rep.units.append((x, y))
        index = A.nilpotency_index(x)
        if index is not None:
            rep.nilpotents.append((x, index))
    one = A.one()
    idem = rep.idempotents
    unit_inv = dict(rep.units)
    nil_index = dict(rep.nilpotents)

    nil_clean = True
    for a in A.elements():
        clean_pairs = []
        strong_pair = None
        for e in idem:
            u = A.sub(a, e)
            if u in unit_inv:
                clean_pairs.append((e, u))
                if strong_pair is None and A.mul(e, u) == A.mul(u, e):
                    strong_pair = (e, u)
        nil_pairs = []
        for e in idem:
            x = A.sub(a, e)
            if x in nil_index:
                nil_pairs.append((e, x))
        e, u = strong_pair
        v = unit_inv[u]
        f = A.sub(one, e)
        rep.witnesses[a] = {
            "clean": clean_pairs[0],
            "clean_count": len(clean_pairs),
            "nil_clean": nil_pairs[0] if nil_pairs else None,
            "nil_clean_count": len(nil_pairs),
            "strongly_clean": strong_pair,
            "exchange": (f, A.mul(v, f), A.neg(A.mul(v, e))),
        }
        if len(clean_pairs) > 1 and "uniquely_clean" not in rep.failures:
            rep.failures["uniquely_clean"] = {
                "element": a, "count": len(clean_pairs),
                "decompositions": clean_pairs[:2]}
        if not nil_pairs:
            nil_clean = False
            rep.failures.setdefault("nil_clean", {"element": a})
            rep.failures.setdefault("uniquely_nil_clean", {"element": a, "count": 0})
        elif len(nil_pairs) > 1 and "uniquely_nil_clean" not in rep.failures:
            rep.failures["uniquely_nil_clean"] = {
                "element": a, "count": len(nil_pairs),
                "decompositions": nil_pairs[:2]}
    rep.flags = {
        "clean": True,
        "nil_clean": nil_clean,
        "uniquely_clean": "uniquely_clean" not in rep.failures,
        "uniquely_nil_clean":
            nil_clean and "uniquely_nil_clean" not in rep.failures,
        "strongly_clean": True,
        "exchange": True,
    }
    return rep


def z2_power(k):
    return direct_product([zn(2)] * k)


def test_forward_pairing_matches_the_subtracting_oracle():
    from test_algebra import sheared
    from znalg.catalog import catalog_algebras
    from znalg.poset import build_shriek, example_one_presheaf
    small = [matrix_algebra(3, 2), triangular_algebra(4, 2),
             triangular_algebra(2, 3)]
    algebras = catalog_algebras() + small + [
        zn_poly_x2(16), z2_power(8), build_shriek(example_one_presheaf()).carrier]
    algebras += [sheared(A, seed) for seed, A in enumerate(small, 11)]
    for A in algebras:
        rep, oracle = decomposition_report(A), subtracting_decomposition_report(A)
        assert rep == oracle, A.name
        # equal dicts may still differ in order, which reports print
        assert list(rep.witnesses) == list(oracle.witnesses), A.name
        assert list(rep.failures) == list(oracle.failures), A.name
        assert list(rep.flags) == list(oracle.flags), A.name


def _count_calls(monkeypatch, *names):
    from znalg.algebra import FiniteAlgebra
    counts = dict.fromkeys(names, 0)

    def counted(name):
        method = getattr(FiniteAlgebra, name)

        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)
        return wrapper
    for name in names:
        monkeypatch.setattr(FiniteAlgebra, name, counted(name))
    return counts


def test_pairing_adds_each_idempotent_to_units_and_nilpotents(monkeypatch):
    A = z2_power(8)
    rep = classify_elements(A)
    bound = len(rep.idempotents) * (len(rep.units) + len(rep.nilpotents))
    assert bound == 512
    counts = _count_calls(monkeypatch, "add", "sub")
    decomposition_report(A)
    assert counts["add"] <= bound
    # 1 - e and 1 - a for each element's exchange witness, nothing per pair
    assert counts["sub"] <= 2 * A.size


def test_units_skip_the_nilpotency_walk(monkeypatch):
    A = matrix_algebra(3, 2)
    counts = _count_calls(monkeypatch, "mul")
    rep = classify_elements(A)
    assert (len(rep.idempotents), len(rep.units), len(rep.nilpotents)) \
        == (14, 48, 9)
    assert counts["mul"] <= 388


def test_classification_walks_each_element_once(monkeypatch):
    for A in (matrix_algebra(3, 2), zn_poly_x2(16), z2_power(6),
              sheared(triangular_algebra(4, 2), 5)):
        counts = _count_calls(monkeypatch, "_power_walk")
        rep = classify_elements(A)
        monkeypatch.undo()
        assert counts["_power_walk"] == A.size, A.name
        assert rep.units == [(x, y) for x in A.elements()
                             if (y := A.inverse(x)) is not None]
        assert rep.nilpotents == [
            (x, k) for x in A.elements()
            if A.inverse(x) is None
            and (k := A.nilpotency_index(x)) is not None]


def test_nilpotency_walk_takes_the_callers_cap(monkeypatch):
    import znalg.algebra
    monkeypatch.setattr(znalg.algebra, "DEFAULT_CAP", 50)
    A = zn(202)
    # 2 in Z202 = Z2 x Z101 walks 101 powers before a repeat
    assert A.nilpotency_index((2,), cap=1000) is None
    with pytest.raises(CapExceeded, match="51 powers exceeds cap 50"):
        A.nilpotency_index((2,))
    rep = classify_elements(A, cap=1000)
    assert [x for x, _ in rep.nilpotents] == [(0,)]
    assert len(rep.units) == 100


def test_forward_pairing_keeps_the_strongly_clean_self_check(monkeypatch):
    from znalg.algebra import FiniteAlgebra
    mul = FiniteAlgebra.mul

    # xy and yx differ unless x = y, so 0 = 1 + 2 in Z3 keeps its clean
    # pair but loses the commuting one
    def skewed(self, x, y):
        z = mul(self, x, y)
        return z if x <= y else self.add(z, self.one())
    A = zn(3)
    monkeypatch.setattr(FiniteAlgebra, "mul", skewed)
    with pytest.raises(SelfCheckFailed, match="strongly clean"):
        decomposition_report(A)
