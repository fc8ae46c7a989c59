"""Poset algebras: assembly, triangular ideal structure, decompositions,
and the transfer biconditionals; plus a simplicial nerve oracle used to
cross-check cohomology dimensions."""

from itertools import combinations

import pytest
from test_classify import enumerated_quotient_by_ideal

from znalg.algebra import FiniteAlgebra, direct_product, triangular_algebra, zn
from znalg.errors import BadShape, PresheafInvalid, StalkNotNilClean
from znalg.hochschild import cohomology_dims, regular_bimodule
from znalg.linal import eliminate_modp
from znalg.poset import (
    Poset,
    PosetAlgebra,
    antichain_presheaf,
    build_shriek,
    chain_presheaf,
    classify_shriek,
    constant_presheaf,
    example_one_presheaf,
    linear_extension,
    poset_sphere,
    poset_square,
    poset_v,
    sphere_presheaf,
    square_presheaf,
    structural_decompose,
    triangular_ideal_facts,
    validate_poset,
    validate_presheaf,
    Presheaf,
)


def nerve_cohomology(P, p, degree):
    """Simplicial cohomology of the poset's nerve over Z_p, via chain counts
    and coboundary ranks; independent of the Hochschild pipeline."""
    nodes = range(P.size)

    def chains(k):
        out = []
        for combo in combinations(nodes, k + 1):
            ordered = sorted(combo)
            if all(P.leq[a][b] for a, b in zip(ordered, ordered[1:])):
                # combinations of distinct comparable nodes; verify totality
                if all(P.leq[ordered[i]][ordered[j]]
                       for i in range(len(ordered))
                       for j in range(i + 1, len(ordered))):
                    out.append(tuple(ordered))
        return out

    def delta_rank(k):
        src = chains(k)
        dst = chains(k + 1)
        if not src or not dst:
            return 0
        index = {s: i for i, s in enumerate(src)}
        rows = [{} for _ in src]
        for j, tau in enumerate(dst):
            for drop in range(len(tau)):
                face = tau[:drop] + tau[drop + 1:]
                if face in index:
                    row = rows[index[face]]
                    row[j] = row.get(j, 0) + (-1) ** drop
        return eliminate_modp(rows, p)[0]

    dim = len(chains(degree))
    return dim - delta_rank(degree) - (delta_rank(degree - 1) if degree else 0)


def test_poset_validation():
    with pytest.raises(BadShape):
        validate_poset(Poset(2, [[True, True], [True, True]]))
    with pytest.raises(BadShape):
        validate_poset(Poset(2, [[True, False], [False, False]]))
    P = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert P.leq[0][2]  # transitive closure


def test_from_covers_checks_its_covers_and_the_constructor_the_size():
    # a cover is checked against the nodes before the constructor sees the
    # size, so with no nodes a cover is named first
    with pytest.raises(BadShape, match=r"^cover \(0, 1\) is not a pair of "
                                       r"nodes 0\.\.-1$"):
        Poset.from_covers(0, [(0, 1)])
    for size in (0, -2):
        with pytest.raises(BadShape, match="^a poset needs at least one "
                                           f"node, got {size}$"):
            Poset.from_covers(size, [])


def test_linear_extension_antichain():
    P = Poset.from_covers(3, [])
    assert linear_extension(P) == [0, 1, 2]


def test_linear_extension_square_matches_block_order():
    P = poset_square()
    assert linear_extension(P) == [0, 1, 2, 3]


def test_linear_extension_reversed_chain():
    P = Poset.from_covers(2, [(1, 0)])
    assert linear_extension(P) == [1, 0]


def test_presheaf_validation_catches_bad_map():
    P = Poset.from_covers(2, [(0, 1)])
    A = zn(2)
    with pytest.raises(PresheafInvalid):
        # map sending 1 to 0 is not unital
        validate_presheaf(Presheaf(P, [A, A], {(0, 1): ((0,),)}))


def test_presheaf_over_a_non_transitive_relation_names_the_open_chain():
    # 0 <= 1 <= 2 without 0 <= 2: the uncertified relation has no arrow
    # for the restriction maps of the chain to compose into, which the
    # presheaf's certificate names instead of failing on the lookup
    P = Poset(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(PresheafInvalid, match=r"no restriction map for "
                       r"0 <= 2 closes the chain 0 <= 1 <= 2"):
        constant_presheaf(P, zn(2))


def test_antichain_shriek_is_direct_product():
    F = antichain_presheaf(3, zn(2))
    PA = build_shriek(F)
    prod = direct_product([zn(2)] * 3)
    assert PA.carrier.table == prod.table
    assert PA.carrier.unit == prod.unit


def test_chain_shriek_is_triangular():
    F = chain_presheaf(2, zn(2))
    PA = build_shriek(F)
    T2 = triangular_algebra(2, 2)
    assert PA.carrier.size == 8
    assert PA.carrier.table == T2.table
    assert PA.carrier.unit == T2.unit


def test_example_one_carrier_shape():
    F = example_one_presheaf()
    PA = build_shriek(F)
    assert PA.carrier.rank == 8
    assert PA.carrier.size == 256
    # blocks: three of rank 2 (root row), two of rank 1 (upper diagonals)
    widths = sorted(w for _, w in PA.offsets.values())
    assert widths == [1, 1, 2, 2, 2]


def test_sphere_carrier_rank():
    F = sphere_presheaf(2)
    PA = build_shriek(F)
    assert PA.carrier.rank == 18  # 6 reflexive + 12 strict pairs


def test_block_triangularity_of_products():
    F = example_one_presheaf()
    PA = build_shriek(F)
    # entry (i, j) of a product is nonzero only when i <= j: products of
    # basis vectors stay inside legal blocks by construction of the table;
    # verify on a sample of random-ish pairs
    import random
    rng = random.Random(5)
    carrier = PA.carrier
    P = F.poset
    for _ in range(50):
        x = tuple(rng.randrange(2) for _ in range(carrier.rank))
        y = tuple(rng.randrange(2) for _ in range(carrier.rank))
        z = carrier.mul(x, y)
        for pair in PA.blocks:
            if any(PA.block(z, pair)):
                assert P.leq[pair[0]][pair[1]]


def test_triangular_ideal_facts_chain():
    F = chain_presheaf(2, zn(2))
    PA = build_shriek(F)
    rep = triangular_ideal_facts(PA)
    assert rep.is_ideal
    assert rep.nilpotency_index == 2
    assert rep.longest_chain == 2
    assert rep.quotient_matches_product
    assert rep.inside_radical


def test_triangular_ideal_facts_antichain():
    F = antichain_presheaf(2, zn(3))
    PA = build_shriek(F)
    rep = triangular_ideal_facts(PA)
    assert rep.is_ideal
    assert rep.nilpotency_index == 1  # zero ideal
    # quotient by the zero ideal is the carrier itself, which equals the
    # product for an antichain
    assert rep.quotient_matches_product


def test_triangular_ideal_facts_example_one():
    F = example_one_presheaf()
    PA = build_shriek(F)
    rep = triangular_ideal_facts(PA)
    assert rep.is_ideal
    assert rep.nilpotency_index == 2
    assert rep.quotient_matches_product
    assert rep.inside_radical


def enumerated_quotient_is_product(PA):
    """Oracle for the table certificate: build the coset algebra A/I by
    enumeration and check on every pair of cosets that diagonal extraction
    is a bijective unital ring map onto the product of the stalks."""
    F = PA.presheaf
    carrier = PA.carrier
    strict_gens = []
    for pair in PA.blocks:
        if pair[0] != pair[1]:
            start, width = PA.offsets[pair]
            strict_gens.extend(carrier.basis(start + k) for k in range(width))
    Q, project, _ = enumerated_quotient_by_ideal(carrier, strict_gens)
    prod = direct_product([F.stalks[i] for i in range(F.poset.size)])
    if Q.size != prod.size:
        return False

    def diag_embed(z):
        coords = []
        for i in range(F.poset.size):
            coords.extend(PA.block(z, (i, i)))
        return tuple(coords)

    image_of = {}
    for z in carrier.elements():
        q = project(z)
        d = diag_embed(z)
        if q in image_of and image_of[q] != d:
            return False            # not well defined on cosets
        image_of[q] = d
    if len(set(image_of.values())) != prod.size:
        return False
    if image_of[Q.one()] != prod.one():
        return False
    for q1 in Q.elements():
        for q2 in Q.elements():
            if image_of[Q.mul(q1, q2)] != prod.mul(image_of[q1], image_of[q2]):
                return False
            if image_of[Q.add(q1, q2)] != prod.add(image_of[q1], image_of[q2]):
                return False
    return True


QUOTIENT_CASES = {
    "chain(2) Z2": lambda: chain_presheaf(2, zn(2)),
    "chain(3) Z2": lambda: chain_presheaf(3, zn(2)),
    "antichain(2) Z3": lambda: antichain_presheaf(2, zn(3)),
    "example-1": example_one_presheaf,
    "square-circle": square_presheaf,
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_certificate_matches_enumeration(name):
    PA = build_shriek(QUOTIENT_CASES[name]())
    assert enumerated_quotient_is_product(PA) is True
    assert triangular_ideal_facts(PA).quotient_matches_product is True


def _corrupted(PA, table=None, unit=None):
    """The same block layout over an unvalidated carrier."""
    c = PA.carrier
    bad = FiniteAlgebra(c.n, c.rank, table or c.table, unit or c.unit,
                        name=c.name)
    return PosetAlgebra(PA.presheaf, bad, PA.blocks, PA.offsets)


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_certificate_refuses_corrupted_carriers(name):
    PA = build_shriek(QUOTIENT_CASES[name]())
    c = PA.carrier
    # one diagonal-block table cell: the square of the first basis element
    # of node 0's diagonal block gains 1 in its own coordinate
    start, _ = PA.offsets[(0, 0)]
    table = [[list(cell) for cell in row] for row in c.table]
    table[start][start][start] += 1
    # the unit's coordinate there gains 1
    unit = list(c.unit)
    unit[start] += 1
    corrupted = [_corrupted(PA, table=table), _corrupted(PA, unit=unit)]
    strict = [pair for pair in PA.blocks if pair[0] != pair[1]]
    if strict:
        # a product with a strict block leaks into a diagonal coordinate, so
        # the strict span is no ideal and the quotient is smaller
        s, _ = PA.offsets[strict[0]]
        leak = [[list(cell) for cell in row] for row in c.table]
        leak[start][s][start] += 1
        corrupted.append(_corrupted(PA, table=leak))
    # cap=1 keeps every enumeration off: the certificate runs regardless
    for bad in corrupted:
        rep = triangular_ideal_facts(bad, cap=1)
        assert rep.quotient_matches_product is False
        assert rep.inside_radical is None


def test_structural_decompose_antichain_componentwise():
    F = antichain_presheaf(2, zn(3))
    PA = build_shriek(F)
    D, R = structural_decompose(PA, (2, 2), mode="clean")
    carrier = PA.carrier
    assert carrier.mul(D, D) == D
    assert carrier.add(D, R) == (2, 2)


def test_structural_decompose_example_one_nil_clean():
    F = example_one_presheaf()
    PA = build_shriek(F)
    z = PA.inject({
        (0, 0): (0, 1),       # x in the dual numbers
        (1, 1): (1,),
        (2, 2): (0,),
        (0, 1): (1, 1),       # arbitrary off-diagonal junk
        (0, 2): (0, 1),
    })
    D, R = structural_decompose(PA, z, mode="nil-clean")
    assert PA.diagonal(D) == {0: (0, 0), 1: (1,), 2: (0,)}
    # remainder has nilpotent diagonal (x, 0, 0) and is nilpotent
    p = R
    carrier = PA.carrier
    for _ in range(8):
        p = carrier.mul(p, R)
    assert not any(p)


def test_structural_decompose_classifies_each_distinct_stalk_once(
        monkeypatch):
    # example-1's two nodes above the root share one Z2 stalk
    import znalg.poset as poset
    classified, report = [], poset.decomposition_report

    def counted(A, *args, **kwargs):
        classified.append(A.name)
        return report(A, *args, **kwargs)
    monkeypatch.setattr(poset, "decomposition_report", counted)
    PA = build_shriek(example_one_presheaf())
    z = PA.inject({(0, 0): (0, 1), (1, 1): (1,), (2, 2): (0,)})
    for mode in ("clean", "nil-clean"):
        classified.clear()
        structural_decompose(PA, z, mode=mode)
        assert classified == ["Z2[X]/(X^2)", "Z2"], mode


def test_structural_decompose_chain_z3_clean():
    F = chain_presheaf(2, zn(3))
    PA = build_shriek(F)
    z = PA.inject({(0, 0): (2,), (1, 1): (2,)})
    D, R = structural_decompose(PA, z, mode="clean")
    assert PA.diagonal(D) == {0: (0,), 1: (0,)}
    # R is invertible in the carrier
    carrier = PA.carrier
    one = carrier.one()
    assert any(carrier.mul(R, y) == one and carrier.mul(y, R) == one
               for y in carrier.elements())


def test_structural_decompose_chain_z2_clean_above_the_cap():
    # 2^21 carrier elements exceed the default cap, but the walk that
    # certifies the triangular part invertible is a few powers long
    PA = build_shriek(chain_presheaf(6, zn(2)))
    carrier = PA.carrier
    assert carrier.size == 2 ** 21
    z = PA.inject({(0, 1): (1,), (1, 3): (1,), (2, 5): (1,)})
    D, R = structural_decompose(PA, z, mode="clean")
    assert D == carrier.one()  # 0 = 1 + 1 on every diagonal entry
    assert carrier.add(D, R) == z
    inverse = carrier.inverse(R)
    assert carrier.mul(R, inverse) == carrier.one() == carrier.mul(inverse, R)


def test_enumerated_facts_switch_on_exactly_at_the_cap():
    PA = build_shriek(example_one_presheaf())
    N = PA.carrier.size
    assert triangular_ideal_facts(PA, cap=N - 1).inside_radical is None
    assert triangular_ideal_facts(PA, cap=N).inside_radical is True
    below = classify_shriek(PA, cap=N - 1)
    assert below.carrier_flags is None
    assert set(below.biconditionals.values()) == {None}
    at = classify_shriek(PA, cap=N)
    assert at.carrier_flags["clean"]
    assert all(at.biconditionals.values())


def test_structural_decompose_rejects_bad_stalk():
    F = chain_presheaf(2, zn(3))  # Z3 is not nil-clean
    PA = build_shriek(F)
    with pytest.raises(StalkNotNilClean):
        structural_decompose(PA, PA.carrier.zero(), mode="nil-clean")


def test_classify_shriek_example_one():
    F = example_one_presheaf()
    PA = build_shriek(F)
    rep = classify_shriek(PA)
    assert rep.carrier_flags["nil_clean"]
    assert rep.carrier_flags["clean"]
    assert rep.carrier_flags["strongly_clean"]
    assert all(rep.biconditionals[k] for k in ("clean", "nil_clean", "exchange"))


def test_classify_shriek_chain_with_z3():
    F = chain_presheaf(2, zn(3))
    PA = build_shriek(F)
    rep = classify_shriek(PA)
    assert rep.carrier_flags["clean"]
    assert not rep.carrier_flags["nil_clean"]  # Z3 stalk fails
    assert all(rep.biconditionals[k] for k in ("clean", "nil_clean", "exchange"))


def test_nerve_oracle_square_is_circle():
    P = poset_square()
    assert nerve_cohomology(P, 2, 0) == 1
    assert nerve_cohomology(P, 2, 1) == 1


def test_nerve_oracle_sphere():
    P = poset_sphere()
    assert nerve_cohomology(P, 2, 0) == 1
    assert nerve_cohomology(P, 2, 1) == 0
    assert nerve_cohomology(P, 2, 2) == 1


def test_square_circle_hochschild_h1_matches_nerve():
    F = square_presheaf(2)
    PA = build_shriek(F)
    A = PA.carrier
    M = regular_bimodule(A)
    dims = cohomology_dims(M, 1)
    assert dims.dim_h == 1 == nerve_cohomology(F.poset, 2, 1)


def test_vee_poset_odd_prime_h1_matches_nerve():
    # the V-shaped poset has a contractible nerve; elimination over an odd
    # prime must agree with the simplicial oracle
    F = constant_presheaf(poset_v(), zn(3))
    PA = build_shriek(F)
    A = PA.carrier
    M = regular_bimodule(A)
    dims = cohomology_dims(M, 1)
    assert dims.dim_h == 0 == nerve_cohomology(F.poset, 3, 1)


def test_sphere_over_odd_primes_h2_matches_nerve():
    for p in (3, 5):
        F = sphere_presheaf(p)
        A = build_shriek(F).carrier
        dims = cohomology_dims(regular_bimodule(A), 2)
        assert (dims.dim_cocycles, dims.dim_coboundaries) == (308, 307)
        assert dims.dim_h == 1 == nerve_cohomology(F.poset, p, 2)


def test_build_shriek_refuses_above_max_carrier_rank():
    from znalg.errors import CapExceeded
    F = chain_presheaf(11, zn(2))  # 66 comparable pairs, each a rank-1 block
    with pytest.raises(CapExceeded):
        build_shriek(F)


def test_example_catalog_builders():
    # each ready-made presheaf builds, certified where it is built
    assert [F.poset.size for F in (sphere_presheaf(), square_presheaf(),
                                   antichain_presheaf(2, zn(2)))] == [6, 4, 2]
    assert build_shriek(example_one_presheaf()).carrier.size == 256
    assert build_shriek(chain_presheaf(1, zn(2))).carrier.table == zn(2).table
