"""Coboundary formula, cocycle identities, and cohomology dimensions.

The small expected dimensions below are frozen from hand computations done
directly from the definitions (the cochain spaces involved have dimension at
most a few dozen, so ranks can be found on paper)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from znalg.algebra import direct_product, zn, zn_poly_x2
from znalg.errors import (
    ActionNotAssociative,
    NonPrimeModulus,
    UnitActsBadly,
)
from znalg.hochschild import (
    Cochain,
    coboundary,
    cochain_from_table,
    cochain_to_vec,
    cohomology_dims,
    delta_matrix,
    is_coboundary2,
    is_cocycle2,
    nontrivial_cocycle2,
    regular_bimodule,
    validate_bimodule,
    vec_to_cochain,
    zero_cochain,
)


def twisted_projection_module(P):
    # P = Z2 x Z2 acting on Z2 through the first coordinate on the left and
    # the second on the right
    left = [[[1]], [[0]]]
    right = [[[0], [1]]]
    return validate_bimodule(
        {"rank": 1, "left_action": left, "right_action": right},
        algebra=P, name="projection twist")


def random_cochain(M, degree, seed):
    rng = random.Random(seed)
    r = M.algebra.rank

    def build(depth):
        if depth == 0:
            return tuple(rng.randrange(M.n) for _ in range(M.rank))
        return tuple(build(depth - 1) for _ in range(r))

    return Cochain(degree, M, build(degree))


def test_regular_bimodule_valid_everywhere():
    for A in (zn(2), zn(5), zn_poly_x2(3), direct_product([zn(2), zn(2)])):
        M = regular_bimodule(A)
        assert M.rank == A.rank


def test_twisted_projection_module_valid():
    P = direct_product([zn(2), zn(2)])
    M = twisted_projection_module(P)
    e = (1, 0)
    assert M.lact(e, (1,)) == (1,)
    assert M.ract((1,), e) == (0,)


def test_unit_acts_badly_detected():
    A = zn(2)
    with pytest.raises(UnitActsBadly):
        validate_bimodule({"rank": 1, "left_action": [[[0]]],
                           "right_action": [[[1]]]}, algebra=A)


def test_action_not_associative_detected():
    # left action of x on Z2 as if x were 1: (x*x)m = 0 but x(xm) = m
    A = zn_poly_x2(2)
    with pytest.raises((ActionNotAssociative, UnitActsBadly)):
        validate_bimodule({"rank": 1,
                           "left_action": [[[1]], [[1]]],
                           "right_action": [[[1], [0]]]}, algebra=A)


def test_delta_of_delta_is_zero_exhaustively():
    for A in (zn(2), zn(3), zn_poly_x2(2)):
        M = regular_bimodule(A)
        for degree in (0, 1, 2):
            for seed in range(3):
                g = random_cochain(M, degree, seed)
                dd = coboundary(coboundary(g))
                assert dd.is_zero()


def test_degree0_coboundary_on_symmetric_module():
    # over a commutative algebra acting on itself, am = ma
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    m = Cochain(0, M, (1, 1))
    assert coboundary(m).is_zero()


def test_identity_map_coboundary_table():
    # g(x) = x on Z2[X]/(X^2): dg(a,b) = a g(b) - g(ab) + g(a) b = ab
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    g = cochain_from_table(M, 1, [[1, 0], [0, 1]])
    dg = coboundary(g)
    for i in range(2):
        for j in range(2):
            a, b = A.basis(i), A.basis(j)
            expect = A.sub(A.add(A.mul(a, g.evaluate(b)),
                                 A.mul(g.evaluate(a), b)),
                           g.evaluate(A.mul(a, b)))
            assert dg.evaluate(a, b) == expect


def test_multiplication_cochain_is_cocycle():
    for A in (zn(2), zn(3), zn_poly_x2(2)):
        M = regular_bimodule(A)
        f = Cochain(2, M, A.table)
        ok, violations = is_cocycle2(f)
        assert ok and not violations


def test_coboundaries_are_cocycles():
    for A in (zn(3), zn_poly_x2(2)):
        M = regular_bimodule(A)
        for seed in range(5):
            g = random_cochain(M, 1, seed)
            ok, _ = is_cocycle2(coboundary(g))
            assert ok


def test_random_table_verdict_mechanical():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    hit_false = False
    for seed in range(10):
        f = random_cochain(M, 2, seed)
        ok, violations = is_cocycle2(f)
        if not ok:
            hit_false = True
            (i, j, k), value = violations[0]
            # re-evaluate the defect independently
            a, b, c = A.basis(i), A.basis(j), A.basis(k)
            defect = M.sub(M.add(M.sub(M.lact(a, f.evaluate(b, c)),
                                       f.evaluate(A.mul(a, b), c)),
                                 f.evaluate(a, A.mul(b, c))),
                           M.ract(f.evaluate(a, b), c))
            assert defect == value and any(defect)
    assert hit_false


def test_is_coboundary_roundtrip():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    for seed in range(5):
        g = random_cochain(M, 1, seed)
        f = coboundary(g)
        g2 = is_coboundary2(f)
        assert g2 is not None
        assert cochain_to_vec(coboundary(g2)) == cochain_to_vec(f)


def test_zero_cochain_is_coboundary():
    A = zn(3)
    M = regular_bimodule(A)
    g = is_coboundary2(zero_cochain(M, 2))
    assert g is not None
    assert coboundary(g).is_zero()


def test_coboundary_needs_prime_modulus():
    A = zn(4)
    M = regular_bimodule(A)
    with pytest.raises(NonPrimeModulus):
        is_coboundary2(zero_cochain(M, 2))


def test_nontrivial_cocycle_needs_prime_modulus():
    # Z4[X]/(X^2) is refused before any elimination mod 4 is attempted
    A = zn_poly_x2(4)
    with pytest.raises(NonPrimeModulus):
        nontrivial_cocycle2(A, regular_bimodule(A))


def test_delta_matrix_matches_dense_coboundary():
    for A in (zn(3), zn_poly_x2(2)):
        M = regular_bimodule(A)
        p = A.n
        for degree in (0, 1, 2, 3):
            rows, src, dst = delta_matrix(M, degree)
            for seed in range(3):
                g = random_cochain(M, degree, seed)
                vec = cochain_to_vec(g)
                out = [0] * dst
                for pos_src, coeff in enumerate(vec):
                    if coeff:
                        for pos, c in rows[pos_src].items():
                            out[pos] = (out[pos] + coeff * c) % p
                assert tuple(out) == cochain_to_vec(coboundary(g))


def test_vec_cochain_roundtrip():
    A = zn_poly_x2(3)
    M = regular_bimodule(A)
    for degree in (0, 1, 2):
        g = random_cochain(M, degree, degree)
        assert vec_to_cochain(M, degree, list(cochain_to_vec(g))) == g


def test_h2_of_z2_is_zero():
    # rank-1 case: C^1 and C^2 are 1-dimensional, d1 has rank 1, d2 = 0
    A = zn(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(A, M, 2)
    assert dims.dim_cocycles == 1
    assert dims.dim_coboundaries == 1
    assert dims.dim_h == 0


def test_h1_h2_of_z3():
    A = zn(3)
    M = regular_bimodule(A)
    assert cohomology_dims(A, M, 1).dim_h == 0
    assert cohomology_dims(A, M, 2).dim_h == 0


def test_cohomology_dims_accounting():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(A, M, 2)
    assert dims.dim_h == dims.dim_cocycles - dims.dim_coboundaries
    assert dims.dim_h >= 0


def test_nontrivial_cocycle_consistent_with_dims():
    # Z2[X]/(X^2) self-extensions: dim H^2 is nonzero (x^2 = t deforms it),
    # and the returned representative must fail the coboundary test
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(A, M, 2)
    f = nontrivial_cocycle2(A, M)
    if dims.dim_h == 0:
        assert f is None
    else:
        assert f is not None
        assert is_coboundary2(f) is None


def test_membership_consistent_with_dims_when_h2_vanishes():
    # every cocycle must solve the coboundary equation when dim H^2 = 0
    from znalg.hochschild import cocycle_space
    A = zn(3)
    M = regular_bimodule(A)
    assert cohomology_dims(A, M, 2).dim_h == 0
    for f in cocycle_space(A, M, 2):
        assert is_coboundary2(f) is not None


def test_sphere_carrier_has_non_coboundary_cocycle():
    # the assembled sphere-poset algebra carries a degree-2 class that no
    # degree-1 cochain bounds
    from znalg.poset import build_shriek, sphere_presheaf
    A = build_shriek(sphere_presheaf(2)).carrier
    M = regular_bimodule(A)
    f = nontrivial_cocycle2(A, M)
    assert f is not None
    ok, _ = is_cocycle2(f)
    assert ok
    assert is_coboundary2(f) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_every_coboundary_passes_cocycle_check(seed):
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    g = random_cochain(M, 1, seed)
    ok, _ = is_cocycle2(coboundary(g))
    assert ok
