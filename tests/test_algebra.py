"""Structure-table validation, element arithmetic, and constructors."""

import pytest
from hypothesis import given, strategies as st

from znalg.algebra import (
    direct_product,
    matrix_algebra,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from znalg.errors import BadShape, BadUnit, ModulusMismatch, NonAssociative


def test_zn_poly_x2_is_valid():
    A = zn_poly_x2(2)
    assert A.rank == 2 and A.n == 2
    x = (0, 1)
    assert A.mul(x, x) == (0, 0)
    assert A.mul(A.one(), x) == x


def test_checker_decides_modified_table():
    # same shape as Z2[X]/(X^2) but with x*x = x: the checker decides
    structure = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 1]],
    ]
    spec = {"modulus": 2, "rank": 2, "structure": structure, "unit": [1, 0]}
    # (x x) x = x x = x and x (x x) = x: associative, so it validates
    A = validate_algebra(spec)
    assert A.mul((0, 1), (0, 1)) == (0, 1)


def test_bad_unit_rejected():
    spec = {"modulus": 2, "rank": 1, "structure": [[[0]]], "unit": [1]}
    with pytest.raises(BadUnit):
        validate_algebra(spec)


def test_non_associative_rejected_with_triple():
    # e1*e1 = e2, e1*e2 = 1, e2*e1 = 0: (e1 e1) e1 = 0 but e1 (e1 e1) = 1
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    spec = {"modulus": 2, "rank": 3, "structure": structure, "unit": [1, 0, 0]}
    with pytest.raises(NonAssociative) as err:
        validate_algebra(spec)
    assert err.value.triple == (1, 1, 1)


def test_shape_errors():
    with pytest.raises(BadShape):
        validate_algebra({"modulus": 2, "rank": 2, "structure": [[[1]]],
                          "unit": [1, 0]})
    with pytest.raises(BadShape):
        validate_algebra({"modulus": 1, "rank": 1, "structure": [[[1]]],
                          "unit": [1]})


def test_matrix_algebra_units():
    M2 = matrix_algebra(2, 2)
    assert M2.rank == 4
    e01 = (0, 1, 0, 0)
    e10 = (0, 0, 1, 0)
    assert M2.mul(e01, e10) == (1, 0, 0, 0)   # e01*e10 = e00
    assert M2.mul(e10, e01) == (0, 0, 0, 1)   # e10*e01 = e11
    assert M2.mul(e01, e01) == (0, 0, 0, 0)


def test_triangular_algebra():
    T2 = triangular_algebra(2, 2)
    assert T2.rank == 3
    # basis order (0,0), (0,1), (1,1)
    e00, e01, e11 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert T2.mul(e00, e01) == e01
    assert T2.mul(e01, e11) == e01
    assert T2.mul(e01, e00) == (0, 0, 0)
    assert T2.one() == (1, 0, 1)


def test_direct_product_blocks():
    P = direct_product([zn(2), zn(2)])
    assert P.rank == 2
    assert P.mul((1, 0), (0, 1)) == (0, 0)
    assert P.one() == (1, 1)
    # single factor passes through unchanged
    A = zn(3)
    assert direct_product([A]) is A


def test_direct_product_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        direct_product([zn(2), zn(3)])


@given(st.integers(2, 6), st.data())
def test_full_associativity_and_unit_on_random_triples(n, data):
    # basis-triple certification extends bilinearly to all elements
    A = zn_poly_x2(n)
    elem = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    x = data.draw(elem)
    y = data.draw(elem)
    z = data.draw(elem)
    assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))
    assert A.mul(A.one(), x) == x
    assert A.mul(x, A.one()) == x


@given(st.data())
def test_triangular_random_associativity(data):
    A = triangular_algebra(4, 2)
    elem = st.tuples(*[st.integers(0, 3)] * 3)
    x, y, z = (data.draw(elem) for _ in range(3))
    assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


def _brute_divisors(A, x, targets):
    found = {}
    for y in A.elements():
        t = A.mul(x, y)
        if t in targets:
            found.setdefault(t, y)
    return found


def test_one_sided_divisors_match_brute_force():
    from znalg.catalog import catalog_algebras
    algebras = catalog_algebras() + [matrix_algebra(3, 2),
                                     triangular_algebra(2, 3)]
    for A in algebras:
        assert A.size <= 81
        elems = list(A.elements())
        assert A.idempotents() == [x for x in elems if A.mul(x, x) == x]
        # all elements (most lie outside a non-unit's ideal) and every
        # other element, so the scan also stops early on a partial target set
        for targets in (elems, elems[::2]):
            for x in elems:
                assert A.right_divisors(x, targets) == _brute_divisors(
                    A, x, set(targets))


def _brute_inverse(A, x):
    one = A.one()
    for y in A.elements():
        if A.mul(x, y) == one == A.mul(y, x):
            return y
    return None


def _brute_nilpotency_index(A, x):
    p = x
    for k in range(1, A.size + 1):
        if not any(p):
            return k
        p = A.mul(p, x)
    return None


def test_power_walk_matches_brute_force():
    from znalg.catalog import catalog_algebras
    # units of Z97 have multiplicative orders up to 96
    algebras = catalog_algebras() + [
        matrix_algebra(3, 2), triangular_algebra(2, 3),
        triangular_algebra(4, 2), zn_poly_x2(16), zn(97)]
    for A in algebras:
        assert A.size <= 256
        for x in A.elements():
            assert A.inverse(x) == _brute_inverse(A, x)
            assert A.nilpotency_index(x) == _brute_nilpotency_index(A, x)


def test_wrong_power_walk_inverse_fails_the_self_check(monkeypatch):
    from znalg.algebra import FiniteAlgebra
    from znalg.errors import SelfCheckFailed
    A = zn(3)
    # pretend 2^1 = 1, so that 2^0 = 1 is taken as the inverse of 2; then
    # 2*1 != 1 must be caught
    monkeypatch.setattr(FiniteAlgebra, "_power_walk",
                        lambda self, x: (self.one(), self.one(), 1))
    with pytest.raises(SelfCheckFailed, match="not a right inverse"):
        A.inverse((2,))
