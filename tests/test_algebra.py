"""Structure-table validation, element arithmetic, and constructors."""

import operator
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import znalg.algebra
from znalg.algebra import (
    FiniteAlgebra,
    Multilinear,
    _bilinear,
    _compile_bilinear,
    _compose,
    _coordinate_kernels,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from znalg.documents import Workspace, algebra_to_doc
from znalg.errors import (
    BadShape,
    BadUnit,
    CapExceeded,
    ModulusMismatch,
    NonAssociative,
    ZnAlgError,
)
from znalg.linal import _solve


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
    # (x x) x = x x = x and x (x x) = x: associative, so it validates
    A = validate_algebra(FiniteAlgebra(2, 2, structure, [1, 0]))
    assert A.mul((0, 1), (0, 1)) == (0, 1)


def test_bad_unit_rejected():
    with pytest.raises(BadUnit):
        validate_algebra(FiniteAlgebra(2, 1, [[[0]]], [1]))


def test_non_associative_rejected_with_triple():
    # e1*e1 = e2, e1*e2 = 1, e2*e1 = 0: (e1 e1) e1 = 0 but e1 (e1 e1) = 1
    structure = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(NonAssociative) as err:
        validate_algebra(FiniteAlgebra(2, 3, structure, [1, 0, 0]))
    assert err.value.triple == (1, 1, 1)


def document_algebra(spec):
    """The algebra a one-algebra document defines, read by a Workspace."""
    return Workspace({"algebras": {"A": spec}}).algebra("A")


def test_shape_errors():
    with pytest.raises(BadShape):
        document_algebra({"modulus": 2, "rank": 2, "structure": [[[1]]],
                          "unit": [1, 0]})
    with pytest.raises(BadShape):
        document_algebra({"modulus": 1, "rank": 1, "structure": [[[1]]],
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


def test_solve_matches_brute_force_divisors():
    """t is in xA exactly when _solve finds c with sum c_j x·e_j = t, and
    then x·c = t: c is a factor, though not the lexicographically first."""
    from znalg.catalog import catalog_algebras
    algebras = catalog_algebras() + [matrix_algebra(3, 2),
                                     triangular_algebra(2, 3)]
    for A in algebras:
        assert A.size <= 81
        elems = list(A.elements())
        assert A.idempotents() == [x for x in elems if A.mul(x, x) == x]
        for x in elems:
            rows = [A.mul(x, A.basis(j)) for j in range(A.rank)]
            divisors = _brute_divisors(A, x, set(elems))
            for t in elems:
                c = _solve(rows, t, A.n)
                assert (c is not None) == (t in divisors), (A.name, x, t)
                assert c is None or A.mul(x, c) == t


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
            # a walk within the cap is never refused
            assert A._power_walk(x, cap=A.size)[2] <= A.size


def test_wrong_power_walk_inverse_fails_the_self_check(monkeypatch):
    from znalg.algebra import FiniteAlgebra
    from znalg.errors import SelfCheckFailed
    A = zn(3)
    # pretend 2^1 = 1, so that 2^0 = 1 is taken as the inverse of 2; then
    # 2*1 != 1 must be caught
    monkeypatch.setattr(FiniteAlgebra, "_power_walk",
                        lambda self, x, cap=None: (self.one(), self.one(), 1))
    with pytest.raises(SelfCheckFailed, match="not a right inverse"):
        A.inverse((2,))


def test_short_power_walk_answers_above_the_cap():
    A = zn(2 ** 31 - 1)
    assert A.inverse((2 ** 31 - 2,)) == (2 ** 31 - 2,)
    assert A.nilpotency_index((0,)) == 1


def test_power_walk_refuses_after_cap_powers(monkeypatch):
    import znalg.algebra
    monkeypatch.setattr(znalg.algebra, "DEFAULT_CAP", 50)
    A = zn(101)  # 2 has multiplicative order 100 mod 101
    with pytest.raises(CapExceeded, match="power walk of \\(2,\\): 51 powers"):
        A.nilpotency_index((2,))
    with pytest.raises(CapExceeded):
        A.inverse((2,))
    assert A.inverse((2,), cap=100) == (51,)
    assert A.inverse((100,)) == (100,)


def test_refused_power_walk_keeps_no_set_of_powers():
    import tracemalloc
    A = zn(2 ** 31 - 1)  # 7 is a primitive root mod 2^31 - 1
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="65537 powers exceeds cap"):
            A.nilpotency_index((7,), cap=2 ** 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def dense_certify(alg):
    """The unit laws and associativity by products of dense basis vectors
    on every basis triple: the oracle for the sparse-cell certificate."""
    r, table, mul = alg.rank, alg.table, alg.mul
    basis = [alg.basis(i) for i in range(r)]
    for i, ei in enumerate(basis):
        if mul(alg.unit, ei) != ei or mul(ei, alg.unit) != ei:
            raise BadUnit(f"{alg.name}: unit law fails on basis element {i}")
    for i, ei in enumerate(basis):
        for j in range(r):
            for k, ek in enumerate(basis):
                lhs = mul(table[i][j], ek)
                rhs = mul(ei, table[j][k])
                if lhs != rhs:
                    raise NonAssociative((i, j, k), lhs, rhs)


def outcome(check, *args):
    """"passes", or the class, arguments, message and attributes of the
    error the check raised."""
    try:
        check(*args)
    except ZnAlgError as exc:
        return type(exc), exc.args, str(exc), vars(exc)
    return "passes"


def sheared(A, seed):
    """A in the basis b_i = e_i + sum over j > i of P[i][j] e_j, with every
    entry above the diagonal of P drawn (full shear)."""
    rng = random.Random(seed)
    n, r = A.n, A.rank
    P = [[int(i == j) if j <= i else rng.randrange(n) for j in range(r)]
         for i in range(r)]

    def coords(v):
        # v = sum of c_i P[i], solved by forward substitution
        c = []
        for j in range(r):
            c.append((v[j] - sum(c[i] * P[i][j] for i in range(j))) % n)
        return c

    structure = [[coords(A.mul(P[i], P[j])) for j in range(r)]
                 for i in range(r)]
    return validate_algebra(FiniteAlgebra(n, r, structure, coords(A.unit),
                                          f"{A.name} sheared"))


def corrupt(table, rng, n, free):
    """The table with one entry moved by a nonzero amount; the entry's first
    two indices come from free, so the unit laws may still hold."""
    i, j = rng.choice(free), rng.choice(free)
    k = rng.randrange(len(table[i][j]))
    out = [[list(cell) for cell in row] for row in table]
    out[i][j][k] = (out[i][j][k] + rng.randrange(1, n)) % n
    return out


def sphere_carriers():
    """The sphere poset algebra over Z2 (rank 18) and its extension by the
    coboundary of a seeded 1-cochain (rank 36)."""
    from znalg.catalog import seeded_cochain
    from znalg.extension import build_extension
    from znalg.hochschild import coboundary, regular_bimodule
    from znalg.poset import build_shriek, sphere_presheaf
    S = build_shriek(sphere_presheaf(2)).carrier
    M = regular_bimodule(S)
    return S, build_extension(S, M, coboundary(seeded_cochain(M, 1, 7))).carrier


def test_certificate_matches_dense_triple_loop():
    # same verdict, and on failure the same error with the same first
    # triple, lhs and rhs, as the dense loop, on intact tables and on
    # seeded single-entry corruptions; most corruptions spare the unit's
    # rows and columns, so associativity is what fails
    from znalg.catalog import catalog_algebras
    rng = random.Random(23)
    S, E = sphere_carriers()
    algebras = catalog_algebras() + [
        matrix_algebra(3, 2), triangular_algebra(2, 3),
        sheared(matrix_algebra(3, 2), 1), sheared(triangular_algebra(2, 3), 2),
        sheared(triangular_algebra(4, 2), 3),
        sheared(triangular_algebra(2, 4), 4), S, E]
    seen = set()
    for A in algebras:
        assert outcome(validate_algebra, A) == "passes"
        assert outcome(dense_certify, A) == "passes"
        free = [i for i in range(A.rank) if not A.unit[i]] or [0]
        for trial in range(2 if A.rank > 20 else 8):
            cols = free if trial % 4 else list(range(A.rank))
            B = FiniteAlgebra(A.n, A.rank, corrupt(A.table, rng, A.n, cols),
                              A.unit, A.name)
            got = outcome(validate_algebra, B)
            assert got == outcome(dense_certify, B)
            seen.add(got if got == "passes" else got[0])
    assert {NonAssociative, BadUnit} <= seen


def random_table(rng, rows, cols, width, n, density):
    """A rows x cols table of width-long cells, each entry nonzero with the
    given probability; density 0 is the zero table."""
    return [[[rng.randrange(1, n) if rng.random() < density else 0
              for _ in range(width)] for _ in range(cols)]
            for _ in range(rows)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 6, 9, 257, 2 ** 61 - 1)),
       rows=st.integers(1, 6), cols=st.integers(1, 6),
       width=st.integers(1, 6), density=st.sampled_from((0, 0.15, 0.5, 1)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_kernel_matches_bilinear(n, rows, cols, width, density,
                                          seed):
    # square algebra tables and rectangular action tables (rows != cols),
    # with empty cells, zero tables and dense ones; the arguments include
    # zero vectors and unreduced coordinates, which both kernels must
    # reduce mod n the same way
    rng = random.Random(seed)
    cells = Multilinear(random_table(rng, rows, cols, width, n, density), n,
                        (rows, cols, width)).cells
    product = _compile_bilinear(cells, n, width)
    for trial in range(8):
        low = -3 * n if trial % 4 == 3 else 0
        x = tuple(rng.randrange(low, n) if trial else 0 for _ in range(rows))
        y = tuple(rng.randrange(low, n) for _ in range(cols))
        assert product(x, y) == _bilinear(cells, x, y, n, width)


# The composition kernel's oracle: every basis tuple evaluated through the
# maps' own products, no path walked.
def dense_compose(terms, n):
    """{key: residue != 0} of the signed sum of the terms on every basis
    tuple, keyed in row-major (argument tuple, coordinate) order.  A term
    (sign, outer, i, inner) is outer evaluated on basis vectors with
    inner's value (Multilinear.evaluate) on its own basis vectors
    substituted at argument i."""
    acc = {}
    for sign, outer, i, inner in terms:
        *ranges, width = outer.shape
        q = len(inner.shape) - 1
        shape = (*ranges[:i], *inner.shape[:-1], *ranges[i + 1:])
        for idx, T in enumerate(product(*map(range, shape))):
            args = [tuple(int(a == b) for b in range(size))
                    for size, a in zip(shape, T)]
            value = inner.evaluate(*args[i:i + q])
            out = outer.evaluate(*args[:i], value, *args[i + q:])
            for t, v in enumerate(out):
                acc[idx * width + t] = acc.get(idx * width + t, 0) + sign * v
    return {key: v % n for key, v in acc.items() if v % n}


def random_terms(rng, positions, inner_arity, dims, n, density):
    """Signed terms over fresh random maps, one per position i of outer,
    all composing to the argument ranges dims and the width W = dims[-1]:
    inner takes the inner_arity ranges from position i on and outer the
    rest, and the range of the argument inner fills (U) is drawn per term,
    so no two maps need be square."""
    *ranges, W = dims
    terms = []
    for i in positions:
        U = rng.randint(0, 5)
        inner = (*ranges[i:i + inner_arity], U)
        outer = (*ranges[:i], U, *ranges[i + inner_arity:], W)
        inner = Multilinear(random_nested(rng, inner, n, density), n, inner)
        outer = Multilinear(random_nested(rng, outer, n, density), n, outer)
        terms.append((rng.choice((1, -1)), outer, i, inner))
    return terms


@st.composite
def circle_products(draw):
    """(outer arity, inner arity, the position i of each term): outer of
    arity 1 to 3, the arities with an argument to fill, inner of arity 0
    to 3, and one to four positions among outer's arguments."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return p, q, draw(st.lists(st.integers(0, p - 1), min_size=1,
                               max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 6, 9, 257)),
       density=st.sampled_from((0, 0.15, 0.5, 1)),
       law=st.sampled_from(("associativity", "bimodule", "cocycle",
                            "rectangular", "arities")),
       r=st.integers(1, 5), more=st.integers(1, 3),
       arities=circle_products(), seed=st.integers(0, 2 ** 32 - 1))
def test_triple_kernel_matches_the_dense_oracle(n, density, law, r, more,
                                                arities, seed):
    # the composition kernel returns the dense oracle's dict: on the 2-term
    # associativity of a square table, the three bimodule laws and the
    # 4-term cocycle identity over an algebra of rank r and a module of
    # rank s > r, on 2- and 4-term mixes of both positions of bilinear
    # maps whose argument ranges and width all differ, and on sums of
    # circle products of every arity 1 to 3 of outer, 0 to 3 of inner and
    # every position i
    rng = random.Random(seed)
    s = r + more

    def table(*shape):
        return Multilinear(random_nested(rng, shape, n, density), n, shape)
    T = table(r, r, r)
    L, R, F = table(r, s, s), table(s, r, s), table(r, r, s)
    if law == "associativity":
        cases = [[(1, T, 0, T), (-1, T, 1, T)]]
    elif law == "bimodule":
        cases = [[(1, L, 0, T), (-1, L, 1, L)],
                 [(1, R, 1, T), (-1, R, 0, R)],
                 [(1, R, 0, L), (-1, L, 1, R)]]
    elif law == "cocycle":
        cases = [[(1, L, 1, F), (-1, F, 0, T), (1, F, 1, T), (-1, R, 0, F)]]
    elif law == "rectangular":
        positions = [rng.randrange(2) for _ in range(2 if more == 1 else 4)]
        cases = [random_terms(rng, positions, 2, rng.sample(range(1, 7), 4),
                              n, density)]
    else:
        p, q, positions = arities
        dims = [rng.randint(1, 3) for _ in range(p - 1 + q)]
        cases = [random_terms(rng, positions, q, dims + [rng.randint(0, 3)],
                              n, density)]
    for terms in cases:
        got = _compose(terms, n)
        assert got == dense_compose(terms, n)
        assert all(0 < v < n for v in got.values())
        if density == 0:
            assert got == {}


def test_triple_kernel_cancels_sums_that_are_multiples_of_n():
    # on (e0 e0) e0 the two terms sum to 4 and 5 over the integers: over
    # Z4 the first coordinate cancels and the second is 1, over Z5 the
    # other way round, and over Z2 only the first is left
    def terms(n, second=1):
        inner = Multilinear([[[1]]], n, (1, 1, 1))
        return [(1, Multilinear([[[3, 2]]], n, (1, 1, 2)), 0, inner),
                (second, Multilinear([[[1, 3]]], n, (1, 1, 2)), 1, inner)]
    assert dense_compose(terms(10 ** 9), 10 ** 9) == {0: 4, 1: 5}
    for n, want in ((4, {1: 1}), (5, {0: 4}), (2, {1: 1})):
        assert _compose(terms(n), n) == want
        assert dense_compose(terms(n), n) == want
    # with the second term taken -3 times the sums are 3 - 3 and 2 - 9:
    # the first cancels over the integers, the second only mod 7
    assert dense_compose(terms(10 ** 9, -3), 10 ** 9) == {1: 10 ** 9 - 7}
    assert _compose(terms(7, -3), 7) == dense_compose(terms(7, -3), 7) == {}


def recursive_sparse_cells(table, depth):
    """The sparse cells as defined before empty cells were skipped:
    the table with every cell below depth levels of nesting replaced by
    the tuple of its (k, v) pairs with v != 0, in coordinate order; depth 0
    sparsifies a single vector."""
    if depth == 0:
        return tuple((k, v) for k, v in enumerate(table) if v)
    return tuple(recursive_sparse_cells(sub, depth - 1) for sub in table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 257)),
       density=st.sampled_from((0, 0.15, 0.5, 1)),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 5),
                       st.integers(1, 5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_cells_skip_empty_cells_as_the_recursion_does(
        n, density, shape, seed):
    # one cell of every table is all zero, and density 0 empties them all
    rng = random.Random(seed)
    rows, cols, width = shape
    table = random_table(rng, rows, cols, width, n, density)
    table[rng.randrange(rows)][rng.randrange(cols)] = [0] * width
    for depth, sub in ((2, table), (1, table[-1]), (0, table[-1][-1])):
        assert Multilinear(sub, n, shape[2 - depth:]).cells == \
            recursive_sparse_cells(sub, depth)
    if density == 0:
        assert Multilinear(table, n, shape).cells == (((),) * cols,) * rows


def random_nested(rng, shape, n, density):
    """A table of the given shape, its index ranges then its width, as
    nested lists; an entry is nonzero with the given probability and lies
    in -n..2n-1, so some nonzero entries vanish mod n."""
    if len(shape) == 1:
        return [rng.randrange(-n, 2 * n) if rng.random() < density else 0
                for _ in range(shape[0])]
    return [random_nested(rng, shape[1:], n, density)
            for _ in range(shape[0])]


def reduced(table, n):
    """The table as nested tuples with every entry reduced mod n."""
    if isinstance(table, int):
        return table % n
    return tuple(reduced(sub, n) for sub in table)


def row_major(table):
    if isinstance(table, int):
        return [table]
    return [v for sub in table for v in row_major(sub)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 6, 9, 257)),
       density=st.sampled_from((0, 0.15, 0.5, 1)),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_multilinear_map_matches_its_dense_table(n, density, shape, seed):
    # depths 0 to 3 over index ranges that differ from each other and from
    # the width, as the two sides of a bimodule with r != s do
    rng = random.Random(seed)
    depth, width = len(shape) - 1, shape[-1]
    table = random_nested(rng, shape, n, density)
    dense = reduced(table, n)
    f = Multilinear(table, n, shape)
    assert (f.n, f.shape, f.width) == (n, tuple(shape), width)
    assert f.dense == dense
    assert f.cells == recursive_sparse_cells(dense, depth)
    assert f.flat == tuple(row_major(dense))
    assert f.nnz == sum(1 for v in row_major(dense) if v)
    g = Multilinear.from_flat(f.flat, n, shape)
    assert (g.dense, g.cells, g.width) == (f.dense, f.cells, f.width)
    assert (g.n, g.shape, g.flat, g.nnz) == (f.n, f.shape, f.flat, f.nnz)
    # the sparse constructor, from the table's nonzero entries, unreduced
    h = Multilinear.from_entries(
        {k: v for k, v in enumerate(row_major(table)) if v}, n, shape)
    assert (h.dense, h.cells, h.width) == (f.dense, f.cells, f.width)
    assert (h.n, h.shape, h.flat, h.nnz) == (f.n, f.shape, f.flat, f.nnz)
    # a flat vector one entry long or short, or with a non-int entry, is
    # refused rather than cut into a ragged table
    for vec in (f.flat + (0,), f.flat[1:], (0.0,) + f.flat[1:]):
        with pytest.raises(BadShape):
            Multilinear.from_flat(vec, n, shape)
    for _ in range(3):
        args = [tuple(rng.randrange(-n, 2 * n) for _ in range(size))
                for size in shape[:-1]]
        want = [0] * width
        for index in product(*map(range, shape[:-1])):
            c = 1
            for x, i in zip(args, index):
                c *= x[i]
            cell = dense
            for i in index:
                cell = cell[i]
            want = [w + c * v for w, v in zip(want, cell)]
        assert f.evaluate(*args) == tuple(w % n for w in want)
        if depth == 2:
            assert f.product(*args) == _bilinear(f.cells, *args, n, width)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       bad=st.sampled_from((1.0, 2.5, True, False, "1", None, 7, "ab",
                            {0: 1})),
       seed=st.integers(0, 2 ** 32 - 1))
def test_multilinear_refuses_what_is_not_an_int_table(shape, bad, seed):
    # one entry or one array at any level is replaced: a float, a bool, a
    # string or None as an entry, and any of those, an int or a dict as a
    # level, is refused with BadShape and never escapes as a TypeError
    rng = random.Random(seed)
    table = random_nested(rng, shape, 5, 0.5)
    level = rng.randrange(len(shape) + 1)
    if level == 0:
        table = bad
    else:
        node = table
        for _ in range(level - 1):
            node = node[rng.randrange(len(node))]
        node[rng.randrange(len(node))] = bad
    if level == len(shape) and type(bad) is int:
        return  # an int entry is well formed
    with pytest.raises(BadShape):
        Multilinear(table, 5, shape)


def test_kernel_of_a_rank_100_table_with_dense_rows_compiles():
    # every cell of every row is nonempty and coordinate 0 sums all 10^4
    # cells: as one flat chain of terms it would nest deeper than CPython's
    # compiler allows, grouped by x coordinate it is 100 groups of 100
    r, n = 100, 5
    table = [[[1 if k in (0, (i + j) % r) else 0 for k in range(r)]
              for j in range(r)] for i in range(r)]
    cells = Multilinear(table, n, (r, r, r)).cells
    product = _compile_bilinear(cells, n, r)
    rng = random.Random(100)
    for _ in range(3):
        x = tuple(rng.randrange(n) for _ in range(r))
        y = tuple(rng.randrange(n) for _ in range(r))
        assert product(x, y) == _bilinear(cells, x, y, n, r)


@pytest.mark.parametrize("entry", [1.0, 2.5, True, False])
def test_non_int_entries_are_refused_before_any_kernel(monkeypatch, entry):
    from znalg.hochschild import Bimodule

    def compiled(*args):
        raise AssertionError("a kernel was generated")
    monkeypatch.setattr(znalg.algebra, "_compile_bilinear", compiled)
    with pytest.raises(BadShape):
        FiniteAlgebra(2, 1, [[[entry]]], [1])
    with pytest.raises(BadShape):
        Bimodule(zn(2), 1, [[[entry]]], [[[1]]])
    with pytest.raises(BadShape):
        _compile_bilinear(((((0, entry),),),), 2, 1)


# The coordinate kernels' oracle: the comprehensions they replaced.
def oracle_coordinates(n):
    return {
        "add": lambda x, y: tuple([c % n for c in map(operator.add, x, y)]),
        "sub": lambda x, y: tuple([c % n for c in map(operator.sub, x, y)]),
        "neg": lambda x: tuple([-c % n for c in x]),
        "smul": lambda c, x: tuple((c % n * a) % n for a in x),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 6, 9, 2 ** 31 - 1)),
       rank=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_coordinate_kernels_match_the_comprehensions(n, rank, seed):
    # unreduced and negative coordinates and scalars, as the callers pass
    # them, must come out reduced exactly as the comprehensions reduce them
    rng = random.Random(seed)
    add, sub, neg, smul = _coordinate_kernels(n, rank)
    oracle = oracle_coordinates(n)
    for trial in range(6):
        low = -3 * n if trial % 2 else 0
        x, y = (tuple(rng.randrange(low, 3 * n) for _ in range(rank))
                for _ in range(2))
        c = rng.randrange(-3 * n, 3 * n)
        assert add(x, y) == oracle["add"](x, y)
        assert sub(x, y) == oracle["sub"](x, y)
        assert neg(x) == oracle["neg"](x)
        assert smul(c, x) == oracle["smul"](c, x)
        # lists are unpacked like tuples, and results are always tuples
        assert add(list(x), list(y)) == add(x, y)
    assert (add, sub, neg, smul) == _coordinate_kernels(n, rank)


def test_module_methods_run_the_shared_kernels(monkeypatch):
    from znalg.hochschild import regular_bimodule
    A = zn_poly_x2(6)
    M = regular_bimodule(A)
    assert (A._add, A._sub, A._neg, A._smul) == _coordinate_kernels(6, 2)
    assert (M._add, M._neg) == (A._add, A._neg)
    # the methods stay on the class, so a class-level patch sees each call
    calls = []
    add = FiniteAlgebra.add
    monkeypatch.setattr(FiniteAlgebra, "add",
                        lambda self, x, y: calls.append(x) or add(self, x, y))
    assert A.add((5, 5), (2, -1)) == (1, 4) and calls == [(5, 5)]


@pytest.mark.parametrize("rank, wrong", [(0, (1,)), (1, ()), (1, (1, 1)),
                                         (3, (1, 1)), (3, (1, 1, 1, 1))])
def test_coordinate_kernels_refuse_the_wrong_length(rank, wrong):
    # the comprehensions' map stopped at the shorter argument
    add, sub, neg, smul = _coordinate_kernels(5, rank)
    x = (1,) * rank
    for call in (lambda: add(x, wrong), lambda: add(wrong, x),
                 lambda: sub(wrong, x), lambda: neg(wrong),
                 lambda: smul(2, wrong)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("n, rank", [(2.0, 3), (2, 3.0), (True, 3), (2, True),
                                     ("2", 3), (2, None)])
def test_coordinate_kernels_refuse_non_int_shapes_before_any_source(
        monkeypatch, n, rank):
    # the kernels' one caller, the module constructor, refuses a modulus
    # or rank that is not an int before a kernel is looked up, so (2.0, 3)
    # never finds the memoized kernels of (2, 3)
    from znalg.hochschild import Bimodule

    def compiled(*args):
        raise AssertionError("kernel source was written")
    _coordinate_kernels(2, 3)
    Z2 = zn(2)
    monkeypatch.setattr(znalg.algebra, "_coordinate_kernels", compiled)
    with pytest.raises(BadShape, match="must be an integer, got"):
        FiniteAlgebra(n, rank, [[[0] * 3] * 3] * 3, [1, 0, 0])
    if type(n) is int:
        with pytest.raises(BadShape, match="^bimodule rank must be an "
                                           "integer, got"):
            Bimodule(Z2, rank, [[[0] * 3] * 3], [[[0] * 3]] * 3)


def test_regular_bimodule_reuses_the_algebra_kernel(monkeypatch):
    # both sides of the regular bimodule are A.mult itself, so lact and
    # ract run A's kernel; for a certified algebra, building it compiles
    # nothing and composes nothing.  The same table in an algebra that was
    # never certified is composed once per bimodule law
    import znalg.hochschild
    from znalg.hochschild import regular_bimodule
    A = triangular_algebra(2, 3)
    kernel = A.mult.product
    built, walks = [], []
    walk = znalg.hochschild._compose
    monkeypatch.setattr(znalg.algebra, "_compile_bilinear",
                        lambda *args: built.append(args))
    monkeypatch.setattr(znalg.hochschild, "_compose",
                        lambda *args: walks.append(args) or walk(*args))
    M = regular_bimodule(A)
    assert M.left_map is A.mult and M.right_map is A.mult
    x, m = (1, 1, 0, 1, 0, 1), (0, 1, 1, 0, 1, 1)
    assert M.lact(x, m) == A.mul(x, m) and M.ract(m, x) == A.mul(m, x)
    assert M.left_map.product is kernel and M.right_map.product is kernel
    assert not built and not walks
    B = FiniteAlgebra(A.n, A.rank, A.mult, A.unit, "never certified")
    assert B.mult is A.mult
    assert regular_bimodule(B).left_map is A.mult
    assert len(walks) == 3 and not built


def test_validating_an_algebra_builds_no_kernel(monkeypatch):
    # the certificates read the cells, so a table that is certified and
    # never multiplied, such as a cohomology carrier, is never compiled
    from znalg.catalog import catalog_algebras
    from znalg.hochschild import regular_bimodule
    docs = [algebra_to_doc(A) for A in catalog_algebras()
            + [matrix_algebra(3, 2), *sphere_carriers()]]

    def compiled(*args):
        raise AssertionError("a kernel was generated")
    monkeypatch.setattr(znalg.algebra, "_compile_bilinear", compiled)
    for doc in docs:
        A = document_algebra(doc)
        M = regular_bimodule(A)
        assert not any("product" in vars(f)
                       for f in (A.mult, M.left_map, M.right_map))
