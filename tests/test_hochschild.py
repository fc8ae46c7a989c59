"""Coboundary formula, cocycle identities, and cohomology dimensions.

The small expected dimensions below are frozen from hand computations done
directly from the definitions (the cochain spaces involved have dimension at
most a few dozen, so ranks can be found on paper)."""

import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_algebra import outcome

from znalg import linal
from znalg.algebra import (
    FiniteAlgebra,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    zn,
    zn_poly_x2,
)
from znalg.deformation import gauge_deformation, seeded_gauge_map
from znalg.errors import (
    ActionNotAssociative,
    BadShape,
    LinAlgCapExceeded,
    NonPrimeModulus,
    UnitActsBadly,
)
from znalg.hochschild import (
    Bimodule,
    _coboundary_entries,
    Cochain,
    coboundary,
    cocycle_space,
    cohomology_dims,
    delta_matrix,
    is_cocycle2,
    regular_bimodule,
    solve_coboundary,
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
        Bimodule(P, 1, left, right, name="projection twist"))


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


def brute_force(table, args, n):
    """A nested table evaluated on args by summing over every index tuple."""
    acc = None
    for idx in product(*(range(len(a)) for a in args)):
        cell, c = table, 1
        for a, i in zip(args, idx):
            cell, c = cell[i], c * a[i]
        acc = [c * v + (acc[k] if acc else 0) for k, v in enumerate(cell)]
    return tuple(v % n for v in acc)


def test_table_kernels_match_brute_force():
    # every product and action the package evaluates from a table, on
    # non-basis and zero arguments, including a module of rank s != r and
    # two carriers whose cells are mostly empty: the sphere poset algebra
    # (rank 18) and an extension of T3(Z2) by itself (rank 12)
    from znalg.extension import build_extension
    from znalg.poset import build_shriek, sphere_presheaf
    rng = random.Random(17)
    T = triangular_algebra(4, 2)
    P = direct_product([zn(2), zn(2)])
    G = triangular_algebra(3, 2)
    S = build_shriek(sphere_presheaf(2)).carrier
    T3 = triangular_algebra(2, 3)
    R3 = regular_bimodule(T3)
    E = build_extension(T3, R3, coboundary(random_cochain(R3, 1, 3))).carrier
    cases = [(zn_poly_x2(3), regular_bimodule(zn_poly_x2(3))),
             (T, regular_bimodule(T)),
             (P, twisted_projection_module(P)),
             (S, regular_bimodule(S)),
             (E, regular_bimodule(E))]
    for A, M in cases:
        n = A.n
        r = A.rank

        def samples(rank):
            return [(0,) * rank] + [tuple(rng.randrange(n) for _ in range(rank))
                                    for _ in range(3)]

        xs, ms = samples(A.rank), samples(M.rank)
        basis = [A.basis(i) for i in rng.sample(range(r), min(r, 3))]
        for x, y in product(xs + basis, repeat=2):
            assert A.mul(x, y) == brute_force(A.table, (x, y), n)
        for a, m in product(xs, ms):
            assert M.lact(a, m) == brute_force(M.left, (a, m), n)
            assert M.ract(m, a) == brute_force(M.right, (m, a), n)
        if M.rank == r:
            # the multiplication as a cochain is as sparse as the carrier
            f = Cochain(2, M, A.table)
            for x, y in product(xs + basis, repeat=2):
                assert f.evaluate(x, y) == brute_force(A.table, (x, y), n)
        for degree in range(4):
            f = random_cochain(M, degree, rng.randrange(1000))
            arg_sets = list(product(xs, repeat=degree))
            if r > 8 and degree == 3:
                # the brute force walks all r^3 index triples per call
                arg_sets = rng.sample(arg_sets, 4)
            for args in arg_sets:
                assert f.evaluate(*args) == brute_force(f.values, args, n)
    D = gauge_deformation(G, seeded_gauge_map(G, 5), 3)
    xs = [(0, 0, 0), (1, 2, 0), (2, 1, 1), (1, 1, 2)]
    for m in (1, 2):
        for x, y in product(xs, xs):
            assert D.alpha(m, x, y) == brute_force(D.cochains[m - 1], (x, y), 3)
    assert any(D.cochains[0][i][j] != (0, 0, 0)
               for i in range(3) for j in range(3))


def dense_delta_rows(M, degree):
    """The coboundary rows assembled by scanning all r^2 pairs (u, v) at
    every source-tuple position, reading the dense tables."""
    A = M.algebra
    r, s, n = A.rank, M.rank, A.n

    def flat(T, coord):
        idx = 0
        for t in T:
            idx = idx * r + t
        return idx * s + coord

    rows = []
    for T in product(range(r), repeat=degree):
        for m0 in range(s):
            row = {}

            def put(T2, coord, coeff):
                pos = flat(T2, coord)
                row[pos] = (row.get(pos, 0) + coeff) % n

            for l in range(r):
                for k, v in enumerate(M.left[l][m0]):
                    if v:
                        put((l,) + T, k, v)
            sign = 1
            for i in range(1, degree + 1):
                sign = -sign
                for u in range(r):
                    for v in range(r):
                        coeff = A.table[u][v][T[i - 1]]
                        if coeff:
                            put(T[:i - 1] + (u, v) + T[i:], m0, sign * coeff)
            sign = -sign
            for k in range(r):
                for c, v in enumerate(M.right[m0][k]):
                    if v:
                        put(T + (k,), c, sign * v)
            rows.append({p: c for p, c in row.items() if c})
    return rows


def test_delta_matrix_matches_dense_scan():
    # same rows with the same key order as the r^2 scan: on the sphere and
    # circle carriers, whose tables are mostly zero, through degree 2; on a
    # bimodule of rank s = 1 over a rank r = 2 algebra, which separates r
    # from s in the row offsets, and over the composite modulus 4, where
    # 1 + 1 is not reduced away, through degree 3
    from znalg.catalog import twisted_projection_module
    from znalg.poset import build_shriek, sphere_presheaf, square_presheaf
    cases = [(regular_bimodule(build_shriek(F).carrier), 3)
             for F in (sphere_presheaf(2), square_presheaf(3))]
    cases += [(twisted_projection_module(), 4), (regular_bimodule(zn(4)), 4),
              (regular_bimodule(zn_poly_x2(4)), 4)]
    for M, degrees in cases:
        for degree in range(degrees):
            rows, src, dst = delta_matrix(M, degree)
            expected = dense_delta_rows(M, degree)
            assert [list(row.items()) for row in rows] \
                == [list(row.items()) for row in expected]
            assert (src, dst) == (M.rank * M.algebra.rank ** degree,
                                  M.rank * M.algebra.rank ** (degree + 1))


@st.composite
def raw_bimodules(draw):
    """Tables drawn without any law, over prime and composite moduli, with
    entries 1 and n - 1 frequent so that placed entries merge and cancel."""
    n = draw(st.sampled_from((2, 3, 4, 5, 6, 9)))
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    entry = st.sampled_from((0, 0, 1, n - 1)) | st.integers(0, n - 1)

    def table(rows, cols, width):
        return draw(st.lists(st.lists(st.lists(
            entry, min_size=width, max_size=width),
            min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    A = FiniteAlgebra(n, r, table(r, r, r), [1] + [0] * (r - 1))
    M = Bimodule(A, s, table(r, s, s), table(s, r, s))
    return M, draw(st.integers(0, 3 if r < 3 else 2))


@settings(max_examples=100, deadline=None)
@given(raw_bimodules())
# the regular Z2 in degree 2 places 1 - 1 + 1 - 1 on one column and cancels;
# the regular Z4 in degree 1 merges 1 - 1 + 1 into the residue 1
@example((regular_bimodule(zn(2)), 2))
@example((regular_bimodule(zn(4)), 1))
def test_delta_matrix_rows_are_reduced_and_match_dense_scan(case):
    # a row kept as built and a merged row summed and reduced again both
    # hold only residues 1..n-1, in the dense scan's key order
    M, degree = case
    rows, _, _ = delta_matrix(M, degree)
    assert all(0 < x < M.n for row in rows for x in row.values())
    assert [list(row.items()) for row in rows] \
        == [list(row.items()) for row in dense_delta_rows(M, degree)]


def test_unit_acts_badly_detected():
    A = zn(2)
    with pytest.raises(UnitActsBadly):
        validate_bimodule(Bimodule(A, 1, [[[0]]], [[[1]]]))


def test_action_not_associative_detected():
    # left action of x on Z2 as if x were 1: (x*x)m = 0 but x(xm) = m
    A = zn_poly_x2(2)
    with pytest.raises((ActionNotAssociative, UnitActsBadly)):
        validate_bimodule(Bimodule(A, 1, [[[1]], [[1]]], [[[1], [0]]]))


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
    g = Cochain(1, M, [[1, 0], [0, 1]])
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


def nontrivial_cocycle(M, cap=None):
    """The first degree-2 cocycle of cocycle_space that solve_coboundary
    rejects, or None when H^2 = 0."""
    return next((f for f in cocycle_space(M, 2, cap)
                 if solve_coboundary(f, cap) is None), None)


def test_is_coboundary_roundtrip():
    # coboundaries of random cochains in every degree the solver takes
    for A in (zn_poly_x2(2), zn(3), triangular_algebra(2, 2)):
        M = regular_bimodule(A)
        for degree, seed in product((1, 2, 3), range(4)):
            f = coboundary(random_cochain(M, degree - 1, seed))
            g = solve_coboundary(f)
            assert g is not None and g.degree == degree - 1
            assert coboundary(g).map.flat == f.map.flat


def test_solver_matches_brute_force_on_dual_numbers():
    # over Z2[X]/(X^2) every g of degree 0 to 2 is listed: f is a
    # coboundary exactly when it is some coboundary(g), for every f of
    # degree 1 and 2 and for every image and 300 drawn f of degree 3
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    rng = random.Random(7)
    for degree in (1, 2, 3):
        dim = M.rank * A.rank ** (degree - 1)
        images = {coboundary(vec_to_cochain(M, degree - 1, g)).map.flat
                  for g in product(range(2), repeat=dim)}
        size = M.rank * A.rank ** degree
        if degree < 3:
            targets = list(product(range(2), repeat=size))
        else:
            targets = sorted(images) + [
                tuple(rng.randrange(2) for _ in range(size))
                for _ in range(300)]
        hits = 0
        for vec in targets:
            g = solve_coboundary(vec_to_cochain(M, degree, vec))
            assert (g is not None) == (tuple(vec) in images), (degree, vec)
            hits += g is not None
        assert 0 < hits < len(targets), degree


def test_solver_refuses_degrees_outside_one_to_three():
    M = regular_bimodule(zn(2))
    for degree in (0, 4):
        with pytest.raises(BadShape, match="degrees 1 to 3"):
            solve_coboundary(vec_to_cochain(M, degree, (0,)))


def test_zero_cochain_is_coboundary():
    A = zn(3)
    M = regular_bimodule(A)
    for degree in (1, 2, 3):
        g = solve_coboundary(zero_cochain(M, degree))
        assert g is not None
        assert coboundary(g).is_zero()


def test_coboundary_needs_prime_modulus():
    A = zn(4)
    M = regular_bimodule(A)
    with pytest.raises(NonPrimeModulus):
        solve_coboundary(zero_cochain(M, 2))


def test_nontrivial_cocycle_needs_prime_modulus():
    # Z4[X]/(X^2) is refused before any elimination mod 4 is attempted
    A = zn_poly_x2(4)
    with pytest.raises(NonPrimeModulus):
        nontrivial_cocycle(regular_bimodule(A))


# each solver with the most coboundary entries it assembles over
# Z3[X]/(X^2), whose table has 3 nonzeros: (2+2)*2^2*3 = 48 in degree 2 and
# (1+2)*2*3 = 18 in degree 1
SOLVERS = {
    "cohomology_dims": (lambda M, **kw: cohomology_dims(M, 2, **kw), 48),
    "cocycle_space": (lambda M, **kw: cocycle_space(M, 2, **kw), 48),
    "solve_coboundary": (
        lambda M, **kw: solve_coboundary(zero_cochain(M, 2), **kw), 18),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_cohomology_solver_refuses_through_one_sieve(solver):
    run, target = SOLVERS[solver]
    with pytest.raises(NonPrimeModulus):
        run(regular_bimodule(zn(4)))
    M = regular_bimodule(zn_poly_x2(3))
    run(M, cap=target)
    with pytest.raises(LinAlgCapExceeded):
        run(M, cap=target - 1)


def template_entries(M, degree):
    """The entries of delta_matrix's row templates, counted row by row from
    the dense tables: on row (T, m0), the nonzero left actions on m0, the
    nonzero coordinates T[i-1] of A's products for each position i, and the
    nonzero right actions on m0."""
    A = M.algebra
    r, s = A.rank, M.rank
    left = [sum(1 for l in range(r) for v in M.left[l][m0] if v)
            for m0 in range(s)]
    right = [sum(1 for k in range(r) for v in M.right[m0][k] if v)
             for m0 in range(s)]
    preimages = [sum(1 for u in range(r) for v in range(r) if A.table[u][v][t])
                 for t in range(r)]
    return sum(left[m0] + sum(preimages[t] for t in T) + right[m0]
               for T in product(range(r), repeat=degree) for m0 in range(s))


def test_refusal_counts_the_entries_delta_matrix_assembles():
    # the count the sieve refuses on is the per-row count of the templates,
    # and no assembled matrix has more nonzeros; the sphere carrier's degree
    # 3 is counted and refused, never assembled
    from znalg.catalog import catalog_algebras, twisted_projection_module
    from znalg.poset import build_shriek, sphere_presheaf, square_presheaf
    algebras = catalog_algebras() + [
        triangular_algebra(2, 3), build_shriek(square_presheaf(2)).carrier]
    sphere = regular_bimodule(build_shriek(sphere_presheaf(2)).carrier)
    modules = [regular_bimodule(A) for A in algebras] + [sphere]
    for M in modules + [twisted_projection_module()]:
        A = M.algebra
        nnz = sum(1 for row in A.table for cell in row for v in cell if v)
        for degree in range(4):
            entries = template_entries(M, degree)
            assert _coboundary_entries(M, degree) == entries, (A.name, degree)
            if M in modules:
                assert entries == (degree + 2) * A.rank ** degree * nnz
            if linal.is_prime(A.n):
                with pytest.raises(LinAlgCapExceeded, match=(
                        f"^degree {degree} coboundary: {entries} entries "
                        f"exceeds cap {entries - 1}$")):
                    cocycle_space(M, degree, cap=entries - 1)
            if M is not sphere or degree < 3:
                rows, _, _ = delta_matrix(M, degree)
                assert sum(map(len, rows)) <= entries, (A.name, degree)
    assert [_coboundary_entries(sphere, d) for d in range(4)] \
        == [76, 2052, 49248, 1108080]


def element_coboundary(g):
    """The flat of δg tabulated one basis tuple at a time by element
    arithmetic: a_0 g(a_1, ..) + sum over i of (-1)^i g(.., a_(i-1) a_i, ..)
    + (-1)^(ν+1) g(.., a_(ν-1)) a_ν on basis vectors, each term evaluated
    through the cochain and the actions."""
    M = g.module
    A = M.algebra
    nu = g.degree

    def value(T):
        args = [A.basis(i) for i in T]
        acc = M.lact(args[0], g.evaluate(*args[1:]))
        sign = 1
        for i in range(1, nu + 1):
            sign = -sign
            merged = args[:i - 1] + [A.table[T[i - 1]][T[i]]] + args[i + 1:]
            acc = M.add(acc, M.smul(sign, g.evaluate(*merged)))
        sign = -sign
        return M.add(acc, M.smul(sign, M.ract(g.evaluate(*args[:-1]),
                                              args[-1])))

    return tuple(v for T in product(range(A.rank), repeat=nu + 1)
                 for v in value(T))


def test_delta_matrix_matches_dense_coboundary():
    # three routes to δg agree: coboundary (the composition kernel), the
    # element formula and the rows of delta_matrix applied to g, all
    # reduced mod n, which need not be prime (Z4); on regular bimodules,
    # the twisted projection module (s != r, left != right), a rank-0
    # bimodule (width 0) and the sphere carrier in degree 1
    from znalg.poset import build_shriek, sphere_presheaf
    T2 = triangular_algebra(2, 2)
    cases = [(regular_bimodule(A), range(4))
             for A in (zn(3), zn(4), zn_poly_x2(2), T2)]
    cases += [
        (twisted_projection_module(direct_product([zn(2), zn(2)])), range(4)),
        (validate_bimodule(Bimodule(T2, 0, [[]] * 3, [], "zero")), range(4)),
        (regular_bimodule(build_shriek(sphere_presheaf(2)).carrier), (1,))]
    for M, degrees in cases:
        n = M.n
        for degree in degrees:
            rows, src, dst = delta_matrix(M, degree)
            for seed in range(3):
                g = random_cochain(M, degree, seed)
                vec = g.map.flat
                out = [0] * dst
                for pos_src, coeff in enumerate(vec):
                    if coeff:
                        for pos, c in rows[pos_src].items():
                            out[pos] = (out[pos] + coeff * c) % n
                assert tuple(out) == coboundary(g).map.flat \
                    == element_coboundary(g), (M.name, degree, seed)


def test_vec_cochain_roundtrip():
    A = zn_poly_x2(3)
    M = regular_bimodule(A)
    for degree in (0, 1, 2):
        g = random_cochain(M, degree, degree)
        assert vec_to_cochain(M, degree, list(g.map.flat)) == g


def test_h2_of_z2_is_zero():
    # rank-1 case: C^1 and C^2 are 1-dimensional, d1 has rank 1, d2 = 0
    A = zn(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(M, 2)
    assert dims.dim_cocycles == 1
    assert dims.dim_coboundaries == 1
    assert dims.dim_h == 0


def test_h1_h2_of_z3():
    A = zn(3)
    M = regular_bimodule(A)
    assert cohomology_dims(M, 1).dim_h == 0
    assert cohomology_dims(M, 2).dim_h == 0


def test_cohomology_dims_accounting():
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(M, 2)
    assert dims.dim_h == dims.dim_cocycles - dims.dim_coboundaries
    assert dims.dim_h >= 0


def test_nontrivial_cocycle_consistent_with_dims():
    # Z2[X]/(X^2) self-extensions: dim H^2 is nonzero (x^2 = t deforms it),
    # and the returned representative must fail the coboundary test
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    dims = cohomology_dims(M, 2)
    f = nontrivial_cocycle(M)
    if dims.dim_h == 0:
        assert f is None
    else:
        assert f is not None
        assert is_cocycle2(f)[0]


def test_membership_consistent_with_dims_when_h2_vanishes():
    # every cocycle must solve the coboundary equation when dim H^2 = 0
    A = zn(3)
    M = regular_bimodule(A)
    assert cohomology_dims(M, 2).dim_h == 0
    for f in cocycle_space(M, 2):
        assert solve_coboundary(f) is not None


def test_sphere_carrier_has_non_coboundary_cocycle():
    # the assembled sphere-poset algebra carries a degree-2 class that no
    # degree-1 cochain bounds
    from znalg.poset import build_shriek, sphere_presheaf
    A = build_shriek(sphere_presheaf(2)).carrier
    M = regular_bimodule(A)
    f = nontrivial_cocycle(M)
    assert f is not None
    ok, _ = is_cocycle2(f)
    assert ok
    assert solve_coboundary(f) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_every_coboundary_passes_cocycle_check(seed):
    A = zn_poly_x2(2)
    M = regular_bimodule(A)
    g = random_cochain(M, 1, seed)
    ok, _ = is_cocycle2(coboundary(g))
    assert ok


def dense_certify_bimodule(M):
    """The bimodule laws by actions on dense basis vectors on every basis
    triple, and scalar symmetry for every residue: the oracle for the
    sparse-cell certificate."""
    A = M.algebra
    r, s = A.rank, M.rank
    one = A.one()
    for j in range(s):
        m = M.basis(j)
        if M.lact(one, m) != m:
            raise UnitActsBadly(f"{M.name}: 1*m != m on module basis {j}")
        if M.ract(m, one) != m:
            raise UnitActsBadly(f"{M.name}: m*1 != m on module basis {j}")
    for i in range(r):
        a = A.basis(i)
        for j in range(r):
            b = A.basis(j)
            ab = A.table[i][j]
            for k in range(s):
                m = M.basis(k)
                if M.lact(ab, m) != M.lact(a, M.lact(b, m)):
                    raise ActionNotAssociative("(ab)m = a(bm)", (i, j, k))
                if M.ract(m, ab) != M.ract(M.ract(m, a), b):
                    raise ActionNotAssociative("m(ab) = (ma)b", (i, j, k))
                if M.ract(M.lact(a, m), b) != M.lact(a, M.ract(m, b)):
                    raise ActionNotAssociative("(am)b = a(mb)", (i, j, k))
    for c in range(A.n):
        ca = A.smul(c, one)
        for j in range(s):
            m = M.basis(j)
            if M.lact(ca, m) != M.ract(m, ca):
                raise ActionNotAssociative("scalar symmetry", (c, j))


def dense_cocycle_violations(f):
    """((i, j, k), total) for every basis triple where the cocycle identity
    fails, by evaluating f on dense basis vectors."""
    M = f.module
    A = M.algebra
    r = A.rank
    violations = []
    for i in range(r):
        a = A.basis(i)
        for j in range(r):
            b = A.basis(j)
            ab = A.table[i][j]
            for k in range(r):
                c = A.basis(k)
                bc = A.table[j][k]
                total = M.lact(a, f.evaluate(b, c))
                total = M.sub(total, f.evaluate(ab, c))
                total = M.add(total, f.evaluate(a, bc))
                total = M.sub(total, M.ract(f.evaluate(a, b), c))
                if any(total):
                    violations.append(((i, j, k), total))
    return violations


def test_triple_certificates_match_dense_loops():
    # the bimodule laws and the cocycle identity agree with the dense loops
    # on the catalog algebras, M2(Z3), T3(Z2), a sheared T3(Z2) and the
    # sphere carrier (rank 18): same error, law and first triple for each
    # seeded single-entry corruption of an action table, and the same full
    # violations list for cocycles, their corruptions and random cochains
    from test_algebra import corrupt, sheared
    from znalg.catalog import catalog_algebras
    from znalg.poset import build_shriek, sphere_presheaf
    rng = random.Random(31)
    P = direct_product([zn(2), zn(2)])
    algebras = catalog_algebras() + [
        matrix_algebra(3, 2), triangular_algebra(2, 3),
        sheared(triangular_algebra(2, 3), 5),
        build_shriek(sphere_presheaf(2)).carrier]
    modules = [regular_bimodule(A) for A in algebras]
    modules.append(twisted_projection_module(P))
    laws = set()
    for M in modules:
        A, n = M.algebra, M.n
        assert outcome(validate_bimodule, M) == "passes"
        assert outcome(dense_certify_bimodule, M) == "passes"
        free = [i for i in range(A.rank) if not A.unit[i]] or [0]
        for trial in range(6):
            left, right = M.left, M.right
            if trial % 2:
                right = corrupt(right, rng, n, list(range(M.rank)))
            else:
                left = corrupt(left, rng, n, free)
            B = Bimodule(A, M.rank, left, right, M.name)
            got = outcome(validate_bimodule, B)
            assert got == outcome(dense_certify_bimodule, B)
            if got != "passes" and got[0] is ActionNotAssociative:
                laws.add(got[3]["axiom"])
        g = random_cochain(M, 1, rng.randrange(1000))
        cochains = [coboundary(g), random_cochain(M, 2, rng.randrange(1000))]
        if M.rank == A.rank:
            cochains.append(Cochain(2, M, A.table))
        cochains += [Cochain(2, M, corrupt(cochains[0].values, rng, n,
                                           list(range(A.rank))))
                     for _ in range(3)]
        for f in cochains:
            violations = dense_cocycle_violations(f)
            assert is_cocycle2(f) == (not violations, violations)
    assert laws == {"(ab)m = a(bm)", "m(ab) = (ma)b", "(am)b = a(mb)"}


@st.composite
def corrupted_tables(draw):
    """An associative table with a few entries off the unit's row and
    column moved, as a FiniteAlgebra that nothing certifies."""
    A = draw(st.sampled_from((
        zn_poly_x2(2), zn_poly_x2(3), triangular_algebra(2, 2),
        triangular_algebra(2, 3), triangular_algebra(3, 2),
        matrix_algebra(2, 2))))
    free = [i for i in range(A.rank) if not A.unit[i]]
    table = [[list(cell) for cell in row] for row in A.table]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from(free)), draw(st.sampled_from(free))
        k = draw(st.integers(0, A.rank - 1))
        table[i][j][k] = draw(st.integers(0, A.n - 1))
    return FiniteAlgebra(A.n, A.rank, table, A.unit, f"{A.name} corrupted")


@settings(max_examples=100, deadline=None)
@given(corrupted_tables(), st.booleans())
def test_regular_bimodule_of_corrupted_table_fails_as_three_walks(B, copied):
    # the three law walks report the law and the triple of the dense
    # loops, which check all three laws on every triple; an action table
    # equal to the algebra's, its dense table or a copy, gets a map of its
    # own and is walked like any other
    table = [list(row) for row in B.table] if copied else B.table
    M = Bimodule(B, B.rank, table, table)
    expected = outcome(dense_certify_bimodule, M)
    assume(expected != "passes")
    assert expected[0] is ActionNotAssociative
    assert outcome(validate_bimodule, M) == expected

