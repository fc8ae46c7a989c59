"""Sparse elimination over Z_p, checked against tiny hand examples and a
brute-force span oracle; kernels and span combinations come from tag
columns appended to the rows.  The Smith form over Z_n, its row transform
and the solver built on them are checked against the same kind of
oracle."""

import random
from itertools import product
from math import gcd

from hypothesis import given, settings, strategies as st

from znalg.linal import _smith, _solve, eliminate_modp, is_prime, reduce_modp


def sparse(dense):
    return {c: x for c, x in enumerate(dense) if x}


def rank(dense_rows, p):
    return eliminate_modp([sparse(row) for row in dense_rows], p)[0]


def tagged_pivots(dense_rows, p):
    width = len(dense_rows[0])
    rows = []
    for i, row in enumerate(dense_rows):
        tagged = sparse(row)
        tagged[width + i] = 1
        rows.append(tagged)
    return eliminate_modp(rows, p)[1], width


def kernel(dense_rows, p):
    pivots, width = tagged_pivots(dense_rows, p)
    out = []
    for lead, row in pivots.items():
        if lead >= width:
            combo = [0] * len(dense_rows)
            for c, x in row.items():
                combo[c - width] = x
            out.append(combo)
    return out


def solve(dense_rows, target, p):
    """Combination of the rows equal to target, or None outside the span."""
    pivots, width = tagged_pivots(dense_rows, p)
    residue = reduce_modp(pivots, sparse(target), p)
    if residue and min(residue) < width:
        return None
    combo = [0] * len(dense_rows)
    for c, x in residue.items():
        combo[c - width] = -x % p
    return combo


def combine(combo, dense_rows, p):
    acc = [0] * len(dense_rows[0])
    for c, row in zip(combo, dense_rows):
        for k, v in enumerate(row):
            acc[k] = (acc[k] + c * v) % p
    return tuple(acc)


def brute_span(dense_rows, p):
    return {combine(combo, dense_rows, p)
            for combo in product(range(p), repeat=len(dense_rows))}


def random_sparse_matrix(rng, p, nrows, width):
    return [[rng.randrange(1, p) if rng.random() < 0.35 else 0
             for _ in range(width)] for _ in range(nrows)]


def test_gf2_rank_hand_examples():
    assert rank([[1, 0], [0, 1]], 2) == 2
    assert rank([[1, 0], [1, 0]], 2) == 1
    assert rank([[1, 1], [1, 0], [0, 1]], 2) == 2
    assert rank([[0, 0], [0, 0]], 2) == 0


def test_gf2_kernel_combinations():
    rows = [[1, 1], [1, 0], [0, 1]]
    combos = kernel(rows, 2)
    assert len(combos) == 1 and any(combos[0])
    assert combine(combos[0], rows, 2) == (0, 0)


def test_gf2_solve_in_rowspan():
    rows = [[1, 1, 0], [1, 0, 1]]
    assert solve(rows, [0, 1, 1], 2) == [1, 1]  # sum of both rows
    assert solve(rows, [1, 0, 0], 2) is None


def test_modp_rank_hand_examples():
    assert rank([[1, 2], [2, 4]], 5) == 1
    assert rank([[1, 2], [2, 4]], 7) == 1
    assert rank([[1, 0], [0, 3]], 5) == 2
    assert rank([[0, 0]], 3) == 0


def test_modp_kernel_reassembles():
    p = 3
    rows = [[1, 2, 0], [2, 1, 0], [0, 0, 1], [1, 1, 1]]
    combos = kernel(rows, p)
    assert rank(rows, p) + len(combos) == len(rows)
    for combo in combos:
        assert combine(combo, rows, p) == (0, 0, 0)


def test_modp_solve_against_brute_force():
    p = 3
    rows = [[1, 2, 0], [0, 1, 1]]
    span = brute_span(rows, p)
    for target in product(range(p), repeat=3):
        combo = solve(rows, list(target), p)
        if target in span:
            assert combine(combo, rows, p) == target
        else:
            assert combo is None


def test_seeded_sparse_matrices_against_span_oracle():
    for p in (2, 3, 5):
        rng = random.Random(p)
        for _ in range(12):
            nrows, width = rng.randint(1, 4), rng.randint(1, 4)
            rows = random_sparse_matrix(rng, p, nrows, width)
            span = brute_span(rows, p)
            r = rank(rows, p)
            assert p ** r == len(span)
            combos = kernel(rows, p)
            assert len(combos) == nrows - r
            for combo in combos:
                assert combine(combo, rows, p) == (0,) * width
            if combos:  # and independent: p^k distinct combinations
                assert len(brute_span(combos, p)) == p ** len(combos)
            for target in product(range(p), repeat=width):
                combo = solve(rows, list(target), p)
                if target in span:
                    assert combine(combo, rows, p) == target
                else:
                    assert combo is None


def test_reduce_leaves_pivots_and_row_untouched():
    p = 5
    _, pivots = eliminate_modp([{0: 2, 3: 1}, {1: 4}], p)
    before = {lead: dict(row) for lead, row in pivots.items()}
    row = {0: 7, 1: 1, 2: 3}
    residue = reduce_modp(pivots, row, p)
    assert pivots == before and row == {0: 7, 1: 1, 2: 3}
    assert min(residue) == 2


def scale_always_pivots(rows, p):
    """Reference sieve: every residue is scaled into a new monic dict."""
    pivots = {}
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v and min(v) in pivots:
            f = v[min(v)]
            for c, x in pivots[min(v)].items():
                v[c] = (v.get(c, 0) - f * x) % p
            v = {c: x for c, x in v.items() if x}
        if v:
            inv = pow(v[min(v)], -1, p)
            pivots[min(v)] = {c: inv * x % p for c, x in v.items()}
    return pivots


@st.composite
def sparse_systems(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    width = draw(st.integers(1, 6))
    entries = st.dictionaries(st.integers(0, width - 1),
                              st.integers(-3 * p, 3 * p), max_size=width)
    return p, draw(st.lists(entries, max_size=6))


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_monic_residues_kept_as_the_scaled_pivots(case):
    p, rows = case
    before = [list(row.items()) for row in rows]
    rank, pivots = eliminate_modp(rows, p)
    expected = scale_always_pivots(rows, p)
    assert rank == len(expected)
    assert [(lead, sorted(row.items())) for lead, row in pivots.items()] \
        == [(lead, sorted(row.items())) for lead, row in expected.items()]
    for lead, row in pivots.items():
        assert min(row) == lead and row[lead] == 1
        assert all(row is not given_row for given_row in rows)
    assert [list(row.items()) for row in rows] == before


def reduce_then_scale(rows, p):
    """Reference sieve in which every row, reduced or not, goes through
    reduce_modp before it is stored."""
    pivots = {}
    for row in rows:
        v = reduce_modp(pivots, row, p)
        if v:
            inv = pow(v[min(v)], -1, p)
            pivots[min(v)] = {c: inv * x % p for c, x in v.items()}
    return pivots


@st.composite
def reduced_systems(draw):
    """Rows whose values are all residues 1..p-1, over so few columns that
    leads repeat, with monic and non-monic leads and empty rows."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    width = draw(st.integers(1, 5))
    entries = st.dictionaries(st.integers(0, width - 1),
                              st.integers(1, p - 1), max_size=width)
    return p, draw(st.lists(entries, max_size=8))


@settings(max_examples=100, deadline=None)
@given(reduced_systems())
def test_reduced_rows_with_free_leads_are_stored_as_the_sieve_would(case):
    # a reduced row whose lead is free is stored without reduce_modp: the
    # pivots equal both references, in key order too where every row is
    # reduced first, and no pivot is, or changes, a caller's row
    p, rows = case
    before = [list(row.items()) for row in rows]
    rank, pivots = eliminate_modp(rows, p)
    assert [(lead, sorted(row.items())) for lead, row in pivots.items()] \
        == [(lead, sorted(row.items()))
            for lead, row in scale_always_pivots(rows, p).items()]
    assert [(lead, list(row.items())) for lead, row in pivots.items()] \
        == [(lead, list(row.items()))
            for lead, row in reduce_then_scale(rows, p).items()]
    assert rank == len(pivots)
    assert all(row is not pivot for row in rows for pivot in pivots.values())
    for pivot in pivots.values():
        pivot.clear()
    assert [list(row.items()) for row in rows] == before


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


@st.composite
def small_modules(draw):
    n = draw(st.integers(2, 12))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-n, 2 * n), min_size=width,
                                  max_size=width), max_size=3))
    return n, width, rows


@settings(max_examples=300, deadline=None)
@given(small_modules())
def test_smith_form_against_brute_force_span(case):
    """Besides d, V and W, the row transform: rows tagged with their unit
    vectors end as [diag(p_i) | U] with U·rows·V = diag(p_i) and
    gcd(p_i, n) = d_i, and the tags change neither d nor V nor W."""
    n, width, rows = case
    m = len(rows)
    tagged = [row + [int(i == j) for j in range(m)]
              for i, row in enumerate(rows)]
    d, V, W, D = _smith(tagged, n, width)
    assert _smith(rows, n, width)[:3] == (d, V, W)
    U = [row[width:] for row in D]
    URV = [[sum(U[a][b] * rows[b][k] * V[k][j] for b in range(m)
                for k in range(width)) % n for j in range(width)]
           for a in range(m)]
    assert URV == [row[:width] for row in D]
    assert all(URV[i][j] == 0 for i in range(m) for j in range(width)
               if i != j)
    assert [gcd(URV[i][i] if i < m else 0, n) for i in range(width)] == d
    assert len(d) == width and all(n % di == 0 for di in d)
    assert all(d[i + 1] % d[i] == 0 for i in range(width - 1))
    identity = [[int(i == j) for j in range(width)] for i in range(width)]
    assert [[sum(V[i][k] * W[k][j] for k in range(width)) % n
             for j in range(width)] for i in range(width)] == identity
    span = brute_span(rows, n) if rows else {(0,) * width}
    for y in product(range(n), repeat=width):
        coords = [sum(y[k] * V[k][i] for k in range(width)) % n
                  for i in range(width)]
        assert (y in span) == all(c % di == 0 for c, di in zip(coords, d))


@settings(max_examples=150, deadline=None)
@given(small_modules(), st.data())
def test_solve_against_brute_force_span(case, data):
    """Over any Z_n, composite n included, _solve combines the rows to a
    member of their span and returns None exactly outside it."""
    n, width, rows = case
    rows = rows or [[0] * width]
    residues = st.integers(0, n - 1)
    combo = data.draw(st.lists(residues, min_size=len(rows),
                               max_size=len(rows)))
    target = tuple(data.draw(st.lists(residues, min_size=width,
                                      max_size=width)))
    span = brute_span(rows, n)
    for t in (combine(combo, rows, n), target):
        c = _solve(rows, t, n)
        assert (c is not None) == (t in span)
        assert c is None or combine(c, rows, n) == t
