"""Every owner of a structure table declares its shape, and a table of
another shape, or with an entry that is not an int, is refused with
BadShape when its object is built or validated, never certified."""

import copy
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from znalg.algebra import (
    FiniteAlgebra,
    Multilinear,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from znalg.deformation import (
    TruncatedDeformation,
    gauge_deformation,
    seeded_gauge_map,
    validate_deformation,
)
from znalg.errors import BadShape
from znalg.hochschild import Bimodule, Cochain, validate_bimodule
from znalg.poset import Poset, Presheaf, validate_presheaf


def test_a_ragged_structure_table_is_refused():
    # the second row of the table has one cell where the rank needs two
    with pytest.raises(BadShape, match="structure table has an array of "
                                       "length 1 at depth 1, expected 2"):
        validate_algebra(FiniteAlgebra(2, 2, [[[1,0],[0,1]],[[0,1]]], [1,0]))


def test_a_unit_of_another_rank_is_refused():
    # a rank-3 unit on the rank-2 dual numbers
    with pytest.raises(BadShape, match="unit vector has an array of length "
                                       "3 at depth 0, expected 2"):
        validate_algebra(FiniteAlgebra(
            2, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0, 0]))


def test_a_right_action_row_short_of_the_rank_is_refused():
    # the regular bimodule of the dual numbers with one cell dropped from
    # row 1 of its right-action table, where the algebra's rank needs two
    D = zn_poly_x2(2)
    with pytest.raises(BadShape, match="right action table has an array of "
                                       "length 1 at depth 1, expected 2"):
        validate_bimodule(Bimodule(D, 2, D.table,
                                   [D.table[0], D.table[1][:1]]))


def test_a_negative_rank_is_refused():
    # no array has a negative length, so no table, however empty, has
    # the shape a negative rank declares
    with pytest.raises(BadShape, match="structure table has an array of "
                                       "length 0 at depth 0, expected -1"):
        FiniteAlgebra(2, -1, [], [])
    with pytest.raises(BadShape, match="left action table has an array of "
                                       "length 0 at depth 1, expected -1"):
        Bimodule(zn(2), -1, [[]], [])


def test_a_non_int_modulus_or_rank_is_refused():
    # never truncated: over 2.5 the table would be certified over Z2
    with pytest.raises(BadShape, match="modulus must be an integer, got 2.5"):
        FiniteAlgebra(2.5, 1, [[[1]]], [1])
    with pytest.raises(BadShape, match="rank must be an integer, got 1.9"):
        FiniteAlgebra(2, 1.9, [[[1]]], [1])
    with pytest.raises(BadShape, match="rank must be an integer, got True"):
        Bimodule(zn(2), True, [[[1]]], [[[1]]])


def test_a_non_int_truncation_order_is_refused():
    with pytest.raises(BadShape,
                       match="truncation order must be an integer, got 3.7"):
        TruncatedDeformation(zn_poly_x2(2), 3.7, {})


def test_a_non_int_poset_size_is_refused():
    for size in (2.5, True):
        with pytest.raises(BadShape,
                           match=f"poset size must be an integer, got {size}"):
            Poset.from_covers(size, [])
        with pytest.raises(BadShape,
                           match=f"poset size must be an integer, got {size}"):
            Poset(size, [[True]])


def test_a_rank_beyond_every_table_is_refused_at_its_first_short_array():
    # nothing of the declared size is built: an array of 10**20 items
    # fits in no index
    rank = 10 ** 20
    with pytest.raises(BadShape, match="structure table has an array "
                       f"of length 0 at depth 0, expected {rank}$"):
        FiniteAlgebra(2, rank, [], [])
    with pytest.raises(BadShape, match="left action table has an array "
                       f"of length 0 at depth 1, expected {rank}$"):
        Bimodule(zn(2), rank, [[]], [])


def test_a_table_of_zeros_is_certified_only_in_its_full_shape():
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    M = Multilinear(zero, 3, (2, 2, 2))
    assert M.dense == (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert (M.flat, M.nnz) == ((0,) * 8, 0)
    # a table of zeros is walked like any other table, so one that differs
    # from the zero table of (2, 2, 2) in one length or one entry type is
    # refused even after that zero table was certified
    for table, message in (
            ([[[0, 0], [0, 0]], [[0, 0]]],
             "has an array of length 1 at depth 1, expected 2"),
            ([[[0, 0], [0, 0]], [[0, 0], [0]]],
             "has an array of length 1 at depth 2, expected 2"),
            ([[[0, 0], [0, 0]], [[0, 0], [False, 0]]],
             "entries must be integers")):
        with pytest.raises(BadShape, match=message):
            Multilinear(table, 3, (2, 2, 2))


ALGEBRAS = {1: zn, 2: zn_poly_x2, 3: lambda n: triangular_algebra(n, 2)}


def lists(table):
    """A nested tuple table as nested lists."""
    if isinstance(table, (list, tuple)):
        return [lists(sub) for sub in table]
    return table


def free_bimodule(A, blocks):
    """The left and right action tables of A acting on blocks copies of
    itself, a bimodule of rank blocks * rank(A)."""
    r, k = A.rank, blocks

    def pad(cell, b):
        return [0] * (b * r) + list(cell) + [0] * ((k - 1 - b) * r)
    left = [[pad(A.table[i][j], b) for b in range(k) for j in range(r)]
            for i in range(r)]
    right = [[pad(A.table[j][i], b) for i in range(r)]
             for b in range(k) for j in range(r)]
    return left, right


def malform(rng, table, shape, fault):
    """table with one fault: an array at a random level one item short, one
    item long or a scalar, or one entry a bool or a float; None leaves it
    well formed."""
    if fault is None:
        return table
    box = [table]
    parent, key = box, 0
    depth = len(shape) if fault in ("bool", "float") else rng.randrange(
        len(shape))
    for _ in range(depth):
        parent, key = parent[key], rng.randrange(len(parent[key]))
    node = parent[key]
    if fault == "short":
        parent[key] = node[:-1]
    elif fault == "long":
        parent[key] = node + [copy.deepcopy(node[0])]
    elif fault == "scalar":
        parent[key] = 1
    elif fault == "bool":
        parent[key] = bool(node % 2)
    else:
        parent[key] = float(node)
    return box[0]


def build(owner, n, r, blocks, degree, rng, fault):
    """Build the owner's object around one table with the fault, and
    validate it."""
    A = ALGEBRAS[r](n)
    s = blocks * r
    if owner in ("structure", "unit"):
        table, unit = lists(A.table), list(A.unit)
        if owner == "structure":
            table = malform(rng, table, (r, r, r), fault)
        else:
            unit = malform(rng, unit, (r,), fault)
        return validate_algebra(FiniteAlgebra(n, r, table, unit))
    left, right = free_bimodule(A, blocks)
    if owner == "left":
        left = malform(rng, left, (r, s, s), fault)
    if owner == "right":
        right = malform(rng, right, (s, r, s), fault)
    M = validate_bimodule(Bimodule(A, s, left, right))
    if owner == "cochain":
        shape = (r,) * degree + (s,)
        values = [rng.randrange(n) for _ in range(s)]
        for size in reversed(shape[:-1]):
            values = [copy.deepcopy(values) for _ in range(size)]
        return Cochain(degree, M, malform(rng, values, shape, fault))
    if owner == "correction":
        # entries 0 and n: a table that is zero mod n, dropped when well
        # formed, so the certificate holds for every draw
        table = [[[rng.choice((0, n)) for _ in range(r)] for _ in range(r)]
                 for _ in range(r)]
        table = malform(rng, table, (r, r, r), fault)
        return validate_deformation(TruncatedDeformation(A, 3, {1: table}))
    if owner == "gauge":
        gmap = lists(seeded_gauge_map(A, rng.randrange(100)))
        return gauge_deformation(A, malform(rng, gmap, (r, r), fault), 3)
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    table = malform(rng, identity, (r, r), fault)
    return validate_presheaf(Presheaf(
        Poset.from_covers(2, [[0, 1]]), [A, A], {(0, 1): table}))


OWNERS = ("structure", "unit", "left", "right", "cochain", "correction",
          "gauge", "restriction")
FAULTS = ("short", "long", "scalar", "bool", "float")


# no explain phase: on a failure it formats every rerun's traceback
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate, Phase.shrink))
@given(owner=st.sampled_from(OWNERS), n=st.sampled_from((2, 3, 4, 9)),
       r=st.sampled_from(sorted(ALGEBRAS)), blocks=st.integers(1, 2),
       degree=st.integers(0, 3), fault=st.sampled_from((None,) + FAULTS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_owner_refuses_a_table_of_another_shape(
        owner, n, r, blocks, degree, fault, seed):
    # a well-formed table builds and certifies; the same table with one
    # fault at any level is refused with BadShape before a certificate
    rng = random.Random(seed)
    if fault is None:
        build(owner, n, r, blocks, degree, rng, fault)
        return
    with pytest.raises(BadShape):
        build(owner, n, r, blocks, degree, rng, fault)
