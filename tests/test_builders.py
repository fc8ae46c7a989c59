"""Every library builder assembles its carrier from its inputs' sparse cells
and hands their nonzero entries to Multilinear.from_entries.  Each carrier
here equals, on flat, dense, cells and nnz, the map ingested from the dense
table that its product rule spells out basis pair by basis pair; no nested
table is walked (algebra._entries) while a builder runs, and each builder
certifies its carrier with exactly one validate_algebra."""

from functools import cache

import pytest

from znalg import algebra, deformation, extension, poset
from znalg.algebra import (
    Multilinear,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    zn,
    zn_poly_x2,
)
from znalg.catalog import catalog_extension_instances, seeded_cochain
from znalg.deformation import at_order, catalog_deformations, flatten
from znalg.errors import BadShape
from znalg.extension import build_extension
from znalg.hochschild import coboundary, regular_bimodule
from znalg.poset import (
    build_shriek,
    example_one_presheaf,
    sphere_presheaf,
    square_presheaf,
)


@pytest.fixture
def calls(monkeypatch):
    """{name: calls since the last reset} of algebra._entries and of
    validate_algebra, counted at every module binding of each."""
    counts = {"_entries": 0, "validate_algebra": 0}
    for name in counts:
        original = getattr(algebra, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for module in (algebra, deformation, extension, poset):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def built(calls, build, *args):
    """build(*args), with the calls counted only while it runs."""
    calls.update(dict.fromkeys(calls, 0))
    result = build(*args)
    assert calls == {"_entries": 0, "validate_algebra": 1}
    return result


def assert_carrier(carrier, table, unit):
    """carrier's map equals the one ingested from the dense table."""
    rank = carrier.rank
    dense = Multilinear(table, carrier.n, (rank,) * 3)
    sparse = carrier.mult
    assert sparse.shape == dense.shape
    assert sparse.flat == dense.flat
    assert sparse.dense == dense.dense
    assert sparse.cells == dense.cells
    assert sparse.nnz == dense.nnz
    assert carrier.unit == tuple(unit)


# the dense tables, from the product rule of each construction

def extension_table(A, M, f):
    """(a, m)(a', m') = (aa', am' + ma' + f(a, a')) on the carrier basis:
    the basis of A, then the basis of M."""
    r = A.rank
    basis = [(A.basis(i), M.zero()) for i in range(r)] + [
        (A.zero(), M.basis(j)) for j in range(M.rank)]
    return [[list(A.mul(a, b)) + list(M.add(M.add(M.lact(a, y), M.ract(x, b)),
                                            f.evaluate(a, b)))
             for b, y in basis] for a, x in basis]


def shriek_table(PA):
    """Block (h, i) times block (i, j) lands in block (h, j): stalk h's
    product with the restriction of the second factor from stalk i."""
    F = PA.presheaf
    basis = [(pair, u) for pair in PA.blocks
             for u in range(F.stalks[pair[0]].rank)]
    rank = len(basis)
    table = [[[0] * rank for _ in basis] for _ in basis]
    for a, ((h, i), u) in enumerate(basis):
        Sh = F.stalks[h]
        for b, ((i2, j), v) in enumerate(basis):
            if i2 == i:
                x = F.stalks[i].basis(v)
                image = x if h == i else F.maps[(h, i)].evaluate(x)
                start = PA.offsets[(h, j)][0]
                table[a][b][start:start + Sh.rank] = Sh.mul(Sh.basis(u), image)
    return table


def flatten_table(D):
    """e_i t^j times e_k t^l is the sum over m of alpha_m(e_i, e_k)
    t^(j+l+m), cut at the order."""
    A, N = D.base, D.order
    r = A.rank
    rank = r * N
    table = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for j in range(N):
        for i in range(r):
            for l in range(N):
                for k in range(r):
                    cell = table[j * r + i][l * r + k]
                    for m in range(N - j - l):
                        alpha = D.alpha(m, A.basis(i), A.basis(k))
                        for w, v in enumerate(alpha):
                            cell[(j + l + m) * r + w] += v
    return table


def block_diagonal_table(factors):
    rank = sum(f.rank for f in factors)
    table = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    off = 0
    for f in factors:
        for i in range(f.rank):
            for j in range(f.rank):
                table[off + i][off + j][off:off + f.rank] = f.table[i][j]
        off += f.rank
    return table


def matrix_units_table(pairs):
    """e_ab e_cd = e_ad when b = c, and 0 otherwise."""
    return [[[int(b == c and (a, d) == q) for q in pairs]
             for c, d in pairs] for a, b in pairs]


@cache
def extension_inputs():
    """{label: (A, M, f)}: the catalog's extension instances and the
    sphere carrier with f = delta g."""
    inputs = {label: (A, M, f)
              for label, A, M, f in catalog_extension_instances()}
    A = build_shriek(sphere_presheaf(2)).carrier
    M = regular_bimodule(A)
    inputs["sphere|regular|dg"] = (A, M, coboundary(seeded_cochain(M, 1, 7)))
    return inputs


EXTENSION_LABELS = sorted(extension_inputs())


@pytest.mark.parametrize("label", EXTENSION_LABELS)
def test_extension_carrier_is_built_from_cells(calls, label):
    A, M, f = extension_inputs()[label]
    B = built(calls, build_extension, A, M, f)
    unit = A.one() + M.neg(f.evaluate(A.one(), A.one()))
    assert_carrier(B.carrier, extension_table(A, M, f), unit)


PRESHEAVES = {"example-1": example_one_presheaf,
              "square-circle": lambda: square_presheaf(2),
              "example-2-sphere": lambda: sphere_presheaf(2)}


@pytest.mark.parametrize("label", sorted(PRESHEAVES))
def test_shriek_carrier_is_built_from_cells(calls, label):
    F = PRESHEAVES[label]()
    PA = built(calls, build_shriek, F)
    unit = [v for h, i in PA.blocks
            for v in (F.stalks[h].one() if h == i else F.stalks[h].zero())]
    assert_carrier(PA.carrier, shriek_table(PA), unit)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("index", range(3))
def test_flattened_carrier_is_built_from_cells(calls, index, order):
    D = at_order(catalog_deformations(4)[index], order)
    F = built(calls, flatten, D)
    unit = D.base.one() + (0,) * (D.base.rank * (order - 1))
    assert_carrier(F, flatten_table(D), unit)


PRODUCTS = {"Z2 x Z2[X]/(X^2)": lambda: [zn(2), zn_poly_x2(2)],
            "Z3[X]/(X^2) x T2(Z3) x Z3": lambda: [
                zn_poly_x2(3), triangular_algebra(3, 2), zn(3)]}


@pytest.mark.parametrize("label", sorted(PRODUCTS))
def test_direct_product_is_built_from_cells(calls, label):
    factors = PRODUCTS[label]()
    P = built(calls, direct_product, factors)
    assert_carrier(P, block_diagonal_table(factors),
                   sum((f.unit for f in factors), ()))


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("n", [2, 4])
def test_matrix_unit_algebras_are_built_from_cells(calls, n, size):
    everything = [(a, b) for a in range(size) for b in range(size)]
    for build, pairs in ((matrix_algebra, everything),
                         (triangular_algebra, [(a, b) for a, b in everything
                                               if a <= b])):
        A = built(calls, build, n, size)
        assert_carrier(A, matrix_units_table(pairs),
                       [int(a == b) for a, b in pairs])


@pytest.mark.parametrize("entries,message", [
    ({8: 1}, "has no flat index 8, expected 0 to 7"),
    ({-1: 1}, "has no flat index -1, expected 0 to 7"),
    ({"0": 1}, "has no flat index '0', expected 0 to 7"),
    ({True: 1}, "has no flat index True, expected 0 to 7"),
    ({0: True}, "entries must be integers"),
    ({0: 1.0}, "entries must be integers"),
])
def test_sparse_constructor_refuses_an_index_or_entry_out_of_range(
        entries, message):
    with pytest.raises(BadShape, match=f"structure table {message}"):
        Multilinear.from_entries(entries, 2, (2, 2, 2), "structure table")
