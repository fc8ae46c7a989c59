"""Bimodules, cochains, coboundaries, and low-degree cohomology dimensions.

The two sides of a bimodule and a cochain are algebra.Multilinear maps,
whose walk checks each table against the shape its owner declares: (r, s, s)
and (s, r, s) for the sides of a bimodule of rank s over an algebra of rank
r, and (r,) * degree + (s,) for a cochain.  A bimodule is built as a
Bimodule object, in code or by documents.Workspace, and validate_bimodule
certifies it.  The regular bimodule's sides are its algebra's mult, so lact
and ract run the algebra's kernel, and the laws of a certified algebra's
regular bimodule are not walked again.  A Cochain refuses a degree outside
0 to MAX_COCHAIN_DEGREE + 1 before it reads its table, and ingests the
table when built; its map evaluates it, one argument at a time from degree
3 on, and its map's flat is its coordinate vector in delta_matrix.
Multilinearity makes the table a lossless representation and turns
cocycle/coboundary questions into exact linear algebra over Z_p.
The coboundary δg is L ∘_1 g + Σ (-1)^i g ∘_(i-1) μ + (-1)^(ν+1) R ∘_0 g
(_delta_terms), summed by one call of algebra._compose on the sparse
cells; is_cocycle2 reads its violations off the same sum, and
validate_bimodule sums each of its three laws the same way.  For rank,
kernel and span questions the map is materialized as sparse rows over the
cochain coordinate spaces and eliminated by linal for any prime p.
delta_matrix assembles them on its own, never through the kernel, so
solve_coboundary's re-check coboundary(g) == f compares two routes: from
shifted templates built once with their signs, the left and right actions
per module coordinate and, per tuple position and basis index, the merged
pairs (u, v) from one preimage list per basis index (algebra._preimages),
each reduced mod n.  A row adds offsets from the flat index of its source
tuple to those templates; it is kept as built when no two entries share a
column, and only a row with merged entries is reduced mod n again.

Every solver gets its eliminations from _sieve, the one place that refuses:
a non-prime modulus (NonPrimeModulus) and a coboundary whose templates
would place more entries than the cap of every scan (LinAlgCapExceeded),
counted by _coboundary_entries from the maps' nnz before any row is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (
    FiniteAlgebra,
    Multilinear,
    _ZnModule,
    _compose,
    _multilinear,
    _position,
    _preimages,
    _refuse_above_cap,
)
from .errors import (
    ActionNotAssociative,
    BadShape,
    LinAlgCapExceeded,
    NonPrimeModulus,
    SelfCheckFailed,
    UnitActsBadly,
)
from . import linal

# Highest degree of a cochain read from a table: the coboundary takes
# degrees up to 3 and extensions take degree 2.
MAX_COCHAIN_DEGREE = 3

# Idempotent sweeps inside derived-identity checks stay below this element
# count; is_cocycle2 declares no errors, so it narrows instead of refusing.
DERIVED_CHECK_CAP = 2 ** 12


class Bimodule(_ZnModule):
    """A finite bimodule over a FiniteAlgebra, with basis action tables.

    left[i][j] is basis element i of the algebra acting on module basis
    element j; right[j][i] is module basis j acted on by algebra basis i.
    The sides are held as Multilinear maps, left_map and right_map, and an
    existing map is kept as it is; a rank below 0 is refused.
    """

    def __init__(self, algebra: FiniteAlgebra, rank, left, right, name=""):
        super().__init__(algebra.n, rank, 0, "bimodule rank")
        self.algebra = algebra
        r, s = algebra.rank, self.rank
        self.left_map = _multilinear(left, self.n, (r, s, s),
                                     "left action table")
        self.right_map = _multilinear(right, self.n, (s, r, s),
                                      "right action table")
        self.name = name or f"bimodule(s={self.rank}) over {algebra.name}"
        self._bind_kernels()

    @property
    def left(self):
        return self.left_map.dense

    @property
    def right(self):
        return self.right_map.dense

    def __repr__(self):
        return f"Bimodule({self.name!r})"

    def lact(self, a, m):
        """Left action of algebra element a on module element m."""
        return self.left_map.product(a, m)

    def ract(self, m, a):
        """Right action of algebra element a on module element m."""
        return self.right_map.product(m, a)


def validate_bimodule(M) -> Bimodule:
    """Certify a Bimodule and return it: the unit laws and the three
    associativity laws on basis triples (i, j, k) with i, j algebra and k
    module indices, all read off the sparse cells (the unit laws through
    evaluate), so certifying a bimodule compiles no kernel; the unit laws
    also make scalars act alike on both sides.  The first failing triple in
    lexicographic order is reported, with the laws in the order below at a
    tie."""
    A = M.algebra
    one = A.one()
    r, s = A.rank, M.rank
    L, R, T = M.left_map, M.right_map, A.mult
    for j in range(s):
        m = M.basis(j)
        if L.evaluate(one, m) != m:
            raise UnitActsBadly(f"{M.name}: 1*m != m on module basis {j}")
        if R.evaluate(m, one) != m:
            raise UnitActsBadly(f"{M.name}: m*1 != m on module basis {j}")
    # (law, its arguments' shape, positions of a, b and m among them, terms)
    laws = (
        ("(ab)m = a(bm)", (r, r, s), (0, 1, 2), [(1, L, 0, T), (-1, L, 1, L)]),
        ("m(ab) = (ma)b", (s, r, r), (1, 2, 0), [(1, R, 1, T), (-1, R, 0, R)]),
        ("(am)b = a(mb)", (r, s, r), (0, 2, 1), [(1, R, 0, L), (-1, L, 1, R)]),
    )
    failures = []
    for rank, (law, ranges, p, terms) in enumerate(laws):
        for key in _compose(terms, M.n):
            t, _ = _position(key, (*ranges, s))
            failures.append((tuple(t[q] for q in p), rank, law))
    if failures:
        triple, _, law = min(failures)
        raise ActionNotAssociative(law, triple)
    return M


def regular_bimodule(A: FiniteAlgebra) -> Bimodule:
    """A acting on itself by multiplication on both sides: both sides are
    A.mult itself, since e_i acting on e_j is e_i e_j on either side.  Its
    unit and associativity laws are A's own, so for an algebra that
    validate_algebra certified nothing is walked again."""
    M = Bimodule(A, A.rank, A.mult, A.mult, name=f"{A.name} (regular)")
    return M if A._certified is A.mult else validate_bimodule(M)


class Cochain:
    """A multilinear map A^degree -> M; values is its map's dense table, of
    shape (r,) * degree + (s,).  A degree outside 0 to
    MAX_COCHAIN_DEGREE + 1, the coboundary's inputs and values, is refused
    before the table is read."""

    def __init__(self, degree, module: Bimodule, values):
        if not 0 <= degree <= MAX_COCHAIN_DEGREE + 1:
            raise BadShape(f"cochain degree must be 0 to "
                           f"{MAX_COCHAIN_DEGREE + 1} (the coboundary's "
                           f"inputs and values), got {degree}")
        self.degree = degree
        self.module = module
        shape = (module.algebra.rank,) * degree + (module.rank,)
        self.map = _multilinear(values, module.n, shape, "cochain values")

    @property
    def values(self):
        return self.map.dense

    def evaluate(self, *args):
        if len(args) != self.degree:
            raise BadShape(
                f"cochain of degree {self.degree} applied to {len(args)} arguments")
        return self.map.evaluate(*args)

    def is_zero(self):
        return not self.map.nnz

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)


def zero_cochain(M, degree) -> Cochain:
    return vec_to_cochain(M, degree, M.zero() * M.algebra.rank ** degree)


def _delta_terms(g):
    """The terms of δg as circle products: L∘_1 g, then (-1)^i g∘_(i-1) μ
    for i = 1..ν, then (-1)^(ν+1) R∘_0 g, ν the degree of g."""
    M, nu = g.module, g.degree
    return [(1, M.left_map, 1, g.map),
            *(((-1) ** i, g.map, i - 1, M.algebra.mult)
              for i in range(1, nu + 1)),
            ((-1) ** (nu + 1), M.right_map, 0, g.map)]


def coboundary(g: Cochain) -> Cochain:
    """The alternating-sum coboundary, composed from the sparse cells of g,
    the actions and the multiplication (algebra._compose)."""
    M = g.module
    nu = g.degree
    if nu > MAX_COCHAIN_DEGREE:
        raise BadShape("coboundary evaluation is supported through degree "
                       f"{MAX_COCHAIN_DEGREE}")
    vec = [0] * (M.rank * M.algebra.rank ** (nu + 1))
    for key, v in _compose(_delta_terms(g), M.n).items():
        vec[key] = v
    return vec_to_cochain(M, nu + 1, vec)


def is_cocycle2(f: Cochain):
    """Check the degree-2 cocycle identity on all basis triples.

    Returns (verdict, violations).  When the verdict is true the derived
    identities are re-checked (_cocycle_consequences), as
    validate_deformation re-checks them for alpha_1.
    """
    if f.degree != 2:
        raise BadShape("cocycle check expects a degree-2 cochain")
    M = f.module
    A = M.algebra
    r, s = A.rank, M.rank
    # δf = a f(b, c) - f(ab, c) + f(a, bc) - f(a, b) c on every basis triple
    delta = _compose(_delta_terms(f), A.n)
    defects = {}
    for key in sorted(delta):
        triple, t = _position(key, (r, r, r, s))
        defects.setdefault(triple, [0] * s)[t] = delta[key]
    violations = [(triple, tuple(d)) for triple, d in defects.items()]
    if violations:
        return False, violations
    _cocycle_consequences(f)
    return True, []


def _cocycle_consequences(f):
    """Re-check what a degree-2 cocycle f satisfies: the unit-argument
    reductions and idempotent commutation; a failure raises SelfCheckFailed."""
    M = f.module
    A = M.algebra
    one = A.one()
    f11 = f.evaluate(one, one)
    for i in range(A.rank):
        d = A.basis(i)
        if f.evaluate(d, one) != M.lact(d, f11):
            raise SelfCheckFailed("cocycle consequence f(d,1) = d f(1,1) failed")
        if f.evaluate(one, d) != M.ract(f11, d):
            raise SelfCheckFailed("cocycle consequence f(1,d) = f(1,1) d failed")
    if A.within_cap(DERIVED_CHECK_CAP):
        idems = A.idempotents(DERIVED_CHECK_CAP)
    else:
        idems = (A.zero(), one)
    for e in idems:
        fee = f.evaluate(e, e)
        if M.lact(e, fee) != M.ract(fee, e):
            raise SelfCheckFailed(
                "cocycle consequence e f(e,e) = f(e,e) e failed")


def delta_matrix(M: Bimodule, degree):
    """Sparse matrix of the degree -> degree+1 coboundary map.

    Rows are indexed by the unit cochains of the source space in (tuple, module
    coordinate) order; each row maps flat target positions to coefficients.
    Returns (rows, source_dim, target_dim).

    The row of (T, m0) is three sparse templates, built once with their
    signs and reduced mod n, shifted by the flat index idx of T: the left
    term at (l·r^ν + idx)·s + k, merged term i at (u·r + v)·r^(ν-i)·s for
    each preimage (u, v) of T[i-1] above the base
    ((idx // r^(ν-i+1))·r^(ν-i+2) + idx mod r^(ν-i))·s + m0, and the right
    term at (idx·r + k)·s + c.  A row places the left term first, then
    merged i = 1..ν, then the right term.  A row in which no two placed
    entries share a column is kept as built, its values residues 1..n-1;
    only a row with merged entries is summed and reduced mod n again,
    dropping the entries that cancel.
    """
    A = M.algebra
    r, s = A.rank, M.rank
    n = A.n
    nu = degree
    src_dim = s * r ** nu
    end_sign = (-1) ** (nu + 1)
    left = [[(l * src_dim + k, v % n) for l in range(r)
             for k, v in M.left_map.cells[l][m0]] for m0 in range(s)]
    right = [[(k * s + c, end_sign * v % n) for k in range(r)
              for c, v in M.right_map.cells[m0][k]] for m0 in range(s)]
    preimages = _preimages(A.mult.cells)
    merged = []
    for i in range(1, nu + 1):
        low = r ** (nu - i)
        sign = (-1) ** i
        merged.append((low * r, low, [
            [((u * r + v) * low * s, sign * coeff % n)
             for u, v, coeff in preimages.get(t, ())] for t in range(r)]))

    rows = []
    for idx, T in enumerate(product(range(r), repeat=nu)):
        mid = [(((idx // high) * high * r + idx % low) * s + q, v)
               for (high, low, templates), t in zip(merged, T)
               for q, v in templates[t]]
        lo, hi = idx * s, idx * r * s
        for m0 in range(s):
            row = {lo + q: v for q, v in left[m0]}
            for q, v in mid:
                q += m0
                row[q] = row.get(q, 0) + v
            for q, v in right[m0]:
                q += hi
                row[q] = row.get(q, 0) + v
            if len(row) < len(left[m0]) + len(mid) + len(right[m0]):
                row = {q: y for q, x in row.items() if (y := x % n)}
            rows.append(row)
    return rows, src_dim, s * r ** (nu + 1)


def vec_to_cochain(M, degree, vec) -> Cochain:
    """The cochain whose flat, in delta_matrix's order, is vec."""
    shape = (M.algebra.rank,) * degree + (M.rank,)
    return Cochain(degree, M, Multilinear.from_flat(vec, M.n, shape))


@dataclass
class CohomologyDims:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int


def _coboundary_entries(M, degree):
    """E = r^ν·(nnz L + nnz R) + s·ν·r^(ν-1)·nnz(A), read off the maps: the
    entries delta_matrix's templates place, before any cancels."""
    r, s = M.algebra.rank, M.rank
    return (r ** degree * (M.left_map.nnz + M.right_map.nnz)
            + s * degree * r ** max(degree - 1, 0) * M.algebra.mult.nnz)


def _sieve(M, degree, cap=None, tagged=False):
    """Eliminate the rows of the degree coboundary map mod p, row i tagged
    by the unit column dst + i when tagged; returns (rank, pivots, src,
    dst).  Refuses a non-prime modulus and, before assembling the matrix,
    more coboundary entries than cap (DEFAULT_CAP when cap is None)."""
    p = M.n
    if not linal.is_prime(p):
        raise NonPrimeModulus(
            f"cohomology dimensions need a prime modulus, got {p}")
    entries = _coboundary_entries(M, degree)
    _refuse_above_cap(entries, cap, f"degree {degree} coboundary",
                      shown=f"{entries} entries", error=LinAlgCapExceeded)
    rows, src, dst = delta_matrix(M, degree)
    if tagged:
        for i, row in enumerate(rows):
            row[dst + i] = 1
    rank, pivots = linal.eliminate_modp(rows, p)
    return rank, pivots, src, dst


def cohomology_dims(M: Bimodule, degree, cap=None) -> CohomologyDims:
    """Exact dimensions of Z, B, and H in the requested degree over Z_p,
    for cochains of M.algebra with values in M."""
    if not 1 <= degree <= MAX_COCHAIN_DEGREE:
        raise BadShape("cohomology degree must be 1, 2, or 3")
    rank_out, _, dim_src, _ = _sieve(M, degree, cap)
    rank_in = _sieve(M, degree - 1, cap)[0]
    dim_z = dim_src - rank_out
    dims = CohomologyDims(degree, dim_z, rank_in, dim_z - rank_in)
    if dims.dim_h < 0:
        raise SelfCheckFailed("negative cohomology dimension")
    return dims


def _tag_part(row, src, dst, sign=1):
    """The source vector a tagged row carries in its columns >= dst."""
    vec = [0] * src
    for c, x in row.items():
        vec[c - dst] = sign * x
    return vec


def cocycle_space(M: Bimodule, degree=2, cap=None):
    """Basis of the cocycle space in the given degree, as Cochains."""
    _, pivots, src, dst = _sieve(M, degree, cap, tagged=True)
    return [vec_to_cochain(M, degree, _tag_part(row, src, dst))
            for lead, row in pivots.items() if lead >= dst]


def solve_coboundary(f: Cochain, cap=None):
    """g with coboundary(g) = f, re-verified, or None when f is not a
    coboundary; f of degree 1 to 3 over a prime, reduced against the tagged
    rows of the coboundary one degree below (_sieve).  f is in its image
    exactly when only tag columns, which carry -g, are left."""
    nu = f.degree
    if not 1 <= nu <= MAX_COCHAIN_DEGREE:
        raise BadShape(f"coboundary equations are solved in degrees 1 to "
                       f"{MAX_COCHAIN_DEGREE}, got {nu}")
    M, p, vec = f.module, f.module.n, f.map.flat
    _, pivots, src, dst = _sieve(M, nu - 1, cap, tagged=True)
    target = {c: x for c, x in enumerate(vec) if x}
    residue = linal.reduce_modp(pivots, target, p)
    if residue and min(residue) < dst:
        return None
    g = vec_to_cochain(M, nu - 1, _tag_part(residue, src, dst, -1))
    if coboundary(g).map.flat != vec:
        raise SelfCheckFailed("coboundary witness failed to re-verify")
    return g
