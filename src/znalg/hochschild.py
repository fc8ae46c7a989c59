"""Bimodules, cochains, coboundaries, and low-degree cohomology dimensions.

Bimodule actions and cochains are nested structure-constant tables in the
format of algebra.py, checked by its _check_table and evaluated by its
_bilinear and _linear kernels; a cochain contracts one argument at a time
over that argument's support.  Multilinearity makes the table a lossless
representation and turns cocycle/coboundary questions into exact linear
algebra over Z_p.  The coboundary of a table is evaluated directly from the
alternating-sum formula; for rank, kernel and span questions the same map is
materialized as sparse rows over the cochain coordinate spaces and
eliminated by linal for any prime p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import FiniteAlgebra, _bilinear, _check_table, _linear
from .errors import (
    ActionNotAssociative,
    BadShape,
    LinAlgCapExceeded,
    NonPrimeModulus,
    NotACocycle,
    SelfCheckFailed,
    UnitActsBadly,
)
from . import linal

# Ceiling on the dimension of the target cochain space in rank computations.
# Sized so the sphere-poset degree-2 computation fits and degree 3 does not.
DEFAULT_LINALG_CAP = 150_000

# Idempotent sweeps inside derived-identity checks stay below this element
# count; is_cocycle2 declares no errors, so it narrows instead of refusing.
DERIVED_CHECK_CAP = 2 ** 12


class Bimodule:
    """A finite bimodule over a FiniteAlgebra, with basis action tables.

    left[i][j] is basis element i of the algebra acting on module basis
    element j; right[j][i] is module basis j acted on by algebra basis i.
    """

    def __init__(self, algebra: FiniteAlgebra, rank, left, right, name=""):
        self.algebra = algebra
        self.rank = int(rank)
        self.n = n = algebra.n
        self.left = tuple(
            tuple(tuple(v % n for v in cell) for cell in row) for row in left)
        self.right = tuple(
            tuple(tuple(v % n for v in cell) for cell in row) for row in right)
        self.name = name or f"bimodule(s={self.rank}) over {algebra.name}"

    def __repr__(self):
        return f"Bimodule({self.name!r})"

    def zero(self):
        return (0,) * self.rank

    def basis(self, j):
        return tuple(1 if i == j else 0 for i in range(self.rank))

    def add(self, x, y):
        n = self.n
        return tuple((a + b) % n for a, b in zip(x, y))

    def sub(self, x, y):
        n = self.n
        return tuple((a - b) % n for a, b in zip(x, y))

    def neg(self, x):
        n = self.n
        return tuple((-a) % n for a in x)

    def smul(self, c, x):
        n = self.n
        c = c % n
        return tuple((c * a) % n for a in x)

    def lact(self, a, m):
        """Left action of algebra element a on module element m."""
        return _bilinear(self.left, a, m, self.n, self.rank)

    def ract(self, m, a):
        """Right action of algebra element a on module element m."""
        return _bilinear(self.right, m, a, self.n, self.rank)


def validate_bimodule(spec, algebra=None, name=None) -> Bimodule:
    """Certify the bimodule axioms on basis triples and return the Bimodule."""
    if isinstance(spec, Bimodule):
        M = spec
    else:
        if algebra is None:
            raise BadShape("validate_bimodule needs the underlying algebra")
        try:
            rank = int(spec["rank"])
            left = spec["left_action"]
            right = spec["right_action"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadShape(f"bimodule spec missing or malformed field: {exc}")
        r = algebra.rank
        _check_table(left, (r, rank, rank), "left action table")
        _check_table(right, (rank, r, rank), "right action table")
        M = Bimodule(algebra, rank, left, right, name=name or spec.get("name", ""))
    _certify_bimodule(M)
    return M


def _certify_bimodule(M):
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
    # base-ring symmetry: scalars act the same on both sides (scalar
    # multiples of 1 must commute with the module)
    for c in range(A.n):
        ca = A.smul(c, one)
        for j in range(s):
            m = M.basis(j)
            if M.lact(ca, m) != M.ract(m, ca):
                raise ActionNotAssociative("scalar symmetry", (c, j))


def regular_bimodule(A: FiniteAlgebra) -> Bimodule:
    """A acting on itself by multiplication on both sides."""
    left = A.table
    right = tuple(tuple(A.table[j][i] for i in range(A.rank))
                  for j in range(A.rank))
    return validate_bimodule(
        Bimodule(A, A.rank, left, right, name=f"{A.name} (regular)"))


@dataclass
class Cochain:
    """A multilinear map A^degree -> M, stored as its basis-tuple table."""
    degree: int
    module: Bimodule
    values: tuple

    def evaluate(self, *args):
        if len(args) != self.degree:
            raise BadShape(
                f"cochain of degree {self.degree} applied to {len(args)} arguments")
        if not args:
            return self.values
        return _contract(self.values, args, self.module.n, self.module.rank)

    def is_zero(self):
        def flat(v):
            if isinstance(v, tuple) and v and isinstance(v[0], tuple):
                return all(flat(c) for c in v)
            return not any(v)
        return flat(self.values)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)


def _contract(table, args, n, width):
    """A multilinear table evaluated on args: the first argument contracts
    the table rows that its support selects, the rest recurse."""
    if len(args) == 1:
        return _linear(table, args[0], n, width)
    if len(args) == 2:
        return _bilinear(table, args[0], args[1], n, width)
    head, rest = args[0], args[1:]
    rows = [_contract(sub, rest, n, width) if c else None
            for c, sub in zip(head, table)]
    return _linear(rows, head, n, width)


def cochain_from_table(M, degree, values) -> Cochain:
    """Normalize a nested table into a Cochain, checking its shape."""
    if degree < 0:
        raise BadShape(f"cochain degree must be >= 0, got {degree}")
    shape = (M.algebra.rank,) * degree + (M.rank,)
    return vec_to_cochain(M, degree, _check_table(values, shape, "cochain values"))


def zero_cochain(M, degree) -> Cochain:
    def build(depth):
        if depth == 0:
            return M.zero()
        return tuple(build(depth - 1) for _ in range(M.algebra.rank))
    return Cochain(degree, M, build(degree))


def coboundary(g: Cochain) -> Cochain:
    """The alternating-sum coboundary, tabulated on basis tuples."""
    M = g.module
    A = M.algebra
    r = A.rank
    nu = g.degree
    if nu > 3:
        raise BadShape("coboundary evaluation is supported through degree 3")

    def value(T):
        args = [A.basis(i) for i in T]
        acc = M.lact(args[0], g.evaluate(*args[1:]))
        sign = 1
        for i in range(1, nu + 1):
            sign = -sign
            merged = args[:i - 1] + [A.table[T[i - 1]][T[i]]] + args[i + 1:]
            acc = M.add(acc, M.smul(sign, g.evaluate(*merged)))
        sign = -sign
        acc = M.add(acc, M.smul(sign, M.ract(g.evaluate(*args[:-1]), args[-1])))
        return acc

    def build(depth, prefix):
        if depth == 0:
            return value(prefix)
        return tuple(build(depth - 1, prefix + (i,)) for i in range(r))

    return Cochain(nu + 1, M, build(nu + 1, ()))


def is_cocycle2(f: Cochain, idempotent_cap=DERIVED_CHECK_CAP):
    """Check the degree-2 cocycle identity on all basis triples.

    Returns (verdict, violations).  When the verdict is true the derived
    identities (idempotent commutation and the unit-argument reductions) are
    re-checked; those are consequences, so a failure raises SelfCheckFailed.
    """
    if f.degree != 2:
        raise BadShape("cocycle check expects a degree-2 cochain")
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
    if violations:
        return False, violations

    one = A.one()
    f11 = f.evaluate(one, one)
    for i in range(r):
        d = A.basis(i)
        if f.evaluate(d, one) != M.lact(d, f11):
            raise SelfCheckFailed("cocycle consequence f(d,1) = d f(1,1) failed")
        if f.evaluate(one, d) != M.ract(f11, d):
            raise SelfCheckFailed("cocycle consequence f(1,d) = f(1,1) d failed")
    if A.size <= idempotent_cap:
        idems = (x for x in A.elements(idempotent_cap) if A.mul(x, x) == x)
    else:
        idems = (A.zero(), one)
    for e in idems:
        fee = f.evaluate(e, e)
        if M.lact(e, fee) != M.ract(fee, e):
            raise SelfCheckFailed(
                "cocycle consequence e f(e,e) = f(e,e) e failed")
    return True, []


def delta_matrix(M: Bimodule, degree):
    """Sparse matrix of the degree -> degree+1 coboundary map.

    Rows are indexed by the unit cochains of the source space in (tuple, module
    coordinate) order; each row maps flat target positions to coefficients.
    Returns (rows, source_dim, target_dim).
    """
    A = M.algebra
    r, s = A.rank, M.rank
    n = A.n
    nu = degree
    src_tuples = list(product(range(r), repeat=nu))
    dst_dim = s * r ** (nu + 1)

    def flat(T, coord):
        idx = 0
        for t in T:
            idx = idx * r + t
        return idx * s + coord

    rows = []
    for T in src_tuples:
        for m0 in range(s):
            row = {}
            for l in range(r):
                vec = M.left[l][m0]
                T2 = (l,) + T
                for k, v in enumerate(vec):
                    if v:
                        pos = flat(T2, k)
                        row[pos] = (row.get(pos, 0) + v) % n
            sign = 1
            for i in range(1, nu + 1):
                sign = -sign
                ti = T[i - 1]
                for u in range(r):
                    for v in range(r):
                        coeff = A.table[u][v][ti]
                        if coeff:
                            T2 = T[:i - 1] + (u, v) + T[i:]
                            pos = flat(T2, m0)
                            row[pos] = (row.get(pos, 0) + sign * coeff) % n
            sign = -sign
            for k in range(r):
                vec = M.right[m0][k]
                T2 = T + (k,)
                for c2, v in enumerate(vec):
                    if v:
                        pos = flat(T2, c2)
                        row[pos] = (row.get(pos, 0) + sign * v) % n
            rows.append({p: c for p, c in row.items() if c})
    return rows, len(src_tuples) * s, dst_dim


def cochain_to_vec(f: Cochain):
    """Flat coefficient tuple in the same order delta_matrix uses."""
    M = f.module
    r = M.algebra.rank
    out = []
    if f.degree == 0:
        return tuple(f.values)
    for T in product(range(r), repeat=f.degree):
        cell = f.values
        for idx in T:
            cell = cell[idx]
        out.extend(cell)
    return tuple(out)


def vec_to_cochain(M, degree, vec) -> Cochain:
    r = M.algebra.rank
    s = M.rank
    if degree == 0:
        return Cochain(0, M, tuple(v % M.n for v in vec))

    def build(depth, base):
        if depth == 0:
            return tuple(v % M.n for v in vec[base:base + s])
        step = s * r ** (depth - 1)
        return tuple(build(depth - 1, base + i * step) for i in range(r))

    return Cochain(degree, M, build(degree, 0))


@dataclass
class CohomologyDims:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int


def cohomology_dims(A: FiniteAlgebra, M: Bimodule, degree,
                    linalg_cap=DEFAULT_LINALG_CAP) -> CohomologyDims:
    """Exact dimensions of Z, B, and H in the requested degree over Z_p."""
    p = A.n
    if not linal.is_prime(p):
        raise NonPrimeModulus(
            f"cohomology dimensions need a prime modulus, got {p}")
    if degree < 1 or degree > 3:
        raise BadShape("cohomology degree must be 1, 2, or 3")
    r, s = A.rank, M.rank
    dim_src = s * r ** degree
    dim_dst = s * r ** (degree + 1)
    if dim_dst > linalg_cap or dim_src > linalg_cap:
        raise LinAlgCapExceeded(
            f"degree {degree}: cochain space of dimension {dim_dst} exceeds "
            f"the cap {linalg_cap}")

    rank_out = linal.eliminate_modp(delta_matrix(M, degree)[0], p)[0]
    rank_in = linal.eliminate_modp(delta_matrix(M, degree - 1)[0], p)[0]
    dim_z = dim_src - rank_out
    dim_b = rank_in
    dims = CohomologyDims(degree, dim_z, dim_b, dim_z - dim_b)
    if dims.dim_h < 0:
        raise SelfCheckFailed("negative cohomology dimension")
    return dims


def _tagged_pivots(M, degree, p, linalg_cap):
    """Sieve of the degree coboundary rows with row i tagged by the unit
    column dst + i; returns (pivots, src, dst)."""
    dst = M.rank * M.algebra.rank ** (degree + 1)
    if dst > linalg_cap:
        raise LinAlgCapExceeded(f"target dimension {dst} exceeds {linalg_cap}")
    rows, src, dst = delta_matrix(M, degree)
    for i, row in enumerate(rows):
        row[dst + i] = 1
    return linal.eliminate_modp(rows, p)[1], src, dst


def _tag_part(row, src, dst, sign=1):
    """The source vector a tagged row carries in its columns >= dst."""
    vec = [0] * src
    for c, x in row.items():
        vec[c - dst] = sign * x
    return vec


def _sparse(f: Cochain):
    return {c: x for c, x in enumerate(cochain_to_vec(f)) if x}


def cocycle_space(A: FiniteAlgebra, M: Bimodule, degree=2,
                  linalg_cap=DEFAULT_LINALG_CAP):
    """Basis of the cocycle space in the given degree, as Cochains."""
    p = A.n
    if not linal.is_prime(p):
        raise NonPrimeModulus(f"cocycle space needs a prime modulus, got {p}")
    pivots, src, dst = _tagged_pivots(M, degree, p, linalg_cap)
    return [vec_to_cochain(M, degree, _tag_part(row, src, dst))
            for lead, row in pivots.items() if lead >= dst]


def is_coboundary2(f: Cochain, linalg_cap=DEFAULT_LINALG_CAP):
    """Solve the degree-1 coboundary equation for f; returns the witness
    cochain or None when f is not a coboundary.  Prime modulus only."""
    M = f.module
    A = M.algebra
    p = A.n
    if not linal.is_prime(p):
        raise NonPrimeModulus(
            f"coboundary solving needs a prime modulus, got {p}")
    ok, violations = is_cocycle2(f)
    if not ok:
        raise NotACocycle(f"not a cocycle; first violation {violations[0]}")
    pivots, src, dst = _tagged_pivots(M, 1, p, linalg_cap)
    residue = linal.reduce_modp(pivots, _sparse(f), p)
    if residue and min(residue) < dst:
        return None
    g = vec_to_cochain(M, 1, _tag_part(residue, src, dst, -1))
    if cochain_to_vec(coboundary(g)) != tuple(c % p for c in cochain_to_vec(f)):
        raise SelfCheckFailed("coboundary witness failed to re-verify")
    return g


def nontrivial_cocycle2(A: FiniteAlgebra, M: Bimodule,
                        linalg_cap=DEFAULT_LINALG_CAP):
    """A degree-2 cocycle that is not a coboundary, or None if H^2 = 0."""
    p = A.n
    if not linal.is_prime(p):
        raise NonPrimeModulus(
            f"nontrivial cocycle search needs a prime modulus, got {p}")
    _, boundaries = linal.eliminate_modp(delta_matrix(M, 1)[0], p)
    pivots, src, dst = _tagged_pivots(M, 2, p, linalg_cap)
    for lead, row in pivots.items():
        if lead >= dst:
            cocycle = {c - dst: x for c, x in row.items()}
            if linal.reduce_modp(boundaries, cocycle, p):
                return vec_to_cochain(M, 2, _tag_part(row, src, dst))
    return None
