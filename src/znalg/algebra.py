"""Finite associative unital Z_n-algebras presented by structure-constant tables.

An algebra of rank r over Z_n stores an r x r table whose (i, j) entry is the
coordinate vector of the product of basis elements i and j.  Elements are
plain tuples of r residues mod n; all arithmetic is exact.  Every algebra in
this package is built through validate_algebra, which certifies associativity
and the unit laws on basis triples (bilinearity extends both to all elements).
Units and nilpotents are decided by one walk over the powers of an element
(FiniteAlgebra.inverse and nilpotency_index); the divisor scan is only for
one-sided ideal membership.

Work is refused, never sampled, by one rule with four measures: a scan
over the elements refuses on their count (FiniteAlgebra.within_cap); a power
walk refuses after cap powers, so an algebra within the cap never refuses a
walk and a larger one still answers every short walk; a coboundary matrix
refuses on the entries it would assemble (hochschild._sieve); and a
deformation's series recursion refuses on the cell visits it would make
(deformation._series_work).  All raise CapExceeded through
_refuse_above_cap; None means DEFAULT_CAP.

The same nested-table format carries bimodule actions, cochains, deformation
corrections and restriction maps.  _check_table is the one shape and entry
check for all of them.  _bilinear and _linear evaluate a table on
elements; deformation._coefficient sums one coefficient of a deformed
product over the base and correction tables in a single pass, and
deformation._kronecker_product a whole product.  All of them read sparse
cells, not the dense table: each owner builds, once, the (k, v) pairs with
v != 0 of every cell (_sparse_cells), so a product walks only the nonzero
entries.  The dense tables stay the
public form that equality, hashing, reports and documents read.

Every identity certified on basis triples (associativity here, the bimodule
laws, the cocycle identity and order-k associativity of a deformation) goes
through _triple_defects.  It reads the sparse cells of two tables composed
as outer(inner(x, y), z) or outer(x, inner(y, z)) and walks only the nonzero
paths of the composition; it evaluates no product, so a certificate costs
the nonzero paths rather than r^3 products of basis vectors.  The kernels
stay private so that they are never timed as spans of their own when the
hot methods built on them are traced.  For the same reason
_refuse_above_cap, the one refusal behind every scan and walk, is private.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    BadShape,
    BadUnit,
    CapExceeded,
    ModulusMismatch,
    NonAssociative,
    NotIdempotent,
    SelfCheckFailed,
)

# Refusal threshold when the caller gives no cap: scans that enumerate
# n**rank elements, and power walks, raise CapExceeded above this.
DEFAULT_CAP = 2 ** 20

Coords = tuple  # element of an algebra: tuple of rank residues mod n


class _ZnModule:
    """Coordinate arithmetic of Z_n^rank, shared by algebras and bimodules."""

    def __init__(self, modulus, rank):
        self.n = int(modulus)
        self.rank = int(rank)

    def zero(self):
        return (0,) * self.rank

    def basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

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


class FiniteAlgebra(_ZnModule):
    """A finite associative unital algebra over Z_n, given by its table.

    Construct through validate_algebra (or the helper constructors below);
    the constructor itself only normalizes and stores.
    """

    def __init__(self, modulus, rank, table, unit, name=""):
        super().__init__(modulus, rank)
        self.table = _reduce_table(table, self.n)
        self.unit = tuple(v % self.n for v in unit)
        self.name = name or f"algebra(n={self.n},r={self.rank})"
        self._cells = _sparse_cells(self.table, 2)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, n={self.n}, rank={self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.n == other.n
            and self.rank == other.rank
            and self.table == other.table
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.n, self.rank, self.table, self.unit))

    @property
    def size(self):
        return self.n ** self.rank

    def one(self):
        return self.unit

    def coerce(self, x):
        """Normalize an iterable of ints into a valid element tuple; an
        entry that is not an integer (a float, a bool, a string) is refused
        with BadShape, never truncated."""
        n = self.n
        t = tuple(_check_int(v, "element coordinate") % n for v in x)
        if len(t) != self.rank:
            raise BadShape(f"element of length {len(t)}, expected {self.rank}")
        return t

    def mul(self, x, y):
        return _bilinear(self._cells, x, y, self.n, self.rank)

    def elements(self, cap=None):
        """All elements in lexicographic coordinate order; refuses above the cap."""
        self.require_within_cap(cap)
        return product(range(self.n), repeat=self.rank)

    def within_cap(self, cap=None):
        """Whether the elements may be enumerated: at most cap of them."""
        return self.size <= _cap_limit(cap)

    def require_within_cap(self, cap=None):
        if not self.within_cap(cap):
            _refuse_above_cap(self.size, cap, self.name)

    def require_idempotent(self, e):
        """e as an element, refused with NotIdempotent unless e*e = e."""
        e = self.coerce(e)
        if self.mul(e, e) != e:
            raise NotIdempotent(f"{e} is not idempotent in {self.name}")
        return e

    def idempotents(self, cap=None):
        """Every e with e*e = e, in lexicographic order."""
        return [x for x in self.elements(cap) if self.mul(x, x) == x]

    def right_divisors(self, x, targets, cap=None):
        """{t: y} for every target t in xA, with y the lexicographically
        first solution of x*y = t; the scan stops once every target is
        found."""
        remaining = set(targets)
        found = {}
        mul = self.mul
        for y in self.elements(cap):
            if not remaining:
                break
            t = mul(x, y)
            if t in remaining:
                remaining.remove(t)
                found[t] = y
        return found

    def inverse(self, x, cap=None):
        """The inverse of x, or None when x is not a unit.  In a finite ring
        x is a unit exactly when some power x^k is 1, and then x^(k-1) is
        its inverse; the other side x*x^(k-1) = 1 is re-checked, and a
        failure raises SelfCheckFailed.  A walk longer than cap powers is
        refused."""
        y, last, _ = self._power_walk(x, cap)
        if last != self.unit:
            return None
        if self.mul(x, y) != self.unit:
            raise SelfCheckFailed(
                f"{self.name}: {y} is a left inverse of {x} but not a right "
                "inverse")
        return y

    def nilpotency_index(self, x, cap=None):
        """The least k with x^k = 0, or None when x is not nilpotent.  A
        walk longer than cap powers is refused."""
        _, last, k = self._power_walk(x, cap)
        return None if any(last) else k

    def _power_walk(self, x, cap=None):
        """(x^(k-1), x^k, k) for the first power x^k that is 0 or 1 or, for
        k > 1, equal to x or to the anchor: the power x^j last kept at
        j = 1, 2, 4, ... below L or at j = L = size.bit_length() - 1.  L
        bounds the composition length of the algebra, so by Fitting's lemma
        the powers from x^L on run round a cycle back to x^L; x and the
        earlier anchors end most walks as early as a set of every power
        would.  Only the anchor is kept, and a walk takes at most size
        powers, so it can pass cap only when size does; after cap powers it
        is refused with CapExceeded."""
        limit = _cap_limit(cap)
        last = self.size.bit_length() - 1
        prev, p, anchor = self.unit, x, None
        for k in range(1, limit + 1):
            if not any(p) or p == self.unit or (
                    k > 1 and (p == x or p == anchor)):
                return prev, p, k
            if k == last or (k < last and not k & (k - 1)):
                anchor = p
            prev, p = p, self.mul(p, x)
        _refuse_above_cap(limit + 1, cap, f"{self.name}: power walk of {x}",
                          shown=f"{limit + 1} powers")


def _cap_limit(cap):
    return DEFAULT_CAP if cap is None else cap


def _refuse_above_cap(count, cap, what, shown=None, error=CapExceeded):
    """The one refusal rule for exhaustive work: a count above cap
    (DEFAULT_CAP when cap is None) raises error, a CapExceeded, naming the
    count of elements or the text shown in its place."""
    limit = _cap_limit(cap)
    if count > limit:
        raise error(
            f"{what}: {shown or f'{count} elements'} exceeds cap {limit}")


def _reduce_table(table, n):
    """A table of cells as nested tuples, every entry reduced mod n."""
    return tuple(tuple(tuple(v % n for v in cell) for cell in row)
                 for row in table)


def _sparse_cells(table, depth):
    """The table with every cell below depth levels of nesting replaced by
    the tuple of its (k, v) pairs with v != 0, in coordinate order; depth 0
    sparsifies a single vector."""
    if depth == 0:
        return tuple((k, v) for k, v in enumerate(table) if v)
    return tuple(_sparse_cells(sub, depth - 1) for sub in table)


def _bilinear(cells, x, y, n, width):
    """Sum of x_i y_j table[i][j] mod n over the sparse cells of the table:
    the one bilinear product behind algebra, bimodule, deformation and
    degree-2 cochain tables."""
    acc = [0] * width
    for i, xi in enumerate(x):
        if xi:
            row = cells[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in row[j]:
                        acc[k] = (acc[k] + c * v) % n
    return tuple(acc)


def _linear(rows, x, n, width):
    """Sum of x_i rows[i] mod n over sparse rows; rows at zero coordinates
    of x are never read."""
    acc = [0] * width
    for i, xi in enumerate(x):
        if xi:
            for k, v in rows[i]:
                acc[k] = (acc[k] + xi * v) % n
    return tuple(acc)


def _preimages(cells):
    """{t: every (u, v, coeff) with coordinate t of cell (u, v) equal to
    coeff != 0, in (u, v) order}, from the sparse cells of a bilinear
    table."""
    pre = {}
    for u, row in enumerate(cells):
        for v, cell in enumerate(row):
            for t, coeff in cell:
                pre.setdefault(t, []).append((u, v, coeff))
    return pre


def _triple_defects(terms, n, width):
    """{(x, y, z): defect} for every basis triple whose defect is nonzero
    mod n, the defect being the signed sum of the terms on e_x, e_y, e_z.

    A term is (sign, form, outer, inner) over the sparse cells of two
    bilinear tables: form "(xy)z" is outer(inner(x, y), z) and "x(yz)" is
    outer(x, inner(y, z)).  Only nonzero paths are walked: "(xy)z" goes from
    each entry (l, v) of an inner cell along the nonempty cells of outer's
    row l, and "x(yz)" goes from each nonempty outer cell (x, l) along the
    preimage list of l in inner.  No product is evaluated."""
    acc = {}
    for sign, form, outer, inner in terms:
        if form == "(xy)z":
            rows = [[(z, cell) for z, cell in enumerate(row) if cell]
                    for row in outer]
            paths = (((x, y, z), sign * v, cell)
                     for x, irow in enumerate(inner)
                     for y, icell in enumerate(irow)
                     for l, v in icell
                     for z, cell in rows[l])
        else:
            pre = _preimages(inner)
            paths = (((x, y, z), sign * v, cell)
                     for x, row in enumerate(outer)
                     for l, cell in enumerate(row) if cell
                     for y, z, v in pre.get(l, ()))
        for key, c, cell in paths:
            d = acc.get(key)
            if d is None:
                d = acc[key] = [0] * width
            for t, w in cell:
                d[t] += c * w
    defects = {}
    for key, d in acc.items():
        d = tuple(v % n for v in d)
        if any(d):
            defects[key] = d
    return defects


def _check_table(table, shape, what):
    """Require nested arrays of exactly the given shape with integer entries;
    returns the entries in row-major order."""
    level = [table]
    for depth, size in enumerate(shape):
        below = []
        for node in level:
            if not isinstance(node, (list, tuple)):
                raise BadShape(f"{what} is not an array at depth {depth}")
            if len(node) != size:
                raise BadShape(
                    f"{what} has an array of length {len(node)} at depth "
                    f"{depth}, expected {size}")
            below.extend(node)
        level = below
    if not all(type(v) is int for v in level):  # bool is an int subclass
        raise BadShape(f"{what} entries must be integers")
    return level


def _check_int(value, what):
    """Require an integer; a float such as 2.5 is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadShape(f"{what} must be an integer, got {value!r}")
    return value


def validate_algebra(spec, name=None) -> FiniteAlgebra:
    """Certify a raw algebra description and return a FiniteAlgebra.

    spec is a mapping with keys modulus, rank, structure (r x r array of
    length-r integer arrays), unit (length-r array), and optionally name;
    a FiniteAlgebra instance is re-certified as is.
    """
    if isinstance(spec, FiniteAlgebra):
        alg = spec
    else:
        try:
            modulus = _check_int(spec["modulus"], "modulus")
            rank = _check_int(spec["rank"], "rank")
            structure = spec["structure"]
            unit = spec["unit"]
        except (KeyError, TypeError) as exc:
            raise BadShape(f"algebra spec missing or malformed field: {exc}")
        if modulus < 2:
            raise BadShape(f"modulus must be >= 2, got {modulus}")
        if rank < 1:
            raise BadShape(f"rank must be >= 1, got {rank}")
        _check_table(structure, (rank, rank, rank), "structure table")
        _check_table(unit, (rank,), "unit vector")
        alg = FiniteAlgebra(modulus, rank, structure, unit,
                            name or spec.get("name") or "")
    _certify(alg)
    return alg


def _certify(alg):
    """Two-sided unit laws, then associativity on all basis triples as the
    defect (e_i e_j) e_k - e_i (e_j e_k) of the sparse cells; the first
    failing triple in lexicographic order is reported with both sides."""
    r, mul = alg.rank, alg.mul
    for i in range(r):
        ei = alg.basis(i)
        if mul(alg.unit, ei) != ei or mul(ei, alg.unit) != ei:
            raise BadUnit(f"{alg.name}: unit law fails on basis element {i}")
    cells = alg._cells
    defects = _triple_defects(
        [(1, "(xy)z", cells, cells), (-1, "x(yz)", cells, cells)], alg.n, r)
    if defects:
        i, j, k = min(defects)
        raise NonAssociative((i, j, k), mul(alg.table[i][j], alg.basis(k)),
                             mul(alg.basis(i), alg.table[j][k]))


# helper constructors (tables spelled out in code; there is no parser)

def zn(n) -> FiniteAlgebra:
    """The ring Z_n as a rank-1 algebra over itself."""
    return validate_algebra(
        {"modulus": n, "rank": 1, "structure": [[[1]]], "unit": [1]},
        name=f"Z{n}")


def zn_poly_x2(n) -> FiniteAlgebra:
    """Z_n[X]/(X^2) with basis {1, x}."""
    structure = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return validate_algebra(
        {"modulus": n, "rank": 2, "structure": structure, "unit": [1, 0]},
        name=f"Z{n}[X]/(X^2)")


def matrix_algebra(n, size) -> FiniteAlgebra:
    """Full matrix algebra M_size(Z_n); basis e_ab ordered by (a, b)."""
    pairs = [(a, b) for a in range(size) for b in range(size)]
    return _matrix_units_algebra(n, pairs, f"M{size}(Z{n})")


def triangular_algebra(n, size) -> FiniteAlgebra:
    """Upper triangular matrices T_size(Z_n); basis e_ab with a <= b."""
    pairs = [(a, b) for a in range(size) for b in range(a, size)]
    return _matrix_units_algebra(n, pairs, f"T{size}(Z{n})")


def _matrix_units_algebra(n, pairs, name):
    index = {p: i for i, p in enumerate(pairs)}
    rank = len(pairs)
    structure = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c and (a, d) in index:
                structure[i][j][index[(a, d)]] = 1
    unit = [0] * rank
    for a, b in pairs:
        if a == b:
            unit[index[(a, b)]] = 1
    return validate_algebra(
        {"modulus": n, "rank": rank, "structure": structure, "unit": unit},
        name=name)


def direct_product(factors) -> FiniteAlgebra:
    """Block-diagonal product of algebras sharing one modulus."""
    factors = list(factors)
    if not factors:
        raise BadShape("direct product needs at least one factor")
    n = factors[0].n
    for f in factors:
        if f.n != n:
            raise ModulusMismatch(
                f"moduli differ: {f.n} vs {n} (products are same-modulus only)")
    if len(factors) == 1:
        return factors[0]
    rank = sum(f.rank for f in factors)
    offsets = []
    pos = 0
    for f in factors:
        offsets.append(pos)
        pos += f.rank
    structure = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    unit = [0] * rank
    for f, off in zip(factors, offsets):
        for i in range(f.rank):
            for j in range(f.rank):
                cell = f.table[i][j]
                for k, v in enumerate(cell):
                    structure[off + i][off + j][off + k] = v
        for k, v in enumerate(f.unit):
            unit[off + k] = v
    name = " x ".join(f.name for f in factors)
    return validate_algebra(
        {"modulus": n, "rank": rank, "structure": structure, "unit": unit},
        name=name)


def algebra_to_doc(alg) -> dict:
    """Structured-document form of an algebra (inverse of validate_algebra)."""
    return {
        "modulus": alg.n,
        "rank": alg.rank,
        "structure": [[list(cell) for cell in row] for row in alg.table],
        "unit": list(alg.unit),
        "name": alg.name,
    }
