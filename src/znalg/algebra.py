"""Finite associative unital Z_n-algebras presented by structure-constant tables.

An algebra of rank r over Z_n stores an r x r table whose (i, j) entry is the
coordinate vector of the product of basis elements i and j.  Elements are
plain tuples of r residues mod n; all arithmetic is exact.  Every algebra in
this package is built through validate_algebra, which certifies associativity
and the unit laws on basis triples (bilinearity extends both to all elements).

The same nested-table format carries bimodule actions, cochains, deformation
corrections and restriction maps.  _check_table is the one shape and entry
check for all of them, and _bilinear and _linear are the only code that
evaluates a table; both stay private so that they are never timed as spans
of their own when the hot methods built on them are traced.
"""

from __future__ import annotations

from itertools import product

from .errors import BadShape, BadUnit, CapExceeded, ModulusMismatch, NonAssociative

# Refusal threshold for exhaustive element scans; operations that enumerate
# n**rank elements raise CapExceeded above this unless the caller overrides.
DEFAULT_CAP = 2 ** 20

Coords = tuple  # element of an algebra: tuple of rank residues mod n


class FiniteAlgebra:
    """A finite associative unital algebra over Z_n, given by its table.

    Construct through validate_algebra (or the helper constructors below);
    the constructor itself only normalizes and stores.
    """

    def __init__(self, modulus, rank, table, unit, name=""):
        self.n = int(modulus)
        self.rank = int(rank)
        self.table = tuple(
            tuple(tuple(v % self.n for v in cell) for cell in row) for row in table
        )
        self.unit = tuple(v % self.n for v in unit)
        self.name = name or f"algebra(n={self.n},r={self.rank})"

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

    def zero(self):
        return (0,) * self.rank

    def one(self):
        return self.unit

    def basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def coerce(self, x):
        """Normalize an iterable of ints into a valid element tuple."""
        t = tuple(int(v) % self.n for v in x)
        if len(t) != self.rank:
            raise BadShape(f"element of length {len(t)}, expected {self.rank}")
        return t

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

    def mul(self, x, y):
        return _bilinear(self.table, x, y, self.n, self.rank)

    def power(self, x, k):
        acc = self.unit
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def elements(self, cap=None):
        """All elements in lexicographic coordinate order; refuses above the cap."""
        self.require_within_cap(cap)
        return product(range(self.n), repeat=self.rank)

    def require_within_cap(self, cap=None):
        limit = DEFAULT_CAP if cap is None else cap
        if self.size > limit:
            raise CapExceeded(
                f"{self.name}: {self.size} elements exceeds cap {limit}")

    def inverse(self, x, cap=None):
        """The two-sided inverse of x by scanning all elements, or None when
        x is not a unit."""
        one = self.unit
        for y in self.elements(cap):
            if self.mul(x, y) == one and self.mul(y, x) == one:
                return y
        return None

    def nilpotency_index(self, x):
        """The least k with x^k = 0, or None when the powers of x cycle
        without reaching zero."""
        if not any(x):
            return 1
        p, index, seen = x, 1, {x}
        while True:
            p = self.mul(p, x)
            index += 1
            if not any(p):
                return index
            if p in seen:
                return None
            seen.add(p)


def _bilinear(table, x, y, n, width):
    """Sum of x_i y_j table[i][j] mod n: the one bilinear product behind
    algebra, bimodule, deformation and degree-2 cochain tables."""
    acc = [0] * width
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in enumerate(row[j]):
                        if v:
                            acc[k] = (acc[k] + c * v) % n
    return tuple(acc)


def _linear(rows, x, n, width):
    """Sum of x_i rows[i] mod n; rows at zero coordinates of x are never read."""
    acc = [0] * width
    for i, xi in enumerate(x):
        if xi:
            for k, v in enumerate(rows[i]):
                if v:
                    acc[k] = (acc[k] + xi * v) % n
    return tuple(acc)


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
    if not all(isinstance(v, int) for v in level):
        raise BadShape(f"{what} entries must be integers")
    return level


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
            modulus = int(spec["modulus"])
            rank = int(spec["rank"])
            structure = spec["structure"]
            unit = spec["unit"]
        except (KeyError, TypeError, ValueError) as exc:
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
    """Associativity on all basis triples plus two-sided unit laws."""
    r = alg.rank
    for i in range(r):
        ei = alg.basis(i)
        if alg.mul(alg.unit, ei) != ei or alg.mul(ei, alg.unit) != ei:
            raise BadUnit(f"{alg.name}: unit law fails on basis element {i}")
    for i in range(r):
        ei = alg.basis(i)
        for j in range(r):
            ej = alg.basis(j)
            ij = alg.table[i][j]
            for k in range(r):
                ek = alg.basis(k)
                lhs = alg.mul(ij, ek)
                rhs = alg.mul(ei, alg.mul(ej, ek))
                if lhs != rhs:
                    raise NonAssociative((i, j, k), lhs, rhs)


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
