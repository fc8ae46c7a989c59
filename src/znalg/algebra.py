"""Finite associative unital Z_n-algebras presented by structure-constant tables.

An algebra of rank r over Z_n stores an r x r table whose (i, j) entry is the
coordinate vector of the product of basis elements i and j.  Elements are
plain tuples of r residues mod n; all arithmetic is exact.  Every algebra is
built as a FiniteAlgebra, from a table spelled out in code or read from a
document by documents.Workspace, and certified by validate_algebra, which
takes only the object and checks associativity and the unit laws on basis
triples (bilinearity extends both to all elements).
Units and nilpotents are decided by one walk over the powers of an element
(FiniteAlgebra.inverse_and_index; inverse and nilpotency_index are its two
halves).

Work is refused, never sampled, by one rule with four measures, each
applied once, by the function that does the work: a scan over elements
refuses on the count it would list (FiniteAlgebra.within_cap, |xA| + |Ax|
in classify.in_radical, a flattened deformation's n^(r*N)); a power walk
refuses after cap powers, so an algebra within the cap never refuses a
walk and a larger one still answers every short walk; a coboundary
matrix refuses on the entries it would assemble (hochschild._sieve); and
a deformation's series job (an inverse, a Newton lift, an obstruction
probe) refuses on the slot visits of the products it would form
(deformation._slot_visits).  All raise
CapExceeded through _refuse_above_cap; None means DEFAULT_CAP.

Every structure table is a multilinear map over Z_n on basis tuples, held
as one Multilinear: an algebra's product (FiniteAlgebra.mult) and its unit,
the sides of a bimodule, a cochain, each deformation correction, each
presheaf restriction and a gauge map.  Its owner declares the shape, the
index range of each argument and the width, and the one walk that reads
the table checks every level's type and length and every entry's type
against it, so a table built in code is refused with BadShape exactly as
one read from a document is.  It reduces the table once and keeps dense,
the nested tuples that equality, hashing, reports and documents read,
flat, and cells, the (k, v) pairs with v != 0 of each cell, which every
kernel walks; Multilinear.from_flat hands a flat vector, such as a
coboundary's, to the same assembly without nesting it first.  Its product
is its compiled kernel: _compile_bilinear writes it, on first use, as one
straight-line function with the entries and the modulus as literals, so a
product runs no loop and reduces each coordinate once.  An owner given an
existing map keeps it, so the regular bimodule's sides are its algebra's
mult and share its kernel.  mul, lact and ract stay plain methods that
call the kernel; the certificates read the cells, so a table that is only
certified is never compiled.  The coordinate arithmetic that algebras and
bimodules share (add, sub, neg, smul) runs on coordinate kernels, which
the plain methods call: _coordinate_kernels writes each as one
straight-line function with n and the rank as its only literals, memoized
on (n, rank), and each module binds its four once its tables are checked.

Every identity certified on basis tuples, and every coboundary, is a signed
sum of Gerstenhaber's circle products f ∘_i g, f's argument i filled with
g's value: associativity here is μ ∘_0 μ - μ ∘_1 μ.  Each sum is one call
of _compose, which joins the nonzero entries of the two maps of each term,
read off their cells, and so walks only the nonzero paths; it evaluates no
product.  Each path adds its term, as an integer, into one flat
accumulator keyed in Multilinear.flat's order, and only the keys touched
are reduced mod n, so a sum costs its maps' cells and the nonzero entries
on its paths, and the first failing tuple is the least key.
The kernels stay private so that they are never timed as spans of their
own when the hot methods built on them are traced.  For the same reason
_refuse_above_cap, the one refusal behind every scan and walk, is private.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, cached_property
from itertools import chain, product
from math import prod

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


class _ZnModule:
    """Coordinate arithmetic of Z_n^rank, shared by algebras and bimodules;
    a modulus below 2 or a rank, named what, below least is refused."""

    def __init__(self, modulus, rank, least, what):
        self.n = _check_int(modulus, "modulus")
        self.rank = _check_int(rank, what)
        if self.n < 2:
            raise BadShape(f"modulus must be >= 2, got {self.n}")
        if self.rank < least:
            raise BadShape(f"{what} must be >= {least}, got {self.rank}")

    def _bind_kernels(self):
        """Bind the coordinate kernels of (n, rank).  The owner calls it
        last, once its tables are checked, so a rank that no table fits is
        refused before any source is written."""
        self._add, self._sub, self._neg, self._smul = _coordinate_kernels(
            self.n, self.rank)

    def zero(self):
        return (0,) * self.rank

    def coerce(self, x):
        """Normalize an iterable of ints into an element tuple of this
        algebra or module; an entry that is not an integer (a float, a
        bool, a string) or a length other than the rank is refused with
        BadShape, never truncated."""
        n = self.n
        t = tuple(_check_int(v, "element coordinate") % n for v in x)
        if len(t) != self.rank:
            raise BadShape(f"element of length {len(t)}, expected {self.rank}")
        return t

    def basis(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def add(self, x, y):
        return self._add(x, y)

    def sub(self, x, y):
        return self._sub(x, y)

    def neg(self, x):
        return self._neg(x)

    def smul(self, c, x):
        return self._smul(c, x)


class FiniteAlgebra(_ZnModule):
    """A finite associative unital algebra over Z_n, given by its table.

    The constructor refuses a modulus below 2 or a rank below 1, checks and
    reduces the table, of shape (rank, rank, rank), and the unit, (rank,);
    validate_algebra certifies it, as the helper constructors below do.
    """

    def __init__(self, modulus, rank, table, unit, name=""):
        super().__init__(modulus, rank, 1, "rank")
        r = self.rank
        self.mult = _multilinear(table, self.n, (r, r, r), "structure table")
        self.unit = Multilinear(unit, self.n, (r,), "unit vector").dense
        self.name = name or f"algebra(n={self.n},r={self.rank})"
        self._certified = None  # the map validate_algebra certified
        self._bind_kernels()

    @property
    def table(self):
        return self.mult.dense

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

    def mul(self, x, y):
        return self.mult.product(x, y)

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

    def inverse_and_index(self, x, cap=None):
        """(inverse of x or None, nilpotency index of x or None) from one
        walk over the powers of x.  In a finite ring x is a unit exactly
        when some power x^k is 1, and then x^(k-1) is its inverse; the
        other side x*x^(k-1) = 1 is re-checked, and a failure raises
        SelfCheckFailed.  x is nilpotent exactly when the walk ends at 0,
        and k is then the least power that vanishes.  A walk longer than
        cap powers is refused."""
        y, last, k = self._power_walk(x, cap)
        if last != self.unit:
            y = None
        elif self.mul(x, y) != self.unit:
            raise SelfCheckFailed(
                f"{self.name}: {y} is a left inverse of {x} but not a right "
                "inverse")
        return y, (None if any(last) else k)

    def inverse(self, x, cap=None):
        """The inverse of x, or None when x is not a unit
        (inverse_and_index)."""
        return self.inverse_and_index(x, cap)[0]

    def nilpotency_index(self, x, cap=None):
        """The least k with x^k = 0, or None when x is not nilpotent
        (inverse_and_index)."""
        return self.inverse_and_index(x, cap)[1]

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


class Multilinear:
    """A multilinear map over Z_n, given by its table on basis tuples and
    the shape its owner declares: the index range of each argument, then
    the width of a cell ((r, r, r) for an algebra's product, (r,) for one
    vector).  The one walk that reads the table checks it against the
    shape before it is reduced and sparsified: a level that is not an
    array, an array of another length or an entry that is not an int (a
    float, a bool, a string) is refused with BadShape, naming what, the
    depth and the lengths; depths count from top, the depth of the table's
    top level in the array that what names.  flat is the entries in
    row-major order, delta_matrix's coordinates."""

    def __init__(self, table, n, shape, what="table", top=0):
        self._assemble(_entries(table, shape, what, top), n, shape)

    @classmethod
    def from_flat(cls, vec, n, shape):
        """The map whose table has shape, its index ranges then its width,
        and whose flat is vec reduced mod n: vec's length and the type of
        its entries are checked, and no nested table is formed."""
        if len(vec) != prod(shape):
            raise BadShape(f"flat table has length {len(vec)}, expected "
                           f"{prod(shape)}")
        if not _INT.issuperset(map(type, vec)):
            raise BadShape("table entries must be integers")
        m = cls.__new__(cls)
        m._assemble(vec, n, shape)
        return m

    def _assemble(self, entries, n, shape):
        """Every field from the entries in row-major order: reduced mod n
        into flat, cut into cells, each sparsified (an all-zero one to ()
        after one any(cell)), and regrouped level by level into dense and
        cells."""
        self.n, self.shape, self.width = n, tuple(shape), shape[-1]
        flat = tuple([v % n for v in entries])
        dense = _group(flat, shape[-1], prod(shape[:-1]))
        cells = [tuple([(k, v) for k, v in enumerate(cell) if v])
                 if any(cell) else () for cell in dense]
        for i in reversed(range(len(shape) - 1)):
            count = prod(shape[:i])
            dense = _group(dense, shape[i], count)
            cells = _group(cells, shape[i], count)
        self.dense, self.cells, self.flat = dense[0], cells[0], flat
        self.nnz = len(flat) - flat.count(0)

    def evaluate(self, *args):
        """The map on one element per argument; with no argument, the
        vector of a map of shape (width,)."""
        return _contract(self.cells, args, self.n, self.width) if args \
            else self.dense

    @cached_property
    def product(self):
        """The compiled bilinear kernel of the cells, built on first use."""
        return _compile_bilinear(self.cells, self.n, self.width)


def _multilinear(table, n, shape, what, top=0):
    """The map of a table at modulus n and shape; a Multilinear of that
    modulus and shape is kept as it is, so its owners share its kernel."""
    if isinstance(table, Multilinear) and (table.n, table.shape) == (n, shape):
        return table
    return Multilinear(table, n, shape, what, top)


_ARRAYS, _INT = {list, tuple}, {int}  # a bool is not of type int
_flatten = chain.from_iterable


def _entries(table, shape, what, depth):
    """The entries of a table of shape whose top level lies at depth, in
    row-major order, from one walk down its levels: at each level one type
    check of its arrays and one length check, then one type check of the
    entries."""
    level = [table]
    for size in shape:
        if not _ARRAYS.issuperset(map(type, level)):
            raise BadShape(f"{what} is not an array at depth {depth}")
        if not {size}.issuperset(map(len, level)):
            length = next(len(node) for node in level if len(node) != size)
            raise BadShape(f"{what} has an array of length {length} at "
                           f"depth {depth}, expected {size}")
        level = list(_flatten(level))
        depth += 1
    if not _INT.issuperset(map(type, level)):
        raise BadShape(f"{what} entries must be integers")
    return level


def _group(items, size, count):
    """items cut, in order, into count tuples of size items each."""
    return list(zip(*[iter(items)] * size)) if items else [()] * count


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


def _compile_bilinear(cells, n, width):
    """The bilinear product of the sparse cells as a compiled function
    (x, y) -> tuple of width residues mod n, equal to _bilinear on the same
    cells for x and y with as many coordinates as the table has rows and
    columns.  Coordinate k is written out as the sum over i of
    x_i * (sum of v * y_j over the entries (k, v) of cell (i, j)), reduced
    mod n once.  Grouping the terms by i bounds the expression depth by the
    rows plus the columns of the table, not by its nonzero entries, which
    a flat chain would nest as deep as CPython's compiler refuses.  Only
    integers are written into the source: n, the indices and the entries,
    each checked to be an int first."""
    rows = len(cells)
    cols = len(cells[0]) if rows else 0
    if type(n) is not int or type(width) is not int:
        raise BadShape("kernel modulus and width must be integers")
    groups = [[[] for _ in range(rows)] for _ in range(width)]
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for k, v in cell:
                if type(k) is not int or type(v) is not int \
                        or not 0 <= k < width:
                    raise BadShape(
                        "kernel cells must hold int entries at coordinates "
                        f"0 to {width - 1}")
                groups[k][i].append(f"y{j}" if v == 1 else f"y{j}*{v}")
    # parentheses only where precedence needs them: each one costs the
    # parser more than the arithmetic it encloses
    coords = []
    for by_row in groups:
        sums = [f"x{i}*{terms[0]}" if len(terms) == 1
                else f"x{i}*({'+'.join(terms)})"
                for i, terms in enumerate(by_row) if terms]
        if not sums:
            coords.append("0")
        elif len(sums) == 1:
            coords.append(f"{sums[0]}%{n}")
        else:
            coords.append(f"({'+'.join(sums)})%{n}")
    source = "".join([
        "def product(x, y):\n",
        f" {''.join(f'x{i},' for i in range(rows))} = x\n" if rows else "",
        f" {''.join(f'y{j},' for j in range(cols))} = y\n" if cols else "",
        f" return {''.join(c + ',' for c in coords) or '()'}\n"])
    namespace = {}
    exec(source, namespace)
    return namespace["product"]


@cache
def _coordinate_kernels(n, rank):
    """(add, sub, neg, smul) of Z_n^rank as compiled straight-line
    functions, each unpacking its arguments into one name per coordinate
    and reducing each result coordinate once: add(x, y) is
    ((x0+y0)%n, ...), neg(x) is (-x0%n, ...) and smul(c, x) is
    (c*x0%n, ...).  An argument of another length than rank raises
    ValueError, and at rank 0 every kernel returns ().  Only n and rank
    are written into the source, which _ZnModule, its one caller, has
    checked to be ints, so the kernels are memoized on (n, rank) alone and
    are shared by every module of that modulus and rank."""
    xs = "".join(f"x{i}," for i in range(rank)) or "()"
    ys = xs.replace("x", "y")

    def result(term):  # term at each coordinate i, # standing for i
        return "".join(term.replace("#", str(i)) + "," for i in range(rank))

    source = (f"def add(x, y):\n {xs} = x\n {ys} = y\n"
              f" return ({result(f'(x#+y#)%{n}')})\n"
              f"def sub(x, y):\n {xs} = x\n {ys} = y\n"
              f" return ({result(f'(x#-y#)%{n}')})\n"
              f"def neg(x):\n {xs} = x\n return ({result(f'-x#%{n}')})\n"
              f"def smul(c, x):\n {xs} = x\n return ({result(f'c*x#%{n}')})\n")
    namespace = {}
    exec(source, namespace)
    return tuple(namespace[name] for name in ("add", "sub", "neg", "smul"))


def _contract(cells, args, n, width):
    """A multilinear table, given by its sparse cells, evaluated on args:
    the first argument contracts the table rows that its support selects,
    the rest recurse and come back as sparse rows."""
    if len(args) == 1:
        return _linear(cells, args[0], n, width)
    if len(args) == 2:
        return _bilinear(cells, args[0], args[1], n, width)
    head, rest = args[0], args[1:]
    rows = [tuple((k, v) for k, v in enumerate(_contract(sub, rest, n, width))
                  if v) if c else None
            for c, sub in zip(head, cells)]
    return _linear(rows, head, n, width)


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


def _compose(terms, n):
    """{key: residue != 0} of the signed sum of circle products, the keys
    flat indices in row-major (argument tuple, coordinate) order, the order
    of Multilinear.flat and of delta_matrix's columns, so the first failing
    tuple is min(keys).

    A term is (sign, outer, i, inner) over two Multilinear maps of any
    arity: outer's argument i is filled with inner's value, so the term
    takes outer's arguments before i, then inner's, then outer's after i,
    and the terms of one call compose to one shape.  Only nonzero paths are
    walked: each nonzero entry (l, v) of inner meets the nonzero entries of
    outer whose argument i is l, and no product is evaluated.  The entries
    are read off the cells on each call, at the cost of the cells and their
    nonzero entries: inner's are grouped by l, and outer's are walked past
    them.  Each path adds its term, as an integer, into one flat
    accumulator, and only the keys touched are reduced mod n."""
    acc = defaultdict(int)
    for sign, outer, i, inner in terms:
        *ranges, width = outer.shape
        size, after = ranges[i], prod(ranges[i + 1:])
        # key = (outer's arguments before i) * block + (inner's) * span
        # + (outer's after i) * width + coordinate
        span = after * width
        block = prod(inner.shape[:-1]) * span
        at = [[] for _ in range(size)]
        for y, cell in enumerate(_cells(inner)):
            for l, v in cell:
                at[l].append((y * span, sign * v))
        for x, cell in enumerate(_cells(outer)):
            for t, w in cell:
                b = x // after // size * block + x % after * width + t
                for a, c in at[x // after % size]:
                    acc[a + b] += c * w
    return {key: y for key, x in acc.items() if (y := x % n)}


def _cells(m):
    """The cells of a Multilinear map, one per argument tuple in order."""
    cells = [m.cells]
    for _ in m.shape[:-1]:
        cells = _flatten(cells)
    return cells


def _position(key, shape):
    """(argument tuple, coordinate) of a flat index into a table of shape."""
    *ranges, width = shape
    key, t = divmod(key, width)
    args = ()
    for size in reversed(ranges):
        key, a = divmod(key, size)
        args = (a, *args)
    return args, t


def _check_int(value, what):
    """Require an integer; a float such as 2.5 is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadShape(f"{what} must be an integer, got {value!r}")
    return value


def validate_algebra(alg) -> FiniteAlgebra:
    """Certify a FiniteAlgebra and return it: the two-sided unit laws
    (which give 1 != 0, as the rank is at least 1), then associativity on
    all basis triples as the defect (e_i e_j) e_k - e_i (e_j e_k) of the
    sparse cells; the first failing triple in lexicographic order is
    reported with both sides.  Every product here is the map's evaluate on
    the cells, so a table that is certified and never multiplied has no
    compiled kernel.  The certified map is recorded as alg._certified."""
    r, mu = alg.rank, alg.mult
    mul = mu.evaluate
    for i in range(r):
        ei = alg.basis(i)
        if mul(alg.unit, ei) != ei or mul(ei, alg.unit) != ei:
            raise BadUnit(f"{alg.name}: unit law fails on basis element {i}")
    defects = _compose([(1, mu, 0, mu), (-1, mu, 1, mu)], alg.n)
    if defects:
        (i, j, k), _ = _position(min(defects), (r,) * 4)
        raise NonAssociative((i, j, k), mul(alg.table[i][j], alg.basis(k)),
                             mul(alg.basis(i), alg.table[j][k]))
    alg._certified = mu
    return alg


# helper constructors (tables spelled out in code)

def zn(n) -> FiniteAlgebra:
    """The ring Z_n as a rank-1 algebra over itself."""
    return validate_algebra(FiniteAlgebra(n, 1, [[[1]]], [1], f"Z{n}"))


def zn_poly_x2(n) -> FiniteAlgebra:
    """Z_n[X]/(X^2) with basis {1, x}."""
    structure = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return validate_algebra(
        FiniteAlgebra(n, 2, structure, [1, 0], f"Z{n}[X]/(X^2)"))


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
    unit = [int(a == b) for a, b in pairs]
    return validate_algebra(FiniteAlgebra(n, rank, structure, unit, name))


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
    structure = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    unit = []
    off = 0
    for f in factors:
        for i in range(f.rank):
            for j in range(f.rank):
                structure[off + i][off + j][off:off + f.rank] = f.table[i][j]
        unit += f.unit
        off += f.rank
    name = " x ".join(f.name for f in factors)
    return validate_algebra(FiniteAlgebra(n, rank, structure, unit, name))
