"""Truncated formal deformations: the base multiplication plus cochain
corrections at each power of t, with everything cut off at order N.

Elements are N-tuples of base-algebra elements (the coefficients of
t^0 .. t^{N-1}).  Validation certifies associativity order by order on basis
triples and that the unit is undeformed; both extend to all elements by
multilinearity.  Since t is nilpotent here, every lifting argument for
complete rings applies verbatim to the truncation.

def_mul forms a full product by Kronecker substitution
(_kronecker_product): each coordinate's N coefficients are packed into one
integer, one big-integer product per pair of coordinates holds every
convolution sum, and the sparse cells of each supported order add it in,
shifted by that order, so a product costs O(r^2 M(N)) rather than
O(N^2 nnz).  _coefficient is the kernel of the online recursions, the
inverse and the idempotent probe, which need coefficient k before
coefficient k + 1 is known: the sum of alpha_m(f_a, g_b) over
m + a + b = k, accumulated in one list over the sparse cells of the base
table and of each correction, with one reduction mod n and no product or
tuple per term; the recursions pass partial series whose unknown
coefficients are still zero.  invert_def certifies f*b = 1 from the
partial sums its recursion already formed, since no later coefficient
enters coefficient k, and b*f = 1 with one full product.  Each recursion
is quadratic in N, so _series_work bounds its cell visits from N, r and
the cells' nnz and refuses above the cap before it starts.  The kernels
call no public function, so the benchmark tracer never nests a span in
def_mul.

A deformation records the orders whose correction is not identically
zero, and both kernels and the order-k associativity sum of
validate_deformation run over those orders only: every term they skip is
exactly zero.  Each correction is evaluated through the sparse cells of
its table, and the order-k associativity defects on basis triples are read
off those cells by algebra._triple_defects without evaluating a product.
flatten assembles the same sum over every order into a plain structure
table on its own, so the flattened model is the independent oracle for all
of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .algebra import (
    FiniteAlgebra,
    _bilinear,
    _check_int,
    _check_table,
    _linear,
    _reduce_table,
    _refuse_above_cap,
    _sparse_cells,
    _triple_defects,
    validate_algebra,
    zn_poly_x2,
)
from .classify import decomposition_report, in_radical
from .errors import (
    BadShape,
    ConstantTermNotUnit,
    NoConvergence,
    NotAssociativeAtOrder,
    NotCentral,
    OrderMismatch,
    SelfCheckFailed,
    UnitChanged,
)
from .hochschild import Cochain, is_cocycle2, regular_bimodule


class TruncatedDeformation:
    """Multiplication deformed by cochain corrections, modulo t^order."""

    def __init__(self, base: FiniteAlgebra, order, cochains, name=""):
        self.base = base
        self.order = int(order)
        self.cochains = tuple(_reduce_table(t, base.n) for t in cochains)
        self.name = name or f"{base.name} deformed (N={self.order})"
        self._cells = tuple(_sparse_cells(t, 2) for t in self.cochains)
        # the orders m whose alpha_m is not identically zero, increasing;
        # order 0, the base multiplication, always counts
        self._support = (0,) + tuple(
            m for m, cells in enumerate(self._cells, 1)
            if any(any(row) for row in cells))

    def __repr__(self):
        return f"TruncatedDeformation({self.name!r})"

    def alpha(self, m, x, y):
        """The order-m multiplication component, extended bilinearly."""
        A = self.base
        if m == 0:
            return A.mul(x, y)
        return _bilinear(self._cells[m - 1], x, y, A.n, A.rank)


def validate_deformation(spec, base=None, name=None) -> TruncatedDeformation:
    """Certify associativity at every order and the undeformed unit."""
    if isinstance(spec, TruncatedDeformation):
        D = spec
        base, order, cochains = D.base, D.order, D.cochains
    else:
        if base is None:
            raise BadShape("validate_deformation needs the base algebra")
        try:
            order = _check_int(spec["order"], "truncation order")
            cochains = spec["cochains"]
        except (KeyError, TypeError) as exc:
            raise BadShape(f"deformation spec missing or malformed field: {exc}")
    if order < 1:
        raise BadShape("truncation order must be at least 1")
    r = base.rank
    _check_table(cochains, (order - 1, r, r, r), "deformation cochains")
    if not isinstance(spec, TruncatedDeformation):
        D = TruncatedDeformation(base, order, cochains,
                                 name=name or spec.get("name", ""))
    A = D.base

    one = A.one()
    zero = A.zero()
    for m in D._support[1:]:
        for j in range(A.rank):
            ej = A.basis(j)
            if D.alpha(m, one, ej) != zero or D.alpha(m, ej, one) != zero:
                raise UnitChanged(
                    f"order-{m} cochain moves the unit on basis element {j}")

    cells = (A._cells,) + D._cells
    for k in range(D.order):
        # only the orders m with both alpha_m and alpha_(k-m) nonzero
        terms = [m for m in D._support if k - m in D._support]
        defects = _triple_defects(
            [(sign, form, cells[m], cells[k - m]) for m in terms
             for sign, form in ((1, "(xy)z"), (-1, "x(yz)"))],
            A.n, A.rank)
        if defects:
            i, j, l = min(defects)
            ei, ej, el = A.basis(i), A.basis(j), A.basis(l)
            lhs = rhs = zero
            for m in terms:
                lhs = A.add(lhs, D.alpha(m, D.alpha(k - m, ei, ej), el))
                rhs = A.add(rhs, D.alpha(m, ei, D.alpha(k - m, ej, el)))
            raise NotAssociativeAtOrder(k, (i, j, l), lhs, rhs)

    if D.order >= 2:
        M = regular_bimodule(A)
        alpha1 = Cochain(2, M, D.cochains[0])
        ok, violations = is_cocycle2(alpha1)
        if not ok:
            raise SelfCheckFailed(
                f"first-order cochain is not a cocycle despite associativity: "
                f"{violations[0]}")
    return D


# DefElement helpers: an element is a tuple of order coefficient tuples

def def_one(D):
    return (D.base.one(),) + (D.base.zero(),) * (D.order - 1)


def def_t(D):
    """The element t itself (unit coefficient at order 1)."""
    if D.order < 2:
        raise OrderMismatch("t vanishes at truncation order 1")
    coeffs = [D.base.zero()] * D.order
    coeffs[1] = D.base.one()
    return tuple(coeffs)


def def_from_constant(D, a):
    return (D.base.coerce(a),) + (D.base.zero(),) * (D.order - 1)


def def_add(D, f, g):
    _check_order(D, f, g)
    return tuple(D.base.add(x, y) for x, y in zip(f, g))


def def_sub(D, f, g):
    _check_order(D, f, g)
    return tuple(D.base.sub(x, y) for x, y in zip(f, g))


def def_neg(D, f):
    return tuple(D.base.neg(x) for x in f)


def def_smul(D, c, f):
    return tuple(D.base.smul(c, x) for x in f)


def _check_order(D, *fs):
    for f in fs:
        if len(f) != D.order:
            raise OrderMismatch(
                f"element has {len(f)} coefficients, deformation order is "
                f"{D.order}")


def _coefficient(D, f, g, k):
    """Coefficient k of f*g: alpha_m(f_a, g_b) summed over m + a + b = k,
    for the orders m that carry a correction.  One accumulator of width r
    collects c * v over the sparse cells of every term, reduced mod n once
    at the end; zero coordinates are skipped, so a recursion may pass a
    partial series whose unknown coefficients are still zero."""
    A = D.base
    acc = [0] * A.rank
    for m in D._support:
        if m > k:
            break
        cells = D._cells[m - 1] if m else A._cells
        for a in range(k - m + 1):
            gb = g[k - m - a]
            for i, x in enumerate(f[a]):
                if x:
                    row = cells[i]
                    for j, y in enumerate(gb):
                        if y:
                            c = x * y
                            for t, v in row[j]:
                                acc[t] += c * v
    n = A.n
    return tuple(v % n for v in acc)


def _series_work(D, depth, cap=None):
    """E, the cell visits of one _coefficient recursion through orders
    1..depth, refused with CapExceeded above cap before any of it runs.
    Coefficient k reads, for each supported order m <= k and each of its
    k - m + 1 coefficient pairs, at most the r^2 cells of alpha_m and
    their nnz_m entries; E sums that over k, so it bounds the recursion's
    work from N, r and the cells alone."""
    A = D.base
    r2 = A.rank ** 2
    work = 0
    for m in D._support:
        if m > depth:
            break
        cells = D._cells[m - 1] if m else A._cells
        pairs = depth - m + 1
        work += (r2 + sum(len(cell) for row in cells for cell in row)) \
            * pairs * (pairs + 1) // 2
    _refuse_above_cap(work, cap, f"series recursion at order {D.order}",
                      shown=f"{work} cell visits")
    return work


def _kronecker_product(D, f, g):
    """f*g mod t^order by Kronecker substitution.  Coordinate i of f packs
    into one integer F_i whose slot a, of wb bytes, holds f_a[i]; likewise
    G_j.  One big-integer product F_i G_j then holds every convolution sum
    of f[i] and g[j], and for each order m and each entry (t, v) of cell
    (i, j) of alpha_m it is added, weighted by v and shifted m slots, into
    coordinate t.  Slot k < N of coordinate t sums at most (n-1)^2 v over
    N - m coefficient pairs per entry, so its largest value is (n-1)^2
    times the (N - m)-weighted sum of the entries of t; wb holds that, no
    kept slot spills into the next, slots N and up are dropped, and each
    kept slot is reduced mod n once.  Packing and unpacking walk bytes, so
    both are linear in N.  Coordinates must be reduced mod n."""
    A = D.base
    n, r, N = A.n, A.rank, D.order
    tables = [(m, D._cells[m - 1] if m else A._cells) for m in D._support]
    weight = [0] * r
    for m, cells in tables:
        for row in cells:
            for cell in row:
                for t, v in cell:
                    weight[t] += (N - m) * v
    wb = (((n - 1) ** 2 * max(weight)).bit_length() + 7) // 8
    size = N * wb
    digits = range(((n - 1).bit_length() + 7) // 8)

    def pack(h):
        out = []
        for column in zip(*h):
            buf = bytearray(size)
            for q in digits:
                buf[q::wb] = bytes([v >> 8 * q & 255 for v in column])
            out.append(int.from_bytes(buf, "little"))
        return out

    F, G = pack(f), pack(g)
    products = [[None] * r for _ in range(r)]
    acc = [0] * r
    for m, cells in tables:
        part = [0] * r
        for i, Fi in enumerate(F):
            if Fi:
                row, Pi = cells[i], products[i]
                for j, Gj in enumerate(G):
                    cell = row[j]
                    if cell and Gj:
                        p = Pi[j]
                        if p is None:
                            p = Pi[j] = Fi * Gj
                        for t, v in cell:
                            part[t] += v * p
        shift = 8 * wb * m
        for t, s in enumerate(part):
            if s:
                acc[t] += s << shift
    mask = (1 << 8 * size) - 1
    columns = []
    for s in acc:
        data = (s & mask).to_bytes(size, "little")
        slots = list(data[::wb])
        for q in range(1, wb):
            slots = [v + (b << 8 * q) for v, b in zip(slots, data[q::wb])]
        columns.append([v % n for v in slots])
    return tuple(zip(*columns))


def def_mul(D, f, g):
    """Product mod t^order."""
    _check_order(D, f, g)
    return _kronecker_product(D, f, g)


def invert_def(D, f, cap=None):
    """Two-sided inverse mod t^order; the constant term must be a unit.

    Coefficients are solved inductively (each order is linear in the next
    unknown), and the recursion's work is refused above cap before it
    starts (_series_work).  Coefficient k of f*b is the recursion's
    partial sum p_k plus f_0 b_k, since no b_j with j > k enters it, so
    the sums certify f*b = 1; one full product certifies b*f = 1.  That is
    the left recursion's certificate too: over a validated base f_0 is a
    unit, so c*f = 1 fixes each c_k in turn, and b*f = 1 holds exactly when
    b solves the left recursion.
    """
    _check_order(D, f)
    A = D.base
    a0 = f[0]
    a0inv = A.inverse(a0)
    if a0inv is None:
        raise ConstantTermNotUnit(f"constant term {a0} is not a unit")
    _series_work(D, D.order - 1, cap)

    b = [a0inv] + [A.zero()] * (D.order - 1)
    fb = [A.mul(a0, a0inv)]
    for k in range(1, D.order):
        p = _coefficient(D, f, b, k)
        b[k] = A.mul(a0inv, A.neg(p))
        fb.append(A.add(p, A.mul(a0, b[k])))
    b = tuple(b)

    one = def_one(D)
    if tuple(fb) != one or def_mul(D, b, f) != one:
        raise SelfCheckFailed("inverse failed to certify by multiplication")
    return b


@dataclass
class RadicalCheck:
    structural_ok: bool
    brute_ok: bool
    details: dict = field(default_factory=dict)


def t_in_radical_check(D, cap=None) -> RadicalCheck:
    """t is quasi-regular: 1 - t*g always has constant term 1, hence is
    invertible; cross-checked against the flattened model's radical.

    The truncation must be enumerable: refuses with CapExceeded otherwise.
    """
    if D.order < 2:
        raise OrderMismatch("t vanishes at truncation order 1")
    A = D.base
    F = flatten(D, cap)
    t = def_t(D)
    one = def_one(D)
    structural_ok = True
    checked = 0
    for i in range(A.rank):
        for j in range(D.order):
            coeffs = [A.zero()] * D.order
            coeffs[j] = A.basis(i)
            g = tuple(coeffs)
            prod = def_mul(D, t, g)
            if any(prod[0]):
                structural_ok = False
            invert_def(D, def_sub(D, one, prod))  # certifies invertibility
            checked += 1

    brute_ok = in_radical(F, flatten_element(D, t), cap)
    return RadicalCheck(structural_ok, brute_ok,
                        {"basis_elements_checked": checked})


def flatten(D, cap=None) -> FiniteAlgebra:
    """The truncation as a plain finite algebra of rank r * order; basis
    element (i, j) represents basis i of the base times t^j."""
    A = D.base
    r = A.rank
    N = D.order
    rank = r * N
    _refuse_above_cap(A.n ** rank, cap, "flattened model")
    structure = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for j in range(N):
        for i in range(r):
            ei = A.basis(i)
            for l in range(N):
                for k in range(r):
                    ek = A.basis(k)
                    cell = structure[j * r + i][l * r + k]
                    for m in range(N - j - l):
                        q = j + l + m
                        vec = D.alpha(m, ei, ek)
                        for w, v in enumerate(vec):
                            cell[q * r + w] = (cell[q * r + w] + v) % A.n
    unit = list(A.one()) + [0] * (rank - r)
    return validate_algebra({
        "modulus": A.n, "rank": rank, "structure": structure, "unit": unit,
    }, name=f"{D.name} flattened")


def flatten_element(D, f):
    _check_order(D, f)
    out = []
    for coeff in f:
        out.extend(coeff)
    return tuple(out)


def _newton_bound(D):
    """ceil(log2 N) + 1: the defect order at least doubles each Newton step."""
    return (D.order - 1).bit_length() + 1


def _noncommuting_basis(A, e):
    """The first basis index not commuting with e; None when e is central."""
    return next((i for i in range(A.rank)
                 if A.mul(e, A.basis(i)) != A.mul(A.basis(i), e)), None)


def lift_idempotent_newton(D, e):
    """Lift an idempotent of the base through the quadratic fixed-point
    iteration; the iteration count stays within _newton_bound(D)."""
    A = D.base
    e = A.require_idempotent(e)
    bound = _newton_bound(D)
    one = def_one(D)
    g = def_from_constant(D, e)
    iterations = 0
    g2 = def_mul(D, g, g)
    while g2 != g:
        if iterations >= bound:
            raise NoConvergence(
                f"no fixed point within {bound} iterations at order {D.order}")
        factor1 = def_sub(D, def_smul(D, 2, g), one)
        factor2 = def_sub(D, def_sub(D, def_smul(D, 4, g2),
                                     def_smul(D, 4, g)), one)
        g = def_neg(D, def_mul(D, def_mul(D, g2, factor1), factor2))
        iterations += 1
        g2 = def_mul(D, g, g)
    if g[0] != e:
        raise SelfCheckFailed("Newton lift moved the constant term")
    return g, iterations


def lift_idempotent_central(D, e, newton=None, cap=None):
    """Unique lift of a central idempotent: the obstruction probe run to full
    depth, which must solve every order; certified idempotent and equal to
    the Newton lift, which a caller that already holds it passes as newton.
    The probe's work is refused above cap before it starts."""
    A = D.base
    e = A.require_idempotent(e)
    i = _noncommuting_basis(A, e)
    if i is not None:
        raise NotCentral(f"{e} does not commute with basis element {i}")
    probe = obstruction_probe(D, e, cap=cap)
    if probe.first_failure is not None:
        raise SelfCheckFailed(
            f"central recursion fails at order {probe.first_failure}")
    g = tuple(probe.coefficients)
    if def_mul(D, g, g) != g:
        raise SelfCheckFailed("central recursion produced a non-idempotent")
    if newton is None:
        newton, _ = lift_idempotent_newton(D, e)
    if g != newton:
        raise SelfCheckFailed("central recursion disagrees with Newton lift")
    return g


@dataclass
class ObstructionReport:
    orders: list = field(default_factory=list)  # (k, commutes, solves)
    first_failure: int | None = None
    coefficients: list = field(default_factory=list)


def obstruction_probe(D, e, depth=None, cap=None) -> ObstructionReport:
    """Run the central-style recursion for a possibly noncentral idempotent,
    recording at each order whether the candidate coefficient commutes with e
    and solves the order equation.  Orders 1 and 2 are proved to work and are
    asserted; deeper orders are evidence only.  The recursion's work is
    refused above cap before it starts (_series_work)."""
    A = D.base
    e = A.require_idempotent(e)
    if depth is None:
        depth = D.order - 1
    elif depth < 1:
        raise BadShape(f"probe depth must be >= 1, got {depth}")
    depth = min(depth, D.order - 1)
    _series_work(D, depth, cap)
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    report = ObstructionReport(coefficients=[e])
    for k in range(1, depth + 1):
        # the unknown coefficient k enters as zero, so coefficient k of the
        # square is exactly the sum of the terms that do not involve it
        partial = report.coefficients + [A.zero()]
        beta = _coefficient(D, partial, partial, k)
        commutes = A.mul(e, beta) == A.mul(beta, e)
        ak = A.mul(one_minus_2e, beta)
        solves = A.add(A.add(A.mul(e, ak), A.mul(ak, e)), beta) == ak
        report.orders.append((k, commutes, solves))
        if k == 1 and not solves:
            raise SelfCheckFailed("order-1 lift equation must be solvable")
        if k == 2 and not (commutes and solves):
            raise SelfCheckFailed("order-2 commutation is a proved identity")
        if not solves:
            report.first_failure = k
            break
        report.coefficients.append(ak)
    return report


@dataclass
class SeriesVerdict:
    series: tuple
    idempotent: bool
    nontrivial: bool


def remark2_series(A, e, x, order=4) -> SeriesVerdict:
    """The explicit noncentral lifting series for the trivial deformation,
    through the cubic coefficient, squared and checked mod t^order."""
    A = validate_algebra(A) if not isinstance(A, FiniteAlgebra) else A
    x = A.coerce(x)
    e = A.require_idempotent(e)
    if order < 1 or order > 4:
        raise BadShape("the displayed series stops at the cubic term")
    D = trivial_deformation(A, order)
    a1 = A.sub(A.mul(e, x), A.mul(x, e))
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    a1sq = A.mul(a1, a1)
    a1cb = A.mul(a1sq, a1)
    coeff2 = A.mul(one_minus_2e, a1sq)
    inner = A.sub(A.sub(a1cb, A.mul(a1cb, e)), A.mul(e, a1cb))
    coeff3 = A.smul(2, A.mul(one_minus_2e, inner))
    coeffs = [e, a1, coeff2, coeff3][:order]
    coeffs += [A.zero()] * (order - len(coeffs))
    series = tuple(coeffs)
    idempotent = def_mul(D, series, series) == series
    return SeriesVerdict(series, idempotent, any(a1))


def clean_decompose_def(D, h, cap=None, base_report=None):
    """Split h into a lifted idempotent plus a unit, using the base algebra's
    first clean witness; when the base is uniquely clean the decomposition is
    also certified unique in the flattened model, which is built (or refused
    on its element count) before any lifting; the work of the unit part's
    inverse recursion is refused above cap before the lift too.  A caller
    that already holds the base's decomposition_report passes it as
    base_report, so the base is not classified twice."""
    _check_order(D, h)
    rep = base_report or decomposition_report(D.base, cap)
    F = flatten(D, cap) if rep.flags["uniquely_clean"] else None
    e, u = rep.witnesses[h[0]]["clean"]
    _series_work(D, D.order - 1, cap)  # the inverse's recursion, up front
    e_t, _ = lift_idempotent_newton(D, e)
    u_t = def_sub(D, h, e_t)
    invert_def(D, u_t, cap)  # certifies invertibility; constant term is u

    if F is not None:
        z = flatten_element(D, h)
        count = sum(1 for cand in F.idempotents(cap)
                    if F.inverse(F.sub(z, cand), cap) is not None)
        if count != 1:
            raise SelfCheckFailed(
                f"uniquely clean base but {count} decompositions in the "
                "flattened model")
    return e_t, u_t


# deformation builders

def trivial_deformation(A, order, name=None) -> TruncatedDeformation:
    zero_table = [[[0] * A.rank for _ in range(A.rank)] for _ in range(A.rank)]
    return validate_deformation(TruncatedDeformation(
        A, order, [zero_table] * (order - 1),
        name=name or f"{A.name} trivial (N={order})"))


def x_squared_t_deformation(n, order) -> TruncatedDeformation:
    """Deform Z_n[X]/(X^2) by making the square of x equal to t."""
    A = zn_poly_x2(n)
    table1 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    zero_table = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cochains = [table1] + [zero_table] * (order - 2)
    return validate_deformation(TruncatedDeformation(
        A, order, cochains, name=f"x^2=t over Z{n} (N={order})"))


def gauge_deformation(A, gmap, order, name=None) -> TruncatedDeformation:
    """Pull the base multiplication back through the invertible coordinate
    change 1 - t*g; the first-order cochain is then a coboundary."""
    r = A.rank
    gmap = tuple(tuple(v % A.n for v in row) for row in gmap)
    if len(gmap) != r or any(len(row) != r for row in gmap):
        raise BadShape("gauge map must be a rank x rank matrix")
    gcells = _sparse_cells(gmap, 1)

    def apply_g(x):
        return _linear(gcells, x, A.n, r)

    if any(apply_g(A.one())):
        raise BadShape("gauge map must vanish on the unit")

    def g_power(x, m):
        for _ in range(m):
            x = apply_g(x)
        return x

    cochains = []
    for k in range(1, order):
        table = []
        for i in range(r):
            ei = A.basis(i)
            row = []
            for j in range(r):
                ej = A.basis(j)
                val = g_power(A.mul(ei, ej), k)
                cross = A.add(A.mul(apply_g(ei), ej), A.mul(ei, apply_g(ej)))
                val = A.sub(val, g_power(cross, k - 1))
                if k >= 2:
                    val = A.add(val, g_power(A.mul(apply_g(ei), apply_g(ej)),
                                             k - 2))
                row.append(val)
            table.append(row)
        cochains.append(table)
    return validate_deformation(TruncatedDeformation(
        A, order, cochains, name=name or f"{A.name} gauge (N={order})"))


def seeded_gauge_map(A, seed):
    """A deterministic pseudo-random linear map vanishing on the unit."""
    rng = random.Random(seed)
    r = A.rank
    rows = [[rng.randrange(A.n) for _ in range(r)] for _ in range(r)]
    unit = A.one()
    pivot = next((i for i, c in enumerate(unit) if gcd(c, A.n) == 1), None)
    if pivot is None:
        raise BadShape("no invertible unit coordinate to correct against")
    inv = pow(unit[pivot], -1, A.n)
    total = [0] * r
    for i, c in enumerate(unit):
        if i != pivot and c:
            for k in range(r):
                total[k] = (total[k] + c * rows[i][k]) % A.n
    rows[pivot] = [(-inv * v) % A.n for v in total]
    return [tuple(row) for row in rows]


def catalog_deformations(order=4):
    """The three fixed deformations every suite runs against."""
    from .catalog import z2xz2
    P = z2xz2()
    return [
        trivial_deformation(zn_poly_x2(2), order),
        x_squared_t_deformation(2, order),
        gauge_deformation(P, seeded_gauge_map(P, 300), order,
                          name=f"{P.name} gauge/coboundary (N={order})"),
    ]
