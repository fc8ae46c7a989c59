"""Truncated formal deformations: the base multiplication plus cochain
corrections at each power of t, with everything cut off at order N.

Elements are N-tuples of base-algebra elements (the coefficients of
t^0 .. t^{N-1}).  Since t is nilpotent here, every lifting argument for
complete rings applies verbatim to the truncation.

A deformation holds alphas, the algebra.Multilinear map of alpha_m at each
order m whose correction is not zero mod n; with order 0, the base's mult,
they are its support.  It is built as a TruncatedDeformation, in code or by
documents.Workspace, whose constructor refuses an order below 1 and a
correction outside orders 1..N-1, and certified once by
validate_deformation: the unit is undeformed, and order-k associativity,
Σ α_m ∘_0 α_(k-m) - α_m ∘_1 α_(k-m), is summed in one call of
algebra._compose on the maps' cells only at the k that two supported
orders add up to, since every term it skips is zero.  The order-1 sum is
δα_1 with every sign flipped, so alpha_1 is then a 2-cocycle, and only the
identities that follow are re-checked.  at_order, which passes the maps
below a new order on as they are, costs the support, not N.  flatten
assembles the same sums into a plain structure table on its own, so the
flattened model is the independent oracle for all of them.

Every series product is one Kronecker substitution (_kronecker_product),
which costs O(r^2 M(L)) at length L.  def_mul forms full products.
invert_def is Newton's iteration b <- b(2 - fb), certified by its last
f*b = 1 and one b*f = 1.  t_in_radical_check proves t central and
nilpotent, hence in the radical, with 2 r N + N - 1 products.
lift_idempotent_def lifts an idempotent by Newton and, when it is central
and N > 1, re-derives the lift by the obstruction probe, which reads
coefficient k off the product of its partial series truncated at order
k + 1; the probe and the radical check refuse order 1, where t vanishes
(def_t).  Each series job checks its inputs and refuses its work above the
cap, the slot visits of its products (_slot_visits), once, at its entry;
the work runs in a private body (_invert, _newton_lift, _probe), which the
composite jobs call.  The kernels call no public function, so the
benchmark tracer never nests a span in def_mul.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .algebra import (
    FiniteAlgebra,
    Multilinear,
    _cap_limit,
    _check_int,
    _compose,
    _multilinear,
    _position,
    _refuse_above_cap,
    validate_algebra,
    zn_poly_x2,
)
from .catalog import z2xz2
from .classify import decomposition_report, in_radical
from .errors import (
    BadShape,
    ConstantTermNotUnit,
    NoConvergence,
    NotAssociativeAtOrder,
    OrderMismatch,
    SelfCheckFailed,
    UnitChanged,
)
from .hochschild import Cochain, _cocycle_consequences, regular_bimodule


class TruncatedDeformation:
    """Multiplication deformed by cochain corrections, modulo t^order: the
    base and corrections, a mapping from each corrected order m to the
    table of alpha_m or to its map, which is kept as it is.  A table is
    named "deformation cochains" and its depths counted from the dense
    list of corrections that cochains returns and documents hold; an order
    below 1, or a nonzero correction outside 1..order-1, is refused."""

    def __init__(self, base: FiniteAlgebra, order, corrections, name=""):
        self.base = base
        self.order = _check_int(order, "truncation order")
        if self.order < 1:
            raise BadShape("truncation order must be at least 1")
        self.name = name or f"{base.name} deformed (N={self.order})"
        shape = (base.rank,) * 3
        alphas = ((m, _multilinear(table, base.n, shape,
                                   "deformation cochains", 1))
                  for m, table in sorted(corrections.items()))
        # {m: the map of alpha_m} over the orders m, increasing, whose
        # alpha_m is not identically zero
        self.alphas = {m: alpha for m, alpha in alphas if alpha.nnz}
        for m in self.alphas:
            if not 0 < m < self.order:
                raise BadShape(
                    f"correction at order {m} outside 1..{self.order - 1}")

    def __repr__(self):
        return f"TruncatedDeformation({self.name!r})"

    @property
    def cochains(self):
        """alpha_1 .. alpha_(order-1) as one dense tuple, an all-zero table
        at every order without a correction: the form documents read."""
        r = self.base.rank
        zero = (((0,) * r,) * r,) * r
        return tuple(self.alphas[m].dense if m in self.alphas else zero
                     for m in range(1, self.order))

    def _supported(self):
        """(m, the map of alpha_m) for every supported order m, increasing;
        order 0's is the base's mult, read on each call."""
        return [(0, self.base.mult), *self.alphas.items()]

    def alpha(self, m, x, y):
        """The order-m multiplication component, extended bilinearly."""
        A = self.base
        if m == 0:
            return A.mul(x, y)
        if m not in self.alphas:
            return A.zero()
        return self.alphas[m].evaluate(x, y)


def validate_deformation(D) -> TruncatedDeformation:
    """Certify a TruncatedDeformation and return it: the unit is
    undeformed, and associativity holds at every order, which is checked
    where two supported orders sum to it: any other order has no nonzero
    term.  Order 1 certifies that alpha_1 is a 2-cocycle, whose derived
    identities are then re-checked."""
    A = D.base
    one, zero = A.one(), A.zero()
    for m in D.alphas:
        for j in range(A.rank):
            ej = A.basis(j)
            if D.alpha(m, one, ej) != zero or D.alpha(m, ej, one) != zero:
                raise UnitChanged(
                    f"order-{m} cochain moves the unit on basis element {j}")

    alphas = dict(D._supported())
    N = D.order
    for k in sorted({a + b for a in alphas for b in alphas if a + b < N}):
        # only the orders m with both alpha_m and alpha_(k-m) nonzero
        terms = [m for m in alphas if k - m in alphas]
        defects = _compose(
            [(sign, alphas[m], i, alphas[k - m]) for m in terms
             for sign, i in ((1, 0), (-1, 1))], A.n)
        if defects:
            (i, j, l), _ = _position(min(defects), (A.rank,) * 4)
            ei, ej, el = A.basis(i), A.basis(j), A.basis(l)
            lhs = rhs = zero
            for m in terms:
                lhs = A.add(lhs, D.alpha(m, D.alpha(k - m, ei, ej), el))
                rhs = A.add(rhs, D.alpha(m, ei, D.alpha(k - m, ej, el)))
            raise NotAssociativeAtOrder(k, (i, j, l), lhs, rhs)

    if 1 in D.alphas:
        # order 1 was alpha_1's cocycle identity: re-check what follows
        _cocycle_consequences(Cochain(2, regular_bimodule(A), D.alphas[1]))
    return D


def at_order(D, order) -> TruncatedDeformation:
    """D truncated or extended with zero corrections to order, and
    certified there by validate_deformation; D itself at its own order.
    Only the corrections below order are kept, so the move and the
    certificate of the orders it adds cost D's support, not the order."""
    if order == D.order:
        return D
    return validate_deformation(TruncatedDeformation(
        D.base, order, {m: a for m, a in D.alphas.items() if m < order},
        name=D.name))


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


def _kronecker_product(D, f, g):
    """f*g mod t^N, N the length of f and g, by Kronecker substitution.
    Coordinate i of f packs into one integer F_i whose slot a, of wb
    bytes, holds f_a[i]; likewise G_j.  One big-integer product F_i G_j
    then holds every convolution sum of f[i] and g[j], and for each
    supported order m < N and each entry (t, v) of cell (i, j) of alpha_m
    it is added, weighted by v and shifted m slots, into coordinate t; an
    order m >= N reaches no kept slot and is skipped.  Slot k < N of
    coordinate t sums at most (n-1)^2 v over N - m coefficient pairs per
    entry, so its largest value is (n-1)^2 times the (N - m)-weighted sum of
    the entries of t; wb holds that, no kept slot spills into the next,
    slots N and up are dropped, and each kept slot is reduced mod n once.
    Packing and unpacking walk bytes, so both are linear in N; a
    coefficient of one byte (n <= 256) is packed with bytes(column)
    itself.  Coordinates must be reduced mod n."""
    A = D.base
    n, r, N = A.n, A.rank, len(f)
    tables = [(m, alpha.cells) for m, alpha in D._supported() if m < N]
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
            if len(digits) == 1:
                buf[::wb] = bytes(column)
            else:
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

    Newton's iteration b <- b(2 - fb) from b = f_0^-1: when fb = 1 - d
    with d = 0 mod t^k, the next fb is (1 - d)(1 + d) = 1 - d^2, so the
    defect order at least doubles and _newton_bound(D) steps reach every
    order.  The loop stops at the first f*b = 1, and one more full product
    certifies b*f = 1; an inverse on both sides is the inverse.  The work
    of the products is refused above cap before f is read (_slot_visits),
    and the walk over the powers of f_0 after cap powers."""
    _slot_visits(D, "inverse", cap)
    _check_order(D, f)
    return _invert(D, f, cap)


def _invert(D, f, cap):
    """invert_def after its checks and its estimate."""
    a0inv = D.base.inverse(f[0], cap)
    if a0inv is None:
        raise ConstantTermNotUnit(f"constant term {f[0]} is not a unit")
    one = def_one(D)
    two = def_smul(D, 2, one)
    b = def_from_constant(D, a0inv)
    for _ in range(_newton_bound(D)):
        fb = def_mul(D, f, b)
        if fb == one:
            break
        b = def_mul(D, b, def_sub(D, two, fb))
    if fb != one or def_mul(D, b, f) != one:
        raise SelfCheckFailed("inverse failed to certify by multiplication")
    return b


@dataclass
class RadicalCheck:
    structural_ok: bool
    brute_ok: bool


def t_in_radical_check(D, cap=None) -> RadicalCheck:
    """t is in the Jacobson radical: t*g = g*t on each basis element
    g = e_i t^j, so t is central, and t^N = 0, so (tg)^N = t^N g^N = 0 for
    every g; 2 r N + N - 1 products, cross-checked by in_radical on the
    flattened model.  Order 1, where t vanishes, is refused (def_t) before
    the truncation, which must be enumerable (CapExceeded otherwise)."""
    t = def_t(D)
    F = flatten(D, cap)
    A = D.base
    zero = (A.zero(),) * D.order
    basis = [zero[:j] + (A.basis(i),) + zero[j + 1:]
             for i in range(A.rank) for j in range(D.order)]
    central = all([def_mul(D, t, g) == def_mul(D, g, t) for g in basis])
    power = t
    for _ in range(D.order - 1):
        power = def_mul(D, power, t)
    brute_ok = in_radical(F, flatten_element(D, t), cap)
    return RadicalCheck(central and power == zero, brute_ok)


def flatten(D, cap=None) -> FiniteAlgebra:
    """The truncation as a plain finite algebra of rank r * order; basis
    element (i, j) represents basis i of the base times t^j.  Its n^(r*N)
    elements are refused above cap, and the power is formed with its
    exponent cut at the cap's bit length plus one, which already exceeds
    the cap."""
    A = D.base
    r = A.rank
    N = D.order
    rank = r * N
    _refuse_above_cap(A.n ** min(rank, _cap_limit(cap).bit_length() + 1), cap,
                      "flattened model", shown=f"{A.n}^({r}*{N}) elements")
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
    unit = A.one() + (0,) * (rank - r)
    return validate_algebra(
        FiniteAlgebra(A.n, rank, structure, unit, f"{D.name} flattened"))


def flatten_element(D, f):
    _check_order(D, f)
    out = []
    for coeff in f:
        out.extend(coeff)
    return tuple(out)


def _newton_bound(D):
    """ceil(log2 N) + 1: the defect order at least doubles each Newton step."""
    return (D.order - 1).bit_length() + 1


def _slot_visits(D, job, cap=None, depth=None):
    """W, the slot visits of the products a series job will form, refused
    with CapExceeded above cap before the first of them.  A product of
    series of length L visits, for each supported order m, the r^2 cells
    of alpha_m and their nnz_m entries at each of its L slots, and with
    bound = _newton_bound(D) the jobs form
      inverse: at most bound products f*b, as many updates and one b*f,
        2 bound + 1 products of length N;
      Newton lift: one square, then at most bound steps of three products,
        3 bound + 1 products of length N;
      obstruction probe: to depth d, one product of length k + 1 for each
        k = 1..d, (k + 1) slots summed over k."""
    N = D.order
    if job == "obstruction probe":
        slots = depth * (depth + 3) // 2
    else:
        products = {"inverse": 2, "Newton lift": 3}[job] * _newton_bound(D)
        slots = (products + 1) * N
    r2 = D.base.rank ** 2
    work = slots * sum(r2 + alpha.nnz for _, alpha in D._supported())
    _refuse_above_cap(work, cap, f"{job} at order {N}",
                      shown=f"{work} slot visits")
    return work


def _noncommuting_basis(A, e):
    """The first basis index not commuting with e; None when e is central."""
    return next((i for i in range(A.rank)
                 if A.mul(e, A.basis(i)) != A.mul(A.basis(i), e)), None)


def lift_idempotent_newton(D, e, cap=None):
    """Lift an idempotent of the base through the quadratic fixed-point
    iteration; the iteration count stays within _newton_bound(D), and the
    work of that many steps is refused above cap before the first product
    (_slot_visits)."""
    e = D.base.require_idempotent(e)
    _slot_visits(D, "Newton lift", cap)
    return _newton_lift(D, e)


def _newton_lift(D, e):
    """lift_idempotent_newton after its checks and its estimate."""
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


@dataclass
class IdempotentLift:
    lift: tuple
    iterations: int
    bound: int  # _newton_bound(D)
    recursed: bool  # the central recursion ran: e is central and N > 1


def lift_idempotent_def(D, e, cap=None) -> IdempotentLift:
    """The Newton lift of an idempotent of the base and, when it is
    central, the central recursion: the obstruction probe run to full
    depth, which must solve every order and give the Newton lift, itself
    certified idempotent.  At order 1 the lift is e and the recursion has
    no order to derive, so no probe runs.  The probe's work, quadratic in
    the order, is refused above cap before the Newton lift's, both before
    any product."""
    e = D.base.require_idempotent(e)
    recursed = D.order > 1 and _noncommuting_basis(D.base, e) is None
    if recursed:
        _slot_visits(D, "obstruction probe", cap, D.order - 1)
    _slot_visits(D, "Newton lift", cap)
    g, iterations = _newton_lift(D, e)
    if recursed:
        probe = _probe(D, e, D.order - 1)
        if probe.first_failure is not None:
            raise SelfCheckFailed(
                f"central recursion fails at order {probe.first_failure}")
        if tuple(probe.coefficients) != g:
            raise SelfCheckFailed(
                "central recursion disagrees with Newton lift")
    return IdempotentLift(g, iterations, _newton_bound(D), recursed)


@dataclass
class ObstructionReport:
    orders: list = field(default_factory=list)  # (k, commutes, solves)
    first_failure: int | None = None
    coefficients: list = field(default_factory=list)


def obstruction_probe(D, e, depth=None, cap=None) -> ObstructionReport:
    """Run the central-style recursion for a possibly noncentral idempotent,
    recording at each order whether the candidate coefficient commutes with e
    and solves the order equation.  Orders 1 and 2 are proved to work and are
    asserted; deeper orders are evidence only.  Order 1, where t vanishes
    and no order is left to probe, is refused first (def_t).  Coefficient
    k of the square is read off the product of the series truncated at
    order k + 1; the work of those products is refused above cap before
    the first (_slot_visits) and before e is checked."""
    def_t(D)  # refuses order 1, where t vanishes
    if depth is not None and depth < 1:
        raise BadShape(f"probe depth must be >= 1, got {depth}")
    depth = D.order - 1 if depth is None else min(depth, D.order - 1)
    _slot_visits(D, "obstruction probe", cap, depth)
    return _probe(D, D.base.require_idempotent(e), depth)


def _probe(D, e, depth):
    """obstruction_probe after its checks and its estimate."""
    A = D.base
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    report = ObstructionReport(coefficients=[e])
    for k in range(1, depth + 1):
        # the unknown coefficient k enters as zero, so coefficient k of the
        # square is exactly the sum of the terms that do not involve it
        partial = report.coefficients + [A.zero()]
        beta = _kronecker_product(D, partial, partial)[k]
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


def clean_decompose_def(D, h, cap=None):
    """Split h into a lifted idempotent plus a unit, using the base algebra's
    first clean witness; when the base is uniquely clean the decomposition is
    also certified unique in the flattened model.  That model is built (or
    refused on its element count) and the inverse's work refused above cap
    before h is read, the Newton lift's after, and all before any product."""
    rep = decomposition_report(D.base, cap)
    F = flatten(D, cap) if rep.flags["uniquely_clean"] else None
    _slot_visits(D, "inverse", cap)  # the unit part's inverse, up front
    _check_order(D, h)
    e, u = rep.witnesses[h[0]]["clean"]  # e certified idempotent there
    _slot_visits(D, "Newton lift", cap)
    e_t, _ = _newton_lift(D, e)
    u_t = def_sub(D, h, e_t)
    _invert(D, u_t, cap)  # certifies invertibility; constant term is u

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
    return validate_deformation(TruncatedDeformation(
        A, order, {}, name=name or f"{A.name} trivial (N={order})"))


def x_squared_t_deformation(n, order) -> TruncatedDeformation:
    """Deform Z_n[X]/(X^2) by making the square of x equal to t; at order
    1, where t vanishes, this is the base itself."""
    A = zn_poly_x2(n)
    table1 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    return validate_deformation(TruncatedDeformation(
        A, order, {1: table1} if order > 1 else {},
        name=f"x^2=t over Z{n} (N={order})"))


def gauge_deformation(A, gmap, order, name=None) -> TruncatedDeformation:
    """Pull the base multiplication back through the invertible coordinate
    change 1 - t*g; the first-order cochain is then a coboundary."""
    r = A.rank
    g = Multilinear(gmap, A.n, (r, r), "gauge map")
    apply_g = g.evaluate
    if any(apply_g(A.one())):
        raise BadShape("gauge map must vanish on the unit")

    def g_power(x, m):
        for _ in range(m):
            x = apply_g(x)
        return x

    corrections = {}
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
        corrections[k] = table
    return validate_deformation(TruncatedDeformation(
        A, order, corrections, name=name or f"{A.name} gauge (N={order})"))


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
    P = z2xz2()
    return [
        trivial_deformation(zn_poly_x2(2), order),
        x_squared_t_deformation(2, order),
        gauge_deformation(P, seeded_gauge_map(P, 300), order,
                          name=f"{P.name} gauge/coboundary (N={order})"),
    ]
