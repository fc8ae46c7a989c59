"""Truncated formal deformations: the base multiplication plus cochain
corrections at each power of t, with everything cut off at order N.

Elements are N-tuples of base-algebra elements (the coefficients of
t^0 .. t^{N-1}).  Validation certifies associativity order by order on basis
triples and that the unit is undeformed; both extend to all elements by
multilinearity.  Since t is nilpotent here, every lifting argument for
complete rings applies verbatim to the truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import (
    DEFAULT_CAP,
    FiniteAlgebra,
    _bilinear,
    _check_table,
    _linear,
    validate_algebra,
    zn_poly_x2,
)
from .classify import decomposition_report, jacobson_radical
from .errors import (
    BadShape,
    BaseNotClean,
    CapExceeded,
    ConstantTermNotUnit,
    NoConvergence,
    NotAssociativeAtOrder,
    NotCentral,
    NotIdempotent,
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
        n = base.n
        self.cochains = tuple(
            tuple(tuple(tuple(v % n for v in cell) for cell in row)
                  for row in table)
            for table in cochains)
        self.name = name or f"{base.name} deformed (N={self.order})"

    def __repr__(self):
        return f"TruncatedDeformation({self.name!r})"

    def alpha(self, m, x, y):
        """The order-m multiplication component, extended bilinearly."""
        A = self.base
        if m == 0:
            return A.mul(x, y)
        return _bilinear(self.cochains[m - 1], x, y, A.n, A.rank)


def validate_deformation(spec, base=None, name=None) -> TruncatedDeformation:
    """Certify associativity at every order and the undeformed unit."""
    if isinstance(spec, TruncatedDeformation):
        D = spec
        base, order, cochains = D.base, D.order, D.cochains
    else:
        if base is None:
            raise BadShape("validate_deformation needs the base algebra")
        try:
            order = int(spec["order"])
            cochains = spec["cochains"]
        except (KeyError, TypeError, ValueError) as exc:
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
    for m in range(1, D.order):
        for j in range(A.rank):
            ej = A.basis(j)
            if D.alpha(m, one, ej) != zero or D.alpha(m, ej, one) != zero:
                raise UnitChanged(
                    f"order-{m} cochain moves the unit on basis element {j}")

    for k in range(D.order):
        for i in range(A.rank):
            ei = A.basis(i)
            for j in range(A.rank):
                ej = A.basis(j)
                for l in range(A.rank):
                    el = A.basis(l)
                    lhs = zero
                    rhs = zero
                    for m in range(k + 1):
                        lhs = A.add(lhs, D.alpha(m, D.alpha(k - m, ei, ej), el))
                        rhs = A.add(rhs, D.alpha(m, ei, D.alpha(k - m, ej, el)))
                    if lhs != rhs:
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

def def_zero(D):
    return (D.base.zero(),) * D.order


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


def def_mul(D, f, g):
    """Product mod t^order: coefficient k collects all split contributions."""
    _check_order(D, f, g)
    A = D.base
    out = []
    for k in range(D.order):
        acc = A.zero()
        for m in range(k + 1):
            for n2 in range(k - m + 1):
                p = k - m - n2
                fn = f[n2]
                gp = g[p]
                if any(fn) and any(gp):
                    acc = A.add(acc, D.alpha(m, fn, gp))
        out.append(acc)
    return tuple(out)


def invert_def(D, f):
    """Two-sided inverse mod t^order; the constant term must be a unit.

    Coefficients are solved inductively (each order is linear in the next
    unknown); the symmetric left-inverse recursion must agree, and both
    products with f are certified to be the unit.
    """
    _check_order(D, f)
    A = D.base
    a0 = f[0]
    a0inv = A.inverse(a0)
    if a0inv is None:
        raise ConstantTermNotUnit(f"constant term {a0} is not a unit")

    b = [a0inv]
    for k in range(1, D.order):
        acc = A.zero()
        for m in range(k + 1):
            for n2 in range(k - m + 1):
                p = k - m - n2
                if p < k:
                    acc = A.add(acc, D.alpha(m, f[n2], b[p]))
        b.append(A.mul(a0inv, A.neg(acc)))
    right = tuple(b)

    c = [a0inv]
    for k in range(1, D.order):
        acc = A.zero()
        for m in range(k + 1):
            for n2 in range(k - m + 1):
                p = k - m - n2
                if n2 < k:
                    acc = A.add(acc, D.alpha(m, c[n2], f[p]))
        c.append(A.mul(A.neg(acc), a0inv))
    left = tuple(c)

    if left != right:
        raise SelfCheckFailed("left and right inverse recursions disagree")
    one = def_one(D)
    if def_mul(D, f, right) != one or def_mul(D, right, f) != one:
        raise SelfCheckFailed("inverse failed to certify by multiplication")
    return right


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
    flat_size = A.n ** (A.rank * D.order)
    limit = DEFAULT_CAP if cap is None else cap
    if flat_size > limit:
        raise CapExceeded(
            f"truncated model has {flat_size} elements, above cap {limit}")
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

    F = flatten(D, cap)
    t_flat = flatten_element(D, t)
    brute_ok = t_flat in set(jacobson_radical(F, cap))
    return RadicalCheck(structural_ok, brute_ok,
                        {"basis_elements_checked": checked})


def flatten(D, cap=None) -> FiniteAlgebra:
    """The truncation as a plain finite algebra of rank r * order; basis
    element (i, j) represents basis i of the base times t^j."""
    A = D.base
    r = A.rank
    N = D.order
    rank = r * N
    limit = DEFAULT_CAP if cap is None else cap
    if A.n ** rank > limit:
        raise CapExceeded(
            f"flattened model has {A.n ** rank} elements, above cap {limit}")
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


def lift_idempotent_newton(D, e):
    """Lift an idempotent of the base through the quadratic fixed-point
    iteration; defect order at least doubles each step, so the iteration
    count stays within ceil(log2 N) + 1."""
    A = D.base
    e = A.coerce(e)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
    bound = (D.order - 1).bit_length() + 1
    one = def_one(D)
    g = def_from_constant(D, e)
    iterations = 0
    while def_mul(D, g, g) != g:
        if iterations >= bound:
            raise NoConvergence(
                f"no fixed point within {bound} iterations at order {D.order}")
        g2 = def_mul(D, g, g)
        factor1 = def_sub(D, def_smul(D, 2, g), one)
        factor2 = def_sub(D, def_sub(D, def_smul(D, 4, g2),
                                     def_smul(D, 4, g)), one)
        g = def_neg(D, def_mul(D, def_mul(D, g2, factor1), factor2))
        iterations += 1
    if g[0] != e:
        raise SelfCheckFailed("Newton lift moved the constant term")
    return g, iterations


def lift_idempotent_central(D, e):
    """Unique lift of a central idempotent by the order-by-order recursion;
    certified idempotent and equal to the Newton lift."""
    A = D.base
    e = A.coerce(e)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
    for i in range(A.rank):
        b = A.basis(i)
        if A.mul(e, b) != A.mul(b, e):
            raise NotCentral(f"{e} does not commute with basis element {i}")
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    coeffs = [e]
    for k in range(1, D.order):
        beta = _beta(D, coeffs, k)
        coeffs.append(A.mul(one_minus_2e, beta))
    g = tuple(coeffs)
    if def_mul(D, g, g) != g:
        raise SelfCheckFailed("central recursion produced a non-idempotent")
    newton, _ = lift_idempotent_newton(D, e)
    if g != newton:
        raise SelfCheckFailed("central recursion disagrees with Newton lift")
    return g


def _beta(D, coeffs, k):
    """Sum of all order-k interaction terms excluding the two involving the
    unknown coefficient itself."""
    A = D.base
    acc = A.zero()
    for m in range(k + 1):
        for n2 in range(k - m + 1):
            p = k - m - n2
            if (n2, p) in ((0, k), (k, 0)):
                continue
            an = coeffs[n2]
            ap = coeffs[p]
            if any(an) and any(ap):
                acc = A.add(acc, D.alpha(m, an, ap))
    return acc


@dataclass
class ObstructionReport:
    orders: list = field(default_factory=list)  # (k, commutes, solves)
    first_failure: int | None = None
    coefficients: list = field(default_factory=list)


def obstruction_probe(D, e, depth=None) -> ObstructionReport:
    """Run the central-style recursion for a possibly noncentral idempotent,
    recording at each order whether the candidate coefficient commutes with e
    and solves the order equation.  Orders 1 and 2 are proved to work and are
    asserted; deeper orders are evidence only."""
    A = D.base
    e = A.coerce(e)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
    if depth is None:
        depth = D.order - 1
    depth = min(depth, D.order - 1)
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    report = ObstructionReport(coefficients=[e])
    coeffs = [e]
    for k in range(1, depth + 1):
        beta = _beta(D, coeffs, k)
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
        coeffs.append(ak)
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
    e = A.coerce(e)
    x = A.coerce(x)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
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


def clean_decompose_def(D, h, cap=None, check_uniqueness=True):
    """Split h into a lifted idempotent plus a unit, using the base algebra's
    first clean witness; when the base is uniquely clean the decomposition is
    also certified unique in the flattened model."""
    _check_order(D, h)
    A = D.base
    rep = decomposition_report(A, cap)
    if not rep.flags["clean"]:
        raise BaseNotClean(f"{A.name} is not clean")
    e, u = rep.witnesses[h[0]]["clean"]
    e_t, _ = lift_idempotent_newton(D, e)
    u_t = def_sub(D, h, e_t)
    invert_def(D, u_t)  # certifies invertibility; constant term is u

    if check_uniqueness and rep.flags["uniquely_clean"]:
        F = flatten(D, cap)
        z = flatten_element(D, h)
        count = 0
        for cand in F.elements(cap):
            if F.mul(cand, cand) != cand:
                continue
            if F.inverse(F.sub(z, cand), cap) is not None:
                count += 1
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

    def apply_g(x):
        return _linear(gmap, x, A.n, r)

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
    pivot = next((i for i, c in enumerate(unit) if _invertible_mod(c, A.n)),
                 None)
    if pivot is None:
        raise BadShape("no invertible unit coordinate to correct against")
    inv = pow(unit[pivot], -1, A.n) if unit[pivot] != 1 else 1
    total = [0] * r
    for i, c in enumerate(unit):
        if i != pivot and c:
            for k in range(r):
                total[k] = (total[k] + c * rows[i][k]) % A.n
    rows[pivot] = [(-inv * v) % A.n for v in total]
    return [tuple(row) for row in rows]


def _invertible_mod(c, n):
    c %= n
    if not c:
        return False
    while n:
        c, n = n, c % n
    return c == 1


def catalog_deformations(order=4):
    """The three fixed deformations every suite runs against."""
    from .algebra import direct_product, zn
    P = direct_product([zn(2), zn(2)])
    return [
        trivial_deformation(zn_poly_x2(2), order),
        x_squared_t_deformation(2, order),
        gauge_deformation(P, seeded_gauge_map(P, 300), order,
                          name=f"{P.name} gauge/coboundary (N={order})"),
    ]
