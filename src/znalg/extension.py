"""Singular extension algebras twisted by a 2-cocycle.

Given an algebra A, a bimodule M, and a 2-cocycle f, the extension carrier is
A + M with product (a, m)(a', m') = (aa', am' + ma' + f(a, a')).  The carrier
is materialized as a plain FiniteAlgebra of rank r + s so every exhaustive
classifier runs on it unchanged; associativity of the assembled table is
re-certified mechanically, which is exactly the cocycle condition.  The
carrier's f-block is copied from the cochain's table cells, and both the
cocycle identity (δf = 0) and the carrier's associativity are certified by
algebra._compose, which composes the sparse cells of the tables and
evaluates no product.  The lifting and inversion formulas coerce every base
and module argument (FiniteAlgebra.coerce, Bimodule.coerce), so an entry
that is not an integer or an element of the wrong length is refused with
BadShape.  The clean and nil-clean lifts share one body; the second-half
probe lifts e through the exchange factorization's own x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import FiniteAlgebra, _refuse_above_cap, validate_algebra
from .classify import decomposition_report
from .errors import (
    BadDecomposition,
    BadShape,
    NonAssociative,
    NotACocycle,
    NotAUnit,
    NotIdempotent,
    SelfCheckFailed,
    WitnessMismatch,
)
from .hochschild import Bimodule, Cochain, is_cocycle2
from .linal import _solve


class ExtensionAlgebra:
    """The twisted sum A + M realized as a rank r+s FiniteAlgebra."""

    def __init__(self, base, module, cocycle, carrier, f11):
        self.base = base
        self.module = module
        self.cocycle = cocycle
        self.carrier = carrier
        self.f11 = f11  # f(1, 1), whose negative is the carrier unit's M part

    def pair(self, a, m):
        return tuple(a) + tuple(m)

    def split(self, z):
        r = self.base.rank
        return z[:r], z[r:]

    def __repr__(self):
        return f"ExtensionAlgebra({self.carrier.name!r})"


def build_extension(A: FiniteAlgebra, M: Bimodule, f: Cochain,
                    name=None) -> ExtensionAlgebra:
    """Assemble and certify the extension algebra defined by the cocycle f."""
    if M.algebra is not A and M.algebra != A:
        raise BadShape("bimodule is not over the given algebra")
    if f.degree != 2 or f.module is not M:
        raise BadShape("cocycle must be a degree-2 cochain valued in M")
    ok, violations = is_cocycle2(f)
    if not ok:
        raise NotACocycle(f"first violating triple: {violations[0]}")

    r, s = A.rank, M.rank
    rank = r + s
    zero_a = [0] * r
    structure = [[None] * rank for _ in range(rank)]
    for i in range(r):
        for j in range(r):
            # f on a basis pair is its table cell
            structure[i][j] = list(A.table[i][j]) + list(f.values[i][j])
        for j in range(s):
            structure[i][r + j] = zero_a + list(M.left[i][j])
    for i in range(s):
        for j in range(r):
            structure[r + i][j] = zero_a + list(M.right[i][j])
        for j in range(s):
            structure[r + i][r + j] = [0] * rank

    f11 = f.evaluate(A.one(), A.one())
    unit = A.one() + M.neg(f11)
    label = name or f"ext({A.name}; {M.name})"
    # the carrier's associativity follows from what is certified above; it
    # is walked again as a run-time re-check of the assembled table
    try:
        carrier = validate_algebra(
            FiniteAlgebra(A.n, rank, structure, unit, label))
    except NonAssociative as exc:
        raise NotACocycle(
            f"carrier not associative at {exc.triple}") from exc
    return ExtensionAlgebra(A, M, f, carrier, f11)


def idempotent_equation_solutions(B: ExtensionAlgebra, e, cap=None):
    """All t in M with et + te + f(e, e) = t, certified against the carrier.

    Also certifies that the solution set is nonempty and that it is a
    singleton exactly when e commutes with all of M.
    """
    A, M = B.base, B.module
    e = A.require_idempotent(e)
    _refuse_above_cap(M.n ** M.rank, cap, f"module {M.name}")

    fee = B.cocycle.evaluate(e, e)
    sols = []
    for t in product(range(M.n), repeat=M.rank):
        lhs = M.add(M.add(M.lact(e, t), M.ract(t, e)), fee)
        if lhs == t:
            sols.append(t)

    carrier = B.carrier
    brute = []
    for t in product(range(M.n), repeat=M.rank):
        z = B.pair(e, t)
        if carrier.mul(z, z) == z:
            brute.append(t)
    if brute != sols:
        raise SelfCheckFailed(
            "carrier idempotents with this constant part disagree with the "
            "solution set")
    if not sols:
        raise SelfCheckFailed("solution set is empty; a solution always exists")
    if (len(sols) == 1) != _commute_with_module(M, [e]):
        raise SelfCheckFailed(
            "uniqueness of the lift must match e commuting with M")
    return sols


def _commute_with_module(M, elements):
    """Whether every given base element commutes with all of M; the module
    basis suffices by linearity."""
    return all(M.lact(e, M.basis(j)) == M.ract(M.basis(j), e)
               for e in elements for j in range(M.rank))


def lift_idempotent(B: ExtensionAlgebra, e, x=None):
    """The explicit lift (e, (1-2e)f(e,e) + ex - xe); certified idempotent."""
    A, M = B.base, B.module
    e = A.require_idempotent(e)
    x = M.zero() if x is None else M.coerce(x)
    one_minus_2e = A.sub(A.one(), A.smul(2, e))
    t = M.lact(one_minus_2e, B.cocycle.evaluate(e, e))
    t = M.add(t, M.sub(M.lact(e, x), M.ract(x, e)))
    z = B.pair(e, t)
    if B.carrier.mul(z, z) != z:
        raise SelfCheckFailed("formula lift failed to square to itself")
    return z


def invert_extension_element(B: ExtensionAlgebra, d, p):
    """Inverse of (d, p) from the explicit formula, certified two-sided."""
    A, M = B.base, B.module
    d = A.coerce(d)
    p = M.coerce(p)
    dinv = A.inverse(d)
    if dinv is None:
        raise NotAUnit(f"{d} is not a unit of {A.name}")
    f = B.cocycle
    q = M.lact(dinv, M.ract(p, dinv))
    q = M.add(q, M.lact(dinv, f.evaluate(d, dinv)))
    q = M.add(q, M.lact(dinv, B.f11))
    z = B.pair(dinv, M.neg(q))
    u = B.carrier.one()
    zd = B.pair(d, p)
    if B.carrier.mul(zd, z) != u or B.carrier.mul(z, zd) != u:
        raise SelfCheckFailed("inverse formula failed to certify two-sided")
    return z


def lift_clean_decomposition(B: ExtensionAlgebra, am, e, u):
    """Lift a = e + u to a clean decomposition of (a, m) in the carrier."""
    return _lift_decomposition(
        B, am, e, u, "u", "a unit", B.base.inverse,
        lambda second, _: invert_extension_element(B, *B.split(second)))


def lift_nil_clean_decomposition(B: ExtensionAlgebra, am, e, x):
    """Lift a = e + x (x nilpotent) to a nil-clean decomposition of (a, m)."""
    def certify(second, index):
        carrier_index = B.carrier.nilpotency_index(second)
        if carrier_index is None or carrier_index > 2 * index:
            raise SelfCheckFailed(
                f"lifted nilpotent part has index {carrier_index}, above "
                f"twice the base index {index}")
    return _lift_decomposition(B, am, e, x, "x", "nilpotent",
                               B.base.nilpotency_index, certify)


def _lift_decomposition(B, am, e, part, name, kind, witness, certify):
    """(a, m) = (e, t) + (part, m - t), (e, t) the lift of e, refused with
    BadDecomposition unless e is idempotent, witness(part) is not None and
    e + part = a; certify(second, witness(part)) checks the second part."""
    A, M = B.base, B.module
    a, m = am
    a, m = A.coerce(a), M.coerce(m)
    e = A.coerce(e)
    part = A.coerce(part)
    if A.mul(e, e) != e:
        raise BadDecomposition(f"{e} is not idempotent")
    found = witness(part)
    if found is None:
        raise BadDecomposition(f"{part} is not {kind}")
    if A.add(e, part) != a:
        raise BadDecomposition(f"e + {name} != a")
    first = lift_idempotent(B, e)
    second = B.pair(part, M.sub(m, B.split(first)[1]))
    if B.carrier.add(first, second) != B.pair(a, m):
        raise SelfCheckFailed("lifted parts do not sum to the element")
    certify(second, found)
    return first, second


@dataclass
class HalfWitness:
    idempotent: tuple
    factor: tuple
    x: tuple


def exchange_half_witness(B: ExtensionAlgebra, am, e, r) -> HalfWitness:
    """The proved factorization: with x = -f(a,r) - mr, the lift of e through
    x equals (a, m) times (re, f(r,e) - 2rf(e,e) - rf(a,r) - rmr)."""
    A, M = B.base, B.module
    a, m = am
    a, m = A.coerce(a), M.coerce(m)
    e = A.coerce(e)
    r = A.coerce(r)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    if A.mul(a, r) != e:
        raise BadDecomposition("e != a r in the base algebra")
    f = B.cocycle
    x = M.neg(M.add(f.evaluate(a, r), M.ract(m, r)))
    lhs = lift_idempotent(B, e, x)

    q = f.evaluate(r, e)
    q = M.sub(q, M.smul(2, M.lact(r, f.evaluate(e, e))))
    q = M.sub(q, M.lact(r, f.evaluate(a, r)))
    q = M.sub(q, M.lact(r, M.ract(m, r)))
    factor = B.pair(A.mul(r, e), q)
    rhs = B.carrier.mul(B.pair(a, m), factor)
    if lhs != rhs:
        raise WitnessMismatch(
            f"factorization identity failed at a={a}, m={m}, e={e}, r={r}")
    return HalfWitness(lhs, factor, x)


@dataclass
class TheoremClause:
    tag: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class ExtensionTheoremReport:
    carrier_name: str
    clauses: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.clauses)

    def clause(self, tag):
        return next(c for c in self.clauses if c.tag == tag)


def verify_extension_theorems(A, M, f, cap=None) -> ExtensionTheoremReport:
    """Check every transfer biconditional between A and the carrier: clean,
    nil-clean, and exchange transfer unconditionally; unique cleanness and
    unique nil-cleanness transfer exactly when the idempotents of A commute
    with M."""
    B = build_extension(A, M, f)
    rep_a = decomposition_report(A, cap)
    rep_b = decomposition_report(B.carrier, cap)

    central = _commute_with_module(M, rep_a.idempotents)

    a, b = rep_a.flags, rep_b.flags
    clauses = [
        *(TheoremClause(f"{key.replace('_', '-')}-transfer", b[key] == a[key],
                        {"base": a[key], "carrier": b[key]})
          for key in ("nil_clean", "clean", "exchange")),
        *(TheoremClause(f"{key.replace('_', '-')}-criterion",
                        b[key] == (a[key] and central),
                        {"base": a[key], "carrier": b[key],
                         "idempotents_commute_with_module": central})
          for key in ("uniquely_nil_clean", "uniquely_clean")),
    ]
    report = ExtensionTheoremReport(B.carrier.name, clauses)
    if not report.all_passed:
        failed = [c.tag for c in clauses if not c.passed]
        raise SelfCheckFailed(
            f"{B.carrier.name}: transfer clauses failed: {failed}")
    return report


@dataclass
class SecondHalfProbe:
    carrier_name: str
    cases: list = field(default_factory=list)


def probe_remark_second_half(B: ExtensionAlgebra, cap=None) -> SecondHalfProbe:
    """Evidence-only probe: for each (a, m) with an exchange witness e = ar
    and (e, t) its half witness's lift, solve (1-e, -f(1,1)-t) =
    (1-a, -f(1,1)-m)(p, q) over the carrier's basis (linal._solve).
    Reports what it finds; the question stays open."""
    A, M = B.base, B.module
    carrier = B.carrier
    carrier.require_within_cap(cap)
    basis = [carrier.basis(i) for i in range(carrier.rank)]
    witnesses = decomposition_report(A, cap).witnesses
    probe = SecondHalfProbe(carrier.name)
    one = A.one()
    neg_f11 = M.neg(B.f11)
    for a, rec in sorted(witnesses.items()):
        e, r, _s = rec["exchange"]
        for m in product(range(M.n), repeat=M.rank):
            t = B.split(exchange_half_witness(B, (a, m), e, r).idempotent)[1]
            target = B.pair(A.sub(one, e), M.sub(neg_f11, t))
            left = B.pair(A.sub(one, a), M.sub(neg_f11, m))
            found = _solve([carrier.mul(left, b) for b in basis], target, A.n)
            probe.cases.append({
                "a": a, "m": m, "e": e, "r": r,
                "found": found is not None, "factor": found})
    return probe
