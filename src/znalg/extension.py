"""Singular extension algebras twisted by a 2-cocycle.

Given an algebra A, a bimodule M, and a 2-cocycle f, the extension carrier is
A + M with product (a, m)(a', m') = (aa', am' + ma' + f(a, a')).  The carrier
is materialized as a plain FiniteAlgebra of rank r + s so every exhaustive
classifier runs on it unchanged; associativity of the assembled table is
re-certified mechanically, which is exactly the cocycle condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import DEFAULT_CAP, FiniteAlgebra, validate_algebra
from .classify import decomposition_report, is_exchange
from .errors import (
    BadDecomposition,
    BadShape,
    CapExceeded,
    NonAssociative,
    NotACocycle,
    NotAUnit,
    NotIdempotent,
    SelfCheckFailed,
    WitnessMismatch,
)
from .hochschild import Bimodule, Cochain, is_cocycle2


class ExtensionAlgebra:
    """The twisted sum A + M realized as a rank r+s FiniteAlgebra."""

    def __init__(self, base, module, cocycle, carrier):
        self.base = base
        self.module = module
        self.cocycle = cocycle
        self.carrier = carrier
        self.f11 = cocycle.evaluate(base.one(), base.one())

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
        ei = A.basis(i)
        for j in range(r):
            ej = A.basis(j)
            structure[i][j] = list(A.table[i][j]) + list(f.evaluate(ei, ej))
        for j in range(s):
            structure[i][r + j] = zero_a + list(M.left[i][j])
    for i in range(s):
        for j in range(r):
            structure[r + i][j] = zero_a + list(M.right[i][j])
        for j in range(s):
            structure[r + i][r + j] = [0] * rank

    f11 = f.evaluate(A.one(), A.one())
    unit = list(A.one()) + list(M.neg(f11))
    label = name or f"ext({A.name}; {M.name})"
    try:
        carrier = validate_algebra({
            "modulus": A.n, "rank": rank, "structure": structure,
            "unit": unit}, name=label)
    except NonAssociative as exc:
        raise NotACocycle(
            f"carrier not associative at {exc.triple}") from exc

    ext = ExtensionAlgebra(A, M, f, carrier)
    # the square-zero ideal: products of module basis vectors vanish
    for i in range(s):
        for j in range(s):
            if any(carrier.table[r + i][r + j]):
                raise SelfCheckFailed("module ideal fails to square to zero")
    if carrier.unit != ext.pair(A.one(), M.neg(f11)):
        raise SelfCheckFailed("carrier unit differs from (1, -f(1,1))")
    return ext


def idempotent_equation_solutions(B: ExtensionAlgebra, e, cap=None):
    """All t in M with et + te + f(e, e) = t, certified against the carrier.

    Also certifies that the solution set is nonempty and that it is a
    singleton exactly when e commutes with all of M.
    """
    A, M = B.base, B.module
    e = A.coerce(e)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
    count = M.n ** M.rank
    limit = DEFAULT_CAP if cap is None else cap
    if count > limit:
        raise CapExceeded(f"module has {count} elements, above cap {limit}")

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
    central = all(M.lact(e, M.basis(j)) == M.ract(M.basis(j), e)
                  for j in range(M.rank))
    if (len(sols) == 1) != central:
        raise SelfCheckFailed(
            "uniqueness of the lift must match e commuting with M")
    return sols


def lift_idempotent(B: ExtensionAlgebra, e, x=None):
    """The explicit lift (e, (1-2e)f(e,e) + ex - xe); certified idempotent."""
    A, M = B.base, B.module
    e = A.coerce(e)
    if A.mul(e, e) != e:
        raise NotIdempotent(f"{e} is not idempotent in {A.name}")
    if x is None:
        x = M.zero()
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
    p = tuple(v % M.n for v in p)
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
    A, M = B.base, B.module
    a, m = am
    a = A.coerce(a)
    e = A.coerce(e)
    u = A.coerce(u)
    if A.mul(e, e) != e:
        raise BadDecomposition(f"{e} is not idempotent")
    if A.inverse(u) is None:
        raise BadDecomposition(f"{u} is not a unit")
    if A.add(e, u) != a:
        raise BadDecomposition("e + u != a")
    t = M.lact(A.sub(A.one(), A.smul(2, e)), B.cocycle.evaluate(e, e))
    first = B.pair(e, t)
    second = B.pair(u, M.sub(m, t))
    _certify_sum(B, am, first, second)
    if B.carrier.mul(first, first) != first:
        raise SelfCheckFailed("lifted idempotent part is not idempotent")
    invert_extension_element(B, u, M.sub(m, t))  # certifies unit
    return first, second


def lift_nil_clean_decomposition(B: ExtensionAlgebra, am, e, x):
    """Lift a = e + x (x nilpotent) to a nil-clean decomposition of (a, m)."""
    A, M = B.base, B.module
    a, m = am
    a = A.coerce(a)
    e = A.coerce(e)
    x = A.coerce(x)
    if A.mul(e, e) != e:
        raise BadDecomposition(f"{e} is not idempotent")
    index = A.nilpotency_index(x)
    if index is None:
        raise BadDecomposition(f"{x} is not nilpotent")
    if A.add(e, x) != a:
        raise BadDecomposition("e + x != a")
    t = M.lact(A.sub(A.one(), A.smul(2, e)), B.cocycle.evaluate(e, e))
    first = B.pair(e, t)
    second = B.pair(x, M.sub(m, t))
    _certify_sum(B, am, first, second)
    if B.carrier.mul(first, first) != first:
        raise SelfCheckFailed("lifted idempotent part is not idempotent")
    carrier_index = B.carrier.nilpotency_index(second)
    if carrier_index is None or carrier_index > 2 * index:
        raise SelfCheckFailed(
            f"lifted nilpotent part has index {carrier_index}, above twice "
            f"the base index {index}")
    return first, second


def _certify_sum(B, am, first, second):
    a, m = am
    target = B.pair(B.base.coerce(a), tuple(v % B.module.n for v in m))
    if B.carrier.add(first, second) != target:
        raise SelfCheckFailed("lifted parts do not sum to the element")


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
    a = A.coerce(a)
    m = tuple(v % M.n for v in m)
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

    central = all(
        M.lact(e, M.basis(j)) == M.ract(M.basis(j), e)
        for e in rep_a.idempotents for j in range(M.rank))

    clauses = [
        TheoremClause(
            "nil-clean-transfer",
            rep_b.flags["nil_clean"] == rep_a.flags["nil_clean"],
            {"base": rep_a.flags["nil_clean"],
             "carrier": rep_b.flags["nil_clean"]}),
        TheoremClause(
            "clean-transfer",
            rep_b.flags["clean"] == rep_a.flags["clean"],
            {"base": rep_a.flags["clean"], "carrier": rep_b.flags["clean"]}),
        TheoremClause(
            "exchange-transfer",
            rep_b.flags["exchange"] == rep_a.flags["exchange"],
            {"base": rep_a.flags["exchange"],
             "carrier": rep_b.flags["exchange"]}),
        TheoremClause(
            "uniquely-nil-clean-criterion",
            rep_b.flags["uniquely_nil_clean"]
            == (rep_a.flags["uniquely_nil_clean"] and central),
            {"base": rep_a.flags["uniquely_nil_clean"],
             "carrier": rep_b.flags["uniquely_nil_clean"],
             "idempotents_commute_with_module": central}),
        TheoremClause(
            "uniquely-clean-criterion",
            rep_b.flags["uniquely_clean"]
            == (rep_a.flags["uniquely_clean"] and central),
            {"base": rep_a.flags["uniquely_clean"],
             "carrier": rep_b.flags["uniquely_clean"],
             "idempotents_commute_with_module": central}),
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

    @property
    def unsolved(self):
        return [c for c in self.cases if not c["found"]]


def probe_remark_second_half(B: ExtensionAlgebra, cap=None) -> SecondHalfProbe:
    """Evidence-only probe: for each (a, m) with an exchange witness e = ar,
    search for (p, q) with (1-e, -f(1,1)-t) = (1-a, -f(1,1)-m)(p, q).
    Reports what the search finds; the general question stays open."""
    A, M = B.base, B.module
    carrier = B.carrier
    carrier.require_within_cap(cap)
    ex = is_exchange(A, cap)
    probe = SecondHalfProbe(carrier.name)
    if not ex.is_exchange:
        return probe
    one = A.one()
    neg_f11 = M.neg(B.f11)
    for a, (e, r, _s) in sorted(ex.witnesses.items()):
        for m in product(range(M.n), repeat=M.rank):
            f = B.cocycle
            x = M.neg(M.add(f.evaluate(a, r), M.ract(m, r)))
            t = M.lact(A.sub(one, A.smul(2, e)), f.evaluate(e, e))
            t = M.add(t, M.sub(M.lact(e, x), M.ract(x, e)))
            target = B.pair(A.sub(one, e), M.sub(neg_f11, t))
            left = B.pair(A.sub(one, a), M.sub(neg_f11, m))
            found = None
            for z in carrier.elements(cap):
                if carrier.mul(left, z) == target:
                    found = z
                    break
            probe.cases.append({
                "a": a, "m": m, "e": e, "r": r,
                "found": found is not None, "factor": found})
    return probe
