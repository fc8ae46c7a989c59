"""Exhaustive ring-theoretic classification of finite Z_n-algebras.

Everything here enumerates elements in lexicographic coordinate order and
reads off definitions directly: idempotents satisfy a^2 = a, units have a
two-sided inverse, nilpotents reach zero under power iteration, and the
clean / nil-clean / exchange flags are decided by scanning all candidate
decompositions.  Scans refuse with CapExceeded instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import FiniteAlgebra, validate_algebra
from .errors import (
    IdealNotInRadical,
    QuotientNotFree,
    SelfCheckFailed,
    SideMismatch,
)


@dataclass
class ClassificationReport:
    algebra_name: str
    idempotents: list = field(default_factory=list)
    units: list = field(default_factory=list)        # (u, inverse) pairs
    nilpotents: list = field(default_factory=list)   # (x, nilpotency index)
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)    # element -> per-flag records
    failures: dict = field(default_factory=dict)     # false flag -> evidence


@dataclass
class ExchangeReport:
    algebra_name: str
    is_exchange: bool
    witnesses: dict = field(default_factory=dict)    # a -> (e, r, s)
    failures: list = field(default_factory=list)     # elements with no witness
    sides_agree: bool = True


def classify_elements(A: FiniteAlgebra, cap=None) -> ClassificationReport:
    """Idempotents, units (with inverses), and nilpotents (with index)."""
    A.require_within_cap(cap)
    rep = ClassificationReport(A.name)
    rep.idempotents = [x for x in A.elements(cap) if A.mul(x, x) == x]
    rep.units = _units_with_inverses(A, cap)
    rep.nilpotents = _nilpotents_with_index(A, cap)
    return rep


def _units_with_inverses(A, cap=None):
    units = []
    for x in A.elements(cap):
        y = A.inverse(x, cap)
        if y is not None:
            units.append((x, y))
    return units


def _nilpotents_with_index(A, cap=None):
    out = []
    for x in A.elements(cap):
        index = A.nilpotency_index(x)
        if index is not None:
            out.append((x, index))
    return out


def decomposition_report(A: FiniteAlgebra, cap=None) -> ClassificationReport:
    """Full flag report: clean, nil-clean, their unique variants, strongly
    clean, and exchange, each with per-element witnesses and, for every false
    flag, one concrete failing element."""
    rep = classify_elements(A, cap)
    idem = rep.idempotents
    unit_inv = dict(rep.units)
    nil_index = dict(rep.nilpotents)

    clean = nil_clean = uniquely_clean = uniquely_nil_clean = strongly_clean = True
    for a in A.elements(cap):
        clean_pairs = []
        strong_pair = None
        for e in idem:
            u = A.sub(a, e)
            if u in unit_inv:
                clean_pairs.append((e, u))
                if strong_pair is None and A.mul(e, u) == A.mul(u, e):
                    strong_pair = (e, u)
        nil_pairs = []
        for e in idem:
            x = A.sub(a, e)
            if x in nil_index:
                nil_pairs.append((e, x))

        rec = {
            "clean": clean_pairs[0] if clean_pairs else None,
            "clean_count": len(clean_pairs),
            "nil_clean": nil_pairs[0] if nil_pairs else None,
            "nil_clean_count": len(nil_pairs),
            "strongly_clean": strong_pair,
        }
        rep.witnesses[a] = rec

        if not clean_pairs:
            clean = False
            uniquely_clean = False
            strongly_clean = False
            rep.failures.setdefault("clean", {"element": a})
            rep.failures.setdefault("strongly_clean", {"element": a})
            rep.failures.setdefault("uniquely_clean", {"element": a, "count": 0})
        elif len(clean_pairs) > 1 and uniquely_clean:
            uniquely_clean = False
            rep.failures["uniquely_clean"] = {
                "element": a, "count": len(clean_pairs),
                "decompositions": clean_pairs[:2]}
        if clean_pairs and strong_pair is None:
            strongly_clean = False
            rep.failures.setdefault("strongly_clean", {"element": a})
        if not nil_pairs:
            nil_clean = False
            uniquely_nil_clean = False
            rep.failures.setdefault("nil_clean", {"element": a})
            rep.failures.setdefault("uniquely_nil_clean", {"element": a, "count": 0})
        elif len(nil_pairs) > 1 and nil_clean:
            if "uniquely_nil_clean" not in rep.failures:
                rep.failures["uniquely_nil_clean"] = {
                    "element": a, "count": len(nil_pairs),
                    "decompositions": nil_pairs[:2]}
    uniquely_clean = clean and "uniquely_clean" not in rep.failures
    uniquely_nil_clean = nil_clean and "uniquely_nil_clean" not in rep.failures

    exchange = is_exchange(A, cap)
    rep.flags = {
        "clean": clean,
        "nil_clean": nil_clean,
        "uniquely_clean": uniquely_clean,
        "uniquely_nil_clean": uniquely_nil_clean,
        "strongly_clean": strongly_clean,
        "exchange": exchange.is_exchange,
    }
    for a, w in exchange.witnesses.items():
        rep.witnesses[a]["exchange"] = w
    if not exchange.is_exchange:
        rep.failures["exchange"] = {"element": exchange.failures[0]}
    return rep


def is_exchange(A: FiniteAlgebra, cap=None) -> ExchangeReport:
    """Decide the exchange property, recording (e, r, s) with e = a*r,
    1 - e = (1-a)*s for every element; the left-sided variant is evaluated
    independently and the two verdicts must agree."""
    A.require_within_cap(cap)
    elems = list(A.elements(cap))
    one = A.one()
    idem = [x for x in elems if A.mul(x, x) == x]

    report = ExchangeReport(A.name, True)
    left_ok = True
    for a in elems:
        right_a = {}
        for b in elems:
            right_a.setdefault(A.mul(a, b), b)
        comp = A.sub(one, a)
        right_comp = {}
        for b in elems:
            right_comp.setdefault(A.mul(comp, b), b)
        witness = None
        for e in idem:
            if e in right_a:
                ce = A.sub(one, e)
                if ce in right_comp:
                    witness = (e, right_a[e], right_comp[ce])
                    break
        if witness is None:
            report.is_exchange = False
            report.failures.append(a)
        else:
            report.witnesses[a] = witness

        left_a = {A.mul(b, a) for b in elems}
        left_comp = {A.mul(b, comp) for b in elems}
        found_left = any(
            e in left_a and A.sub(one, e) in left_comp for e in idem)
        if not found_left:
            left_ok = False
        if found_left != (witness is not None):
            raise SideMismatch(
                f"{A.name}: left/right exchange witnesses disagree at {a}")
    report.sides_agree = left_ok == report.is_exchange
    if not report.sides_agree:
        raise SideMismatch(f"{A.name}: left/right exchange verdicts disagree")
    return report


def jacobson_radical(A: FiniteAlgebra, cap=None) -> list:
    """{x : 1 - x*r is a unit for every r}, certified equal to the rx variant."""
    A.require_within_cap(cap)
    elems = list(A.elements(cap))
    one = A.one()
    units = {u for u, _ in _units_with_inverses(A, cap)}
    right = [x for x in elems
             if all(A.sub(one, A.mul(x, r)) in units for r in elems)]
    left = [x for x in elems
            if all(A.sub(one, A.mul(r, x)) in units for r in elems)]
    if right != left:
        raise SelfCheckFailed(
            f"{A.name}: one-sided quasi-regularity sets differ (finite rings "
            "must agree)")
    return right


def saturate_ideal(A: FiniteAlgebra, gens, cap=None) -> set:
    """Close gens under addition and one-sided basis multiplications: the
    two-sided ideal they generate."""
    A.require_within_cap(cap)
    ideal = {A.zero()}
    frontier = [A.coerce(g) for g in gens]
    basis = [A.basis(i) for i in range(A.rank)]
    while frontier:
        x = frontier.pop()
        if x in ideal:
            continue
        ideal.add(x)
        for s in list(ideal):
            y = A.add(x, s)
            if y not in ideal:
                frontier.append(y)
        for b in basis:
            for y in (A.mul(b, x), A.mul(x, b)):
                if y not in ideal:
                    frontier.append(y)
    return ideal


def quotient_by_ideal(A: FiniteAlgebra, gens, cap=None):
    """Coset algebra of the two-sided ideal generated by gens.

    Returns (Q, project, ideal) where Q is a validated FiniteAlgebra over
    Z_d (d the additive exponent of the quotient), project maps an element
    of A to its Q-coordinates, and ideal is the saturated element set.
    Raises QuotientNotFree when the quotient's additive group is not a free
    Z_d-module, which the structure-constant form cannot represent.
    """
    ideal = saturate_ideal(A, gens, cap)
    size = A.size
    if size % len(ideal):
        raise SelfCheckFailed("ideal size does not divide algebra size")
    qsize = size // len(ideal)
    if qsize == 1:
        raise QuotientNotFree(
            f"{A.name}: quotient by the whole ring has one element, below "
            "the representable modulus 2")

    rep_of = {}
    reps = []
    for x in A.elements(cap):
        if x in rep_of:
            continue
        reps.append(x)          # lex-first member is the canonical rep
        for i in ideal:
            rep_of[A.add(x, i)] = x

    def coset_add(x, y):
        return rep_of[A.add(x, y)]

    zero = A.zero()
    # additive exponent of the quotient
    d = 1
    orders = {}
    for x in reps:
        acc, k = x, 1
        while acc != zero:
            acc = coset_add(acc, x)
            k += 1
        orders[x] = k
        d = d * k // _gcd(d, k)
    s = 0
    t = qsize
    while t > 1:
        if t % d:
            raise QuotientNotFree(
                f"{A.name}: quotient size {qsize} is not a power of the "
                f"additive exponent {d}")
        t //= d
        s += 1

    # greedy basis of order-d cosets with trivial span intersection; try the
    # images of the original basis first so trivial quotients keep their
    # coordinates
    candidates = []
    for i in range(A.rank):
        r = rep_of[A.basis(i)]
        if r not in candidates:
            candidates.append(r)
    seen_cand = set(candidates)
    candidates.extend(x for x in reps if x not in seen_cand)
    span = {zero}
    gens_q = []
    for g in candidates:
        if len(span) == qsize:
            break
        if orders[g] != d:
            continue
        mult, multiples = g, []
        ok = True
        while mult != zero:
            if mult in span:
                ok = False
                break
            multiples.append(mult)
            mult = coset_add(mult, g)
        if not ok:
            continue
        gens_q.append(g)
        grown = set(span)
        for m in multiples:
            grown.update(coset_add(h, m) for h in span)
        span = grown
    if len(span) != qsize or len(gens_q) != s:
        raise QuotientNotFree(
            f"{A.name}: quotient additive group is not free over Z_{d}")

    # coordinates of every coset, certified bijective
    coords_of = {zero: (0,) * s}
    for axis, g in enumerate(gens_q):
        new = {}
        for x, cs in coords_of.items():
            acc = x
            for mult in range(1, d):
                acc = coset_add(acc, g)
                c2 = list(cs)
                c2[axis] = mult
                new[acc] = tuple(c2)
        coords_of.update(new)
    if len(coords_of) != qsize:
        raise QuotientNotFree(
            f"{A.name}: quotient coordinates are not bijective")

    structure = [
        [list(coords_of[rep_of[A.mul(gi, gj)]]) for gj in gens_q]
        for gi in gens_q
    ]
    Q = validate_algebra({
        "modulus": d,
        "rank": s,
        "structure": structure,
        "unit": list(coords_of[rep_of[A.one()]]),
    }, name=f"{A.name}/I")

    def project(x):
        return coords_of[rep_of[A.coerce(x)]]

    return Q, project, ideal


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@dataclass
class LiftingReport:
    algebra_name: str
    base_clean: bool
    quotient_clean: bool
    idempotents_lift: bool
    biconditional_holds: bool
    lift_witnesses: dict = field(default_factory=dict)


def check_lifting_proposition(A: FiniteAlgebra, gens, cap=None) -> LiftingReport:
    """For an ideal I inside the radical: A clean iff A/I is clean and every
    idempotent of A/I has an idempotent preimage."""
    ideal = saturate_ideal(A, gens, cap)
    radical = set(jacobson_radical(A, cap))
    if not ideal <= radical:
        bad = sorted(ideal - radical)[0]
        raise IdealNotInRadical(
            f"{A.name}: generated ideal contains {bad} outside the radical")

    base_clean = decomposition_report(A, cap).flags["clean"]
    Q, project, _ = quotient_by_ideal(A, gens, cap)
    quotient_clean = decomposition_report(Q, cap).flags["clean"]

    idem_A = [x for x in A.elements(cap) if A.mul(x, x) == x]
    preimages = {}
    for e in idem_A:
        preimages.setdefault(project(e), e)
    lift_witnesses = {}
    lifts = True
    for q in Q.elements(cap):
        if Q.mul(q, q) == q:
            if q in preimages:
                lift_witnesses[q] = preimages[q]
            else:
                lifts = False
                lift_witnesses[q] = None

    holds = base_clean == (quotient_clean and lifts)
    if not holds:
        raise SelfCheckFailed(
            f"{A.name}: clean lifting biconditional failed "
            f"(A clean={base_clean}, A/I clean={quotient_clean}, lifts={lifts})")
    return LiftingReport(A.name, base_clean, quotient_clean, lifts, holds,
                         lift_witnesses)


@dataclass
class CounterexampleSearch:
    entries: list = field(default_factory=list)

    @property
    def total_hits(self):
        return sum(len(e.get("hits", ())) for e in self.entries)


def search_exchange_counterexample(catalog, cap=None) -> CounterexampleSearch:
    """Scan exchange rings for pairs (a, e) with e idempotent, e in aA, but
    1 - e not in (1-a)A.  Pure evidence gathering: hits are recorded, nothing
    is concluded from them."""
    report = CounterexampleSearch()
    for A in catalog:
        entry = {"algebra": A.name}
        try:
            A.require_within_cap(cap)
        except Exception as exc:
            entry["skipped"] = str(exc)
            report.entries.append(entry)
            continue
        ex = is_exchange(A, cap)
        entry["exchange"] = ex.is_exchange
        if not ex.is_exchange:
            entry["skipped"] = "not an exchange ring"
            report.entries.append(entry)
            continue
        elems = list(A.elements(cap))
        one = A.one()
        idem = [x for x in elems if A.mul(x, x) == x]
        hits = []
        for a in elems:
            in_aA = {A.mul(a, b) for b in elems}
            comp = A.sub(one, a)
            in_compA = {A.mul(comp, b) for b in elems}
            for e in idem:
                if e in in_aA and A.sub(one, e) not in in_compA:
                    hits.append((a, e))
        entry["hits"] = hits
        report.entries.append(entry)
    return report
