"""Exhaustive ring-theoretic classification of finite Z_n-algebras.

Everything here enumerates elements in lexicographic coordinate order and
reads off definitions directly: idempotents satisfy a^2 = a, and units and
nilpotents come from one walk over the powers of each element, which stops
at 1 for a unit (the previous power is its inverse) and at 0 for a
nilpotent (FiniteAlgebra.inverse and nilpotency_index); a unit is never
nilpotent, so units skip the second walk.  The decompositions a = e + u
(u a unit) and a = e + x (x nilpotent) are formed forward, by adding each
idempotent, in order, to every unit and every nilpotent: |E|(|U| + |Nil|)
additions, and each element's pairs come out in idempotent order.  The
nil-clean flags and unique cleanness are read off the pair counts.  Every
finite ring is strongly clean and exchange (Camillo-Yu 1994, Nicholson
1977), so the clean, strongly clean and exchange flags are self-checks:
each element's clean witnesses come from the same pairing, and a missing
one raises SelfCheckFailed.  The exchange witness is
built from the strongly clean pair as in Nicholson's proof and re-checked by
exact arithmetic; no divisor scan runs for it.  FiniteAlgebra.right_divisors
is only for one-sided ideal membership.  Radical membership is asked per
element (in_radical: 1 - xr and 1 - rx are units for every r); callers test
the few elements they care about, and jacobson_radical is the same test on
every element.  Scans refuse with CapExceeded instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .algebra import FiniteAlgebra, validate_algebra
from .errors import (
    CapExceeded,
    IdealNotInRadical,
    QuotientNotFree,
    SelfCheckFailed,
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


def classify_elements(A: FiniteAlgebra, cap=None) -> ClassificationReport:
    """Idempotents, units (with inverses), and nilpotents (with index).  A
    unit of a nonzero ring is never nilpotent (validate_algebra certifies
    1 != 0), so only non-units walk again for their nilpotency index."""
    rep = ClassificationReport(A.name)
    rep.idempotents = A.idempotents(cap)
    for x in A.elements(cap):
        y = A.inverse(x, cap)
        if y is not None:
            rep.units.append((x, y))
            continue
        index = A.nilpotency_index(x, cap)
        if index is not None:
            rep.nilpotents.append((x, index))
    return rep


def _sum_pairs(A: FiniteAlgebra, idempotents, partners, commuting=False):
    """{a: [first two pairs, count, strong pair]} over every pair (e, p)
    with e + p = a, e taken from idempotents in their order: each a's pairs
    arrive in idempotent order, and the pairs are formed by
    |idempotents|·|partners| additions.  With commuting, the strong pair is
    the first with ep = pe, tested only until a has one; otherwise None."""
    found = {}
    add, mul = A.add, A.mul
    for e in idempotents:
        for p in partners:
            a = add(e, p)
            rec = found.get(a)
            if rec is None:
                rec = found[a] = [[], 0, None]
            rec[1] += 1
            if rec[1] <= 2:
                rec[0].append((e, p))
            if commuting and rec[2] is None and mul(e, p) == mul(p, e):
                rec[2] = (e, p)
    return found


def decomposition_report(A: FiniteAlgebra, cap=None) -> ClassificationReport:
    """Full flag report: clean, nil-clean, their unique variants, strongly
    clean, and exchange, each with per-element witnesses and, for every false
    flag, one concrete failing element.  Clean, strongly clean and exchange
    hold in every finite ring; an element without a witness raises
    SelfCheckFailed.

    The pairs are formed forward (_sum_pairs): each idempotent e, in
    order, is added to every unit u and every nilpotent x, at a cost of
    |E|(|U| + |Nil|) additions, and each element keeps only its first two
    pairs, their count and its first commuting pair.  The witnesses,
    counts and failures are those of scanning a - e for every idempotent e
    in order.

    The exchange witness of a = e + u (eu = ue, v = u^-1) is (f, r, s) with
    f = 1 - e, r = v f and s = -v e (Nicholson 1977): v commutes with e, so
    a r = r a = f and (1-a) s = s (1-a) = 1 - f, which witnesses both sides.
    Each identity is re-checked, and a failure raises SelfCheckFailed."""
    rep = classify_elements(A, cap)
    one = A.one()
    unit_inv = dict(rep.units)
    clean = _sum_pairs(A, rep.idempotents, unit_inv, commuting=True)
    nil = _sum_pairs(A, rep.idempotents, [x for x, _ in rep.nilpotents])

    nil_clean = True
    for a in A.elements(cap):
        clean_pairs, clean_count, strong_pair = clean.get(a, (None, 0, None))
        nil_pairs, nil_count, _ = nil.get(a, ((), 0, None))
        if strong_pair is None:
            raise SelfCheckFailed(
                f"{A.name}: {a} has no strongly clean decomposition (every "
                "finite ring is strongly clean)")
        e, u = strong_pair
        v = unit_inv[u]
        f, comp = A.sub(one, e), A.sub(one, a)
        r, s = A.mul(v, f), A.neg(A.mul(v, e))
        if not (A.mul(f, f) == f and A.mul(a, r) == f == A.mul(r, a)
                and A.mul(comp, s) == e == A.mul(s, comp)):
            raise SelfCheckFailed(
                f"{A.name}: exchange witness {(f, r, s)} built from the "
                f"strongly clean pair of {a} fails (every finite ring is "
                "exchange)")
        rep.witnesses[a] = {
            "clean": clean_pairs[0],
            "clean_count": clean_count,
            "nil_clean": nil_pairs[0] if nil_pairs else None,
            "nil_clean_count": nil_count,
            "strongly_clean": strong_pair,
            "exchange": (f, r, s),
        }

        if clean_count > 1 and "uniquely_clean" not in rep.failures:
            rep.failures["uniquely_clean"] = {
                "element": a, "count": clean_count,
                "decompositions": clean_pairs}
        if not nil_pairs:
            nil_clean = False
            rep.failures.setdefault("nil_clean", {"element": a})
            rep.failures.setdefault("uniquely_nil_clean", {"element": a, "count": 0})
        elif nil_count > 1 and "uniquely_nil_clean" not in rep.failures:
            rep.failures["uniquely_nil_clean"] = {
                "element": a, "count": nil_count,
                "decompositions": nil_pairs}

    rep.flags = {
        "clean": True,
        "nil_clean": nil_clean,
        "uniquely_clean": "uniquely_clean" not in rep.failures,
        "uniquely_nil_clean":
            nil_clean and "uniquely_nil_clean" not in rep.failures,
        "strongly_clean": True,
        "exchange": True,
    }
    return rep


def in_radical(A: FiniteAlgebra, x, cap=None) -> bool:
    """x is in the Jacobson radical: 1 - x*r is a unit for every r, certified
    equal to the r*x side.  Each side stops at its first non-unit."""
    one = A.one()
    right = all(A.inverse(A.sub(one, A.mul(x, r)), cap) is not None
                for r in A.elements(cap))
    left = all(A.inverse(A.sub(one, A.mul(r, x)), cap) is not None
               for r in A.elements(cap))
    if right != left:
        raise SelfCheckFailed(
            f"{A.name}: one-sided quasi-regularity differs at {x} (finite "
            "rings must agree)")
    return right


def jacobson_radical(A: FiniteAlgebra, cap=None) -> list:
    """Every x with in_radical(A, x), in lexicographic order."""
    return [x for x in A.elements(cap) if in_radical(A, x, cap)]


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
        d = lcm(d, k)
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
    for x in sorted(ideal):
        if not in_radical(A, x, cap):
            raise IdealNotInRadical(
                f"{A.name}: generated ideal contains {x} outside the radical")

    base = decomposition_report(A, cap)
    Q, project, _ = quotient_by_ideal(A, gens, cap)
    quotient = decomposition_report(Q, cap)
    base_clean = base.flags["clean"]
    quotient_clean = quotient.flags["clean"]

    preimages = {}
    for e in base.idempotents:
        preimages.setdefault(project(e), e)
    lift_witnesses = {q: preimages.get(q) for q in quotient.idempotents}
    lifts = None not in lift_witnesses.values()

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
    """Scan rings, each certified exchange by decomposition_report, for pairs
    (a, e) with e idempotent, e in aA, but 1 - e not in (1-a)A.  Pure
    evidence gathering: hits are recorded, nothing is concluded from them."""
    report = CounterexampleSearch()
    for A in catalog:
        entry = {"algebra": A.name}
        report.entries.append(entry)
        try:
            A.require_within_cap(cap)
        except CapExceeded as exc:
            entry["skipped"] = str(exc)
            continue
        idem = decomposition_report(A, cap).idempotents
        entry["exchange"] = True
        one = A.one()
        comp_of = {e: A.sub(one, e) for e in idem}
        hits = []
        for a in A.elements(cap):
            in_aA = A.right_divisors(a, idem, cap)
            in_compA = A.right_divisors(
                A.sub(one, a), {comp_of[e] for e in in_aA}, cap)
            hits.extend((a, e) for e in idem
                        if e in in_aA and comp_of[e] not in in_compA)
        entry["hits"] = hits
    return report
