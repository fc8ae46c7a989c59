"""Exhaustive ring-theoretic classification of finite Z_n-algebras.

The scans here enumerate elements in lexicographic coordinate order and
read off definitions directly: idempotents satisfy a^2 = a, and units and
nilpotents come from one walk over the powers of each element, which stops
at 1 for a unit (the previous power is its inverse) and at 0 for a
nilpotent (FiniteAlgebra.inverse_and_index); each element is walked once.
The decompositions a = e + u (u a unit) and a = e + x (x nilpotent) are
formed forward, by adding each idempotent, in order, to every unit and
every nilpotent: |E|(|U| + |Nil|) additions, and each element's pairs come
out in idempotent order.  The nil-clean flags and unique cleanness are read
off the pair counts.  Every finite ring is strongly clean and exchange
(Camillo-Yu 1994, Nicholson 1977), so the clean, strongly clean and
exchange flags are self-checks: each element's clean witnesses come from
the same pairing, and a missing one raises SelfCheckFailed.  The exchange
witness is built from the strongly clean pair as in Nicholson's proof and
re-checked by exact arithmetic.  The one-sided ideal xA, the span of the
x·e_i, is read from its Smith form over Z_n (linal._smith): the search asks
membership in it (linal._in_span), and radical membership is asked per
element (in_radical: 1 - y is a unit for every y in xA and for every y in
Ax), each side listed lazily from its Smith form, never A.  Callers test
the few elements they care about, and jacobson_radical is the same test on
every element.  Scans refuse with CapExceeded, never sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .algebra import FiniteAlgebra, _refuse_above_cap
from .errors import CapExceeded, SelfCheckFailed
from .linal import _in_span, _smith


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
    """Idempotents, units (with inverses), and nilpotents (with index),
    each element decided by one walk over its powers
    (FiniteAlgebra.inverse_and_index).  A unit of a nonzero ring is never
    nilpotent (the constructor refuses rank 0, so the unit laws give
    1 != 0), so a unit is listed only as a unit."""
    rep = ClassificationReport(A.name)
    rep.idempotents = A.idempotents(cap)
    decide = A.inverse_and_index
    for x in A.elements(cap):
        y, index = decide(x, cap)
        if y is not None:
            rep.units.append((x, y))
        elif index is not None:
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
    """x is in the Jacobson radical: 1 - y is a unit for every y in xA,
    certified equal to the Ax side.  xA is the Z_n-span of the x·e_i and Ax
    of the e_i·x; each side walks its Smith form (_span) to its first
    non-unit, after a refusal if |xA| + |Ax| (products of n/d_i) > cap."""
    one, n, r = A.one(), A.n, A.rank
    basis = [A.basis(i) for i in range(r)]
    sides = [_smith(products, n, r) for products in
             ([A.mul(x, b) for b in basis], [A.mul(b, x) for b in basis])]
    _refuse_above_cap(sum(prod(n // di for di in d) for d, *_ in sides),
                      cap, f"{A.name}: xA and Ax of {x}")
    right, left = (all(A.inverse(A.sub(one, y), cap) is not None
                       for y in _span(A, d, W)) for d, _, W, _ in sides)
    if right != left:
        raise SelfCheckFailed(
            f"{A.name}: one-sided quasi-regularity differs at {x} (finite "
            "rings must agree)")
    return right


def jacobson_radical(A: FiniteAlgebra, cap=None) -> list:
    """Every x with in_radical(A, x), in lexicographic order."""
    return [x for x in A.elements(cap) if in_radical(A, x, cap)]


def _span(A, d, W):
    """Every sum of c_i d_i W_i over 0 <= c_i < n / d_i, lazily and one
    addition apart; no two coincide.  The c_i count like the digits of an
    odometer, and a digit that wraps needs no correction, because n / d_i
    copies of d_i W_i sum to 0."""
    n, add = A.n, A.add
    steps = [(A.smul(di, w), n // di) for di, w in zip(d, W) if di < n]
    digits = [0] * len(steps)
    y = A.zero()
    while True:
        yield y
        for i, (x, k) in enumerate(steps):
            y = add(y, x)
            digits[i] += 1
            if digits[i] < k:
                break
            digits[i] = 0
        else:
            return


@dataclass
class CounterexampleSearch:
    entries: list = field(default_factory=list)

    @property
    def total_hits(self):
        return sum(len(e.get("hits", ())) for e in self.entries)


def search_exchange_counterexample(catalog, cap=None) -> CounterexampleSearch:
    """Scan rings, each certified exchange by decomposition_report, for pairs
    (a, e) with e idempotent, e in aA, but 1 - e not in (1-a)A, testing every
    e against one Smith form of aA and one of (1-a)A.  Pure evidence
    gathering: hits are recorded, nothing is concluded from them."""
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
        basis = [A.basis(i) for i in range(A.rank)]
        entry["hits"] = hits = []
        for a in A.elements(cap):
            forms = [_smith([A.mul(x, b) for b in basis], A.n, A.rank)[:2]
                     for x in (a, A.sub(one, a))]
            hits.extend((a, e) for e in idem if _in_span(*forms[0], e)
                        and not _in_span(*forms[1], A.sub(one, e)))
    return report
