"""Finite posets, presheaves of algebras, and the assembled matrix algebra.

A presheaf places an algebra on every node and a restriction homomorphism
toward every smaller node.  The assembled algebra consists of poset-shaped
matrices: entry (i, j) lives in the stalk at i when i <= j, and products
twist through the restriction maps.  Choosing a linear extension of the
poset makes every matrix upper triangular, which is what the structural
clean/nil-clean/exchange decompositions exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    FiniteAlgebra,
    _check_table,
    _linear,
    direct_product,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from .classify import (
    decomposition_report,
    jacobson_radical,
    quotient_by_ideal,
)
from .errors import (
    BadShape,
    CapExceeded,
    PresheafInvalid,
    SelfCheckFailed,
    StalkNotClean,
    StalkNotNilClean,
)


class Poset:
    """A finite partial order on {0, .., size-1}, stored as a leq matrix."""

    def __init__(self, size, leq):
        self.size = int(size)
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)

    @classmethod
    def from_covers(cls, size, covers):
        """Build from cover (or any generating) relations; the transitive
        closure is computed and the result validated."""
        leq = [[i == j for j in range(size)] for i in range(size)]
        for i, j in covers:
            leq[i][j] = True
        changed = True
        while changed:
            changed = False
            for i in range(size):
                for j in range(size):
                    if leq[i][j]:
                        for k in range(size):
                            if leq[j][k] and not leq[i][k]:
                                leq[i][k] = True
                                changed = True
        return validate_poset(cls(size, leq))

    def pairs(self):
        """All comparable (i, j) with i <= j, ordered by the linear extension."""
        order = linear_extension(self)
        pos = {v: idx for idx, v in enumerate(order)}
        out = [(i, j) for i in range(self.size) for j in range(self.size)
               if self.leq[i][j]]
        out.sort(key=lambda p: (pos[p[0]], pos[p[1]]))
        return out

    def __repr__(self):
        return f"Poset(size={self.size})"


def validate_poset(P: Poset) -> Poset:
    n = P.size
    if len(P.leq) != n or any(len(row) != n for row in P.leq):
        raise BadShape("leq relation is not size x size")
    for i in range(n):
        if not P.leq[i][i]:
            raise BadShape(f"relation is not reflexive at {i}")
        for j in range(n):
            if i != j and P.leq[i][j] and P.leq[j][i]:
                raise BadShape(f"relation is not antisymmetric at ({i}, {j})")
            for k in range(n):
                if P.leq[i][j] and P.leq[j][k] and not P.leq[i][k]:
                    raise BadShape(f"relation is not transitive at ({i},{j},{k})")
    return P


def linear_extension(P: Poset):
    """Topological order, smallest node index first among minimal elements."""
    remaining = set(range(P.size))
    order = []
    while remaining:
        minimal = sorted(
            i for i in remaining
            if not any(P.leq[j][i] for j in remaining if j != i))
        nxt = minimal[0]
        order.append(nxt)
        remaining.remove(nxt)
    return order


class Presheaf:
    """Stalk algebras on nodes plus restriction maps toward smaller nodes.

    maps[(h, i)] for h <= i is the image table of a unital homomorphism from
    stalk i to stalk h, one coordinate tuple per basis element of stalk i;
    restriction reduces its entries mod n.
    """

    def __init__(self, poset: Poset, stalks, maps, name=""):
        self.poset = poset
        self.stalks = list(stalks)
        self.maps = dict(maps)
        self.name = name or "presheaf"

    def restrict(self, h, i, x):
        """Apply the restriction map from stalk i into stalk h <= i."""
        if h == i:
            return tuple(x)
        S = self.stalks[h]
        return _linear(self.maps[(h, i)], x, S.n, S.rank)

    def __repr__(self):
        return f"Presheaf({self.name!r})"


def validate_presheaf(F: Presheaf) -> Presheaf:
    P = F.poset
    validate_poset(P)
    if len(F.stalks) != P.size:
        raise PresheafInvalid("one stalk per node required")
    n = F.stalks[0].n
    for S in F.stalks:
        if S.n != n:
            raise PresheafInvalid("stalks must share one modulus")
    for h in range(P.size):
        for i in range(P.size):
            if h == i or not P.leq[h][i]:
                continue
            if (h, i) not in F.maps:
                raise PresheafInvalid(f"missing restriction map for {h} <= {i}")
            src, dst = F.stalks[i], F.stalks[h]
            table = F.maps[(h, i)]
            _check_table(table, (src.rank, dst.rank), f"map table for ({h},{i})")
            if F.restrict(h, i, src.one()) != dst.one():
                raise PresheafInvalid(f"map for ({h},{i}) does not send 1 to 1")
            for a in range(src.rank):
                for b in range(src.rank):
                    lhs = F.restrict(h, i, src.table[a][b])
                    rhs = dst.mul(table[a], table[b])
                    if lhs != rhs:
                        raise PresheafInvalid(
                            f"map for ({h},{i}) is not multiplicative at "
                            f"basis pair ({a},{b})")
    # functoriality on chains h <= i <= j
    for h in range(P.size):
        for i in range(P.size):
            if not P.leq[h][i]:
                continue
            for j in range(P.size):
                if not P.leq[i][j]:
                    continue
                src = F.stalks[j]
                for b in range(src.rank):
                    x = src.basis(b)
                    if (F.restrict(h, j, x)
                            != F.restrict(h, i, F.restrict(i, j, x))):
                        raise PresheafInvalid(
                            f"restriction maps fail to compose along "
                            f"{h} <= {i} <= {j}")
    return F


def constant_presheaf(P: Poset, A: FiniteAlgebra, name=None) -> Presheaf:
    ident = tuple(A.basis(i) for i in range(A.rank))
    maps = {(h, i): ident
            for h in range(P.size) for i in range(P.size)
            if h != i and P.leq[h][i]}
    return validate_presheaf(Presheaf(
        P, [A] * P.size, maps, name=name or f"constant {A.name}"))


class PosetAlgebra:
    """The assembled matrix algebra with its block bookkeeping."""

    def __init__(self, presheaf, carrier, blocks, offsets):
        self.presheaf = presheaf
        self.carrier = carrier
        self.blocks = blocks          # ordered (i, j) pairs
        self.offsets = offsets        # (i, j) -> (start, rank of stalk i)

    def block(self, z, pair):
        start, width = self.offsets[pair]
        return tuple(z[start:start + width])

    def inject(self, assignments):
        """Carrier coordinates from a {(i, j): stalk-i element} mapping."""
        coords = [0] * self.carrier.rank
        for pair, x in assignments.items():
            start, width = self.offsets[pair]
            if len(x) != width:
                raise BadShape(f"entry for block {pair} has wrong length")
            for k, v in enumerate(x):
                coords[start + k] = v % self.carrier.n
        return tuple(coords)

    def diagonal(self, z):
        """Stalk entries on the diagonal blocks, indexed by node."""
        return {i: self.block(z, (i, i)) for i in range(self.presheaf.poset.size)}

    def __repr__(self):
        return f"PosetAlgebra({self.carrier.name!r})"


# Table assembly and certification cost rank^3 cells; above this the table
# itself stops being a desk-scale object.
MAX_CARRIER_RANK = 64


def build_shriek(F: Presheaf, cap=None, rank_limit=MAX_CARRIER_RANK) -> PosetAlgebra:
    """Assemble the poset-matrix algebra and certify it as a FiniteAlgebra."""
    validate_presheaf(F)
    P = F.poset
    blocks = P.pairs()
    offsets = {}
    pos = 0
    for (i, j) in blocks:
        offsets[(i, j)] = (pos, F.stalks[i].rank)
        pos += F.stalks[i].rank
    rank = pos
    if rank > rank_limit:
        raise CapExceeded(
            f"carrier rank {rank} exceeds the assembly limit {rank_limit}")
    n = F.stalks[0].n

    basis_index = []
    for pair in blocks:
        for u in range(F.stalks[pair[0]].rank):
            basis_index.append((pair, u))

    structure = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for a_idx, ((h, i), u) in enumerate(basis_index):
        Sh = F.stalks[h]
        for b_idx, ((i2, j), v) in enumerate(basis_index):
            if i2 != i:
                continue
            # (h, i) block times (i, j) block lands in (h, j)
            img = F.restrict(h, i, F.stalks[i2].basis(v))
            val = Sh.mul(Sh.basis(u), img)
            start, _ = offsets[(h, j)]
            cell = structure[a_idx][b_idx]
            for k, c in enumerate(val):
                cell[start + k] = c
    unit = [0] * rank
    for i in range(P.size):
        start, width = offsets[(i, i)]
        for k, c in enumerate(F.stalks[i].one()):
            unit[start + k] = c
    carrier = validate_algebra({
        "modulus": n, "rank": rank, "structure": structure, "unit": unit,
    }, name=f"{F.name}!")
    return PosetAlgebra(F, carrier, blocks, offsets)


@dataclass
class TriangularIdealReport:
    is_ideal: bool
    nilpotency_index: int
    longest_chain: int
    quotient_matches_product: bool
    inside_radical: bool | None


def triangular_ideal_facts(PA: PosetAlgebra, cap=None) -> TriangularIdealReport:
    """The strictly-upper blocks form a nilpotent ideal; the quotient is the
    product of the stalks via diagonal extraction; the ideal sits inside the
    radical whenever the carrier is enumerable."""
    F = PA.presheaf
    P = F.poset
    carrier = PA.carrier
    strict = [pair for pair in PA.blocks if pair[0] != pair[1]]
    strict_coords = set()
    for pair in strict:
        start, width = PA.offsets[pair]
        strict_coords.update(range(start, start + width))

    # two-sidedness on basis pairs: any product touching a strict block stays
    # inside the strict coordinates
    is_ideal = True
    basis_block = []
    for pair in PA.blocks:
        for _ in range(F.stalks[pair[0]].rank):
            basis_block.append(pair)
    for a_idx in range(carrier.rank):
        for b_idx in range(carrier.rank):
            if (basis_block[a_idx][0] != basis_block[a_idx][1]
                    or basis_block[b_idx][0] != basis_block[b_idx][1]):
                cell = carrier.table[a_idx][b_idx]
                if any(c and k not in strict_coords
                       for k, c in enumerate(cell)):
                    is_ideal = False

    # nilpotency through coordinate support of iterated products
    support = set(strict_coords)
    index = 1
    while support:
        index += 1
        nxt = set()
        for a_idx in support:
            for b_idx in strict_coords:
                cell = carrier.table[a_idx][b_idx]
                nxt.update(k for k, c in enumerate(cell) if c)
        if nxt == support:
            raise SelfCheckFailed("strict-block support failed to shrink")
        support = nxt
    longest = _longest_chain(P)
    if index > longest:
        raise SelfCheckFailed(
            f"nilpotency index {index} exceeds the longest chain {longest}")

    quotient_ok = _verify_quotient_is_product(PA, cap)

    inside_radical = None
    try:
        carrier.require_within_cap(cap)
    except CapExceeded:
        pass
    else:
        radical = set(jacobson_radical(carrier, cap))
        inside_radical = all(
            carrier.basis(k) in radical for k in sorted(strict_coords))
    return TriangularIdealReport(is_ideal, index, longest, quotient_ok,
                                 inside_radical)


def _longest_chain(P: Poset):
    best = [1] * P.size
    order = linear_extension(P)
    for i in reversed(order):
        for j in range(P.size):
            if i != j and P.leq[i][j]:
                best[i] = max(best[i], 1 + best[j])
    return max(best)


def _verify_quotient_is_product(PA: PosetAlgebra, cap=None):
    """Certify the diagonal-extraction isomorphism from the coset algebra
    onto the direct product of the stalks."""
    F = PA.presheaf
    carrier = PA.carrier
    strict_gens = []
    for pair in PA.blocks:
        if pair[0] != pair[1]:
            start, width = PA.offsets[pair]
            strict_gens.extend(carrier.basis(start + k) for k in range(width))
    try:
        carrier.require_within_cap(cap)
    except CapExceeded:
        return None
    Q, project, ideal = quotient_by_ideal(carrier, strict_gens, cap)
    prod = direct_product([F.stalks[i] for i in range(F.poset.size)]) \
        if F.poset.size > 1 else F.stalks[0]

    if Q.size != prod.size:
        return False

    def diag_embed(z):
        coords = []
        for i in range(F.poset.size):
            coords.extend(PA.block(z, (i, i)))
        return tuple(coords)

    # project is surjective; build the induced map Q -> prod and check it is
    # a bijective unital homomorphism
    image_of = {}
    for z in carrier.elements(cap):
        q = project(z)
        d = diag_embed(z)
        if q in image_of and image_of[q] != d:
            return False            # not well defined on cosets
        image_of[q] = d
    values = set(image_of.values())
    if len(values) != prod.size:
        return False
    if image_of[Q.one()] != prod.one():
        return False
    for q1 in Q.elements(cap):
        for q2 in Q.elements(cap):
            if image_of[Q.mul(q1, q2)] != prod.mul(image_of[q1], image_of[q2]):
                return False
            if image_of[Q.add(q1, q2)] != prod.add(image_of[q1], image_of[q2]):
                return False
    return True


def structural_decompose(PA: PosetAlgebra, z, mode="clean"):
    """Split z as a diagonal idempotent plus a triangular remainder using the
    stalks' decompositions of the diagonal entries; both parts re-certified
    by carrier arithmetic."""
    F = PA.presheaf
    carrier = PA.carrier
    z = carrier.coerce(z)
    diag_parts = {}
    for i in range(F.poset.size):
        S = F.stalks[i]
        xi = PA.block(z, (i, i))
        rep = decomposition_report(S)
        if mode == "clean":
            if not rep.flags["clean"]:
                raise StalkNotClean(f"stalk {i} ({S.name}) is not clean")
            e, _u = rep.witnesses[xi]["clean"]
        elif mode == "nil-clean":
            if not rep.flags["nil_clean"]:
                raise StalkNotNilClean(f"stalk {i} ({S.name}) is not nil-clean")
            e, _x = rep.witnesses[xi]["nil_clean"]
        else:
            raise BadShape(f"unknown mode {mode!r}")
        diag_parts[(i, i)] = e
    D = PA.inject(diag_parts)
    R = carrier.sub(z, D)
    if carrier.mul(D, D) != D:
        raise SelfCheckFailed("diagonal part failed to be idempotent")
    if mode == "clean":
        if carrier.inverse(R) is None:
            raise SelfCheckFailed("triangular part failed to be invertible")
    else:
        if carrier.nilpotency_index(R) is None:
            raise SelfCheckFailed("triangular part failed to be nilpotent")
    return D, R


@dataclass
class ShriekReport:
    carrier_name: str
    stalk_flags: list
    carrier_flags: dict | None
    biconditionals: dict = field(default_factory=dict)


def classify_shriek(PA: PosetAlgebra, cap=None) -> ShriekReport:
    """Brute-force the carrier when enumerable and cross-check the transfer
    biconditionals against the stalks' flags, in both directions."""
    F = PA.presheaf
    stalk_reports = [decomposition_report(S, cap) for S in F.stalks]
    stalk_flags = [r.flags for r in stalk_reports]

    carrier_flags = None
    try:
        PA.carrier.require_within_cap(cap)
    except CapExceeded:
        pass
    else:
        carrier_flags = decomposition_report(PA.carrier, cap).flags

    bic = {}
    for key in ("clean", "nil_clean", "exchange"):
        stalkwise = all(flags[key] for flags in stalk_flags)
        if carrier_flags is not None:
            bic[key] = carrier_flags[key] == stalkwise
            if not bic[key]:
                raise SelfCheckFailed(
                    f"{PA.carrier.name}: {key} transfer biconditional failed")
        else:
            bic[key] = None
    return ShriekReport(PA.carrier.name, stalk_flags, carrier_flags, bic)


# ready-made examples

def poset_v(name="2' >= 1 <= 2") -> Poset:
    """Three nodes: 0 below both 1 and 2."""
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def poset_square() -> Poset:
    """Four nodes: 0 and 1 each below 2 and 3 (the nerve is a circle)."""
    return Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def poset_sphere() -> Poset:
    """Six nodes in three suspension layers (the nerve is a 2-sphere)."""
    return Poset.from_covers(6, [
        (0, 2), (0, 3), (1, 2), (1, 3),
        (2, 4), (2, 5), (3, 4), (3, 5),
    ])


def example_one_presheaf() -> Presheaf:
    """Mixed stalks on the V poset: dual numbers at the root, Z2 above."""
    P = poset_v()
    A = zn_poly_x2(2)
    Z2 = zn(2)
    # unital inclusions Z2 -> A on both arrows out of the root
    incl = ((1, 0),)
    maps = {(0, 1): incl, (0, 2): incl}
    return validate_presheaf(Presheaf(P, [A, Z2, Z2], maps,
                                      name="dual numbers under two points"))


def sphere_presheaf(p=2) -> Presheaf:
    return constant_presheaf(poset_sphere(), zn(p),
                             name=f"sphere constant Z{p}")


def square_presheaf(p=2) -> Presheaf:
    return constant_presheaf(poset_square(), zn(p),
                             name=f"circle constant Z{p}")


def chain_presheaf(length, stalk, name=None) -> Presheaf:
    P = Poset.from_covers(length, [(i, i + 1) for i in range(length - 1)])
    return constant_presheaf(P, stalk, name=name or f"chain({length}) {stalk.name}")


def antichain_presheaf(length, stalk, name=None) -> Presheaf:
    P = Poset.from_covers(length, [])
    return constant_presheaf(P, stalk,
                             name=name or f"antichain({length}) {stalk.name}")


def example_catalog():
    """Named builders for every ready-made presheaf."""
    return {
        "example-1": example_one_presheaf,
        "example-2-sphere": sphere_presheaf,
        "square-circle": square_presheaf,
        "chain": chain_presheaf,
        "antichain": antichain_presheaf,
    }
