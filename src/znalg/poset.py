"""Finite posets, presheaves of algebras, and the assembled matrix algebra.

A presheaf places an algebra on every node and a restriction homomorphism
toward every smaller node.  The assembled algebra consists of poset-shaped
matrices: entry (i, j) lives in the stalk at i when i <= j, and products
twist through the restriction maps.  Choosing a linear extension of the
poset makes every matrix upper triangular, which is what the structural
clean/nil-clean/exchange decompositions exploit.

Each poset and presheaf is certified once, where it is built
(Poset.from_covers, validate_presheaf), and trusted from then on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import (
    FiniteAlgebra,
    Multilinear,
    _check_int,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from .classify import decomposition_report, in_radical
from .errors import (
    BadShape,
    CapExceeded,
    PresheafInvalid,
    SelfCheckFailed,
    StalkNotNilClean,
)


# Table assembly and certification cost rank^3 cells; above this the table
# itself stops being a desk-scale object.
MAX_CARRIER_RANK = 64


class Poset:
    """A finite partial order on {0, .., size-1}, stored as a leq matrix."""

    def __init__(self, size, leq):
        self.size = _check_int(size, "poset size")
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)

    @classmethod
    def from_covers(cls, size, covers):
        """Build from cover (or any generating) relations; the transitive
        closure is computed and the result validated.  Each node adds a
        diagonal block of rank at least 1 to the poset algebra, so a size
        above MAX_CARRIER_RANK is refused before the closure."""
        if _check_int(size, "poset size") < 1:
            raise BadShape(f"a poset needs at least one node, got {size}")
        if size > MAX_CARRIER_RANK:
            raise CapExceeded(
                f"poset size {size} exceeds the assembly limit "
                f"{MAX_CARRIER_RANK}")
        leq = [[i == j for j in range(size)] for i in range(size)]
        for cover in covers:
            if len(cover) != 2 or not all(
                    type(v) is int and 0 <= v < size for v in cover):
                raise BadShape(
                    f"cover {cover!r} is not a pair of nodes 0..{size - 1}")
            i, j = cover
            leq[i][j] = True
        for k in range(size):  # Warshall: paths through nodes 0..k
            row_k = leq[k]
            for i in range(size):
                if leq[i][k]:
                    leq[i] = [a or b for a, b in zip(leq[i], row_k)]
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
    restriction reduces its entries mod n.  A map's Multilinear, of shape
    (rank of stalk i, rank of stalk h), is built on its first restriction,
    which validate_presheaf makes, so a table of another shape is refused
    there.
    """

    def __init__(self, poset: Poset, stalks, maps, name=""):
        self.poset = poset
        self.stalks = list(stalks)
        self.maps = dict(maps)
        self.name = name or "presheaf"
        self._restrictions = {}

    def restrict(self, h, i, x):
        """Apply the restriction map from stalk i into stalk h <= i."""
        if h == i:
            return tuple(x)
        f = self._restrictions.get((h, i))
        if f is None:
            f = self._restrictions[(h, i)] = Multilinear(
                self.maps[(h, i)], self.stalks[h].n,
                (self.stalks[i].rank, self.stalks[h].rank),
                f"map table for ({h},{i})")
        return f.evaluate(x)

    def __repr__(self):
        return f"Presheaf({self.name!r})"


def validate_presheaf(F: Presheaf) -> Presheaf:
    """Certify a Presheaf over a certified poset and return it: a unital
    ring map for each h < i, composing along every chain h <= i <= j."""
    P = F.poset
    nodes = range(P.size)
    if len(F.stalks) != P.size:
        raise PresheafInvalid("one stalk per node required")
    if len({S.n for S in F.stalks}) > 1:
        raise PresheafInvalid("stalks must share one modulus")
    # the pairs h < i in order, looked up in constant time
    arrows = dict.fromkeys((h, i) for h in nodes for i in nodes
                           if h != i and P.leq[h][i])
    for h, i in F.maps:
        if (h, i) not in arrows:
            raise PresheafInvalid(
                f"restriction map for ({h},{i}) is not between nodes h < i")
    for h, i in arrows:
        if (h, i) not in F.maps:
            raise PresheafInvalid(f"missing restriction map for {h} <= {i}")
        src, dst = F.stalks[i], F.stalks[h]
        table = [F.restrict(h, i, src.basis(a)) for a in range(src.rank)]
        if F.restrict(h, i, src.one()) != dst.one():
            raise PresheafInvalid(f"map for ({h},{i}) does not send 1 to 1")
        for a in range(src.rank):
            for b in range(src.rank):
                if (F.restrict(h, i, src.table[a][b])
                        != dst.mul(table[a], table[b])):
                    raise PresheafInvalid(
                        f"map for ({h},{i}) is not multiplicative at "
                        f"basis pair ({a},{b})")
    # functoriality on chains h <= i <= j
    for h, i, j in product(nodes, repeat=3):
        if P.leq[h][i] and P.leq[i][j]:
            for b in range(F.stalks[j].rank):
                x = F.stalks[j].basis(b)
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


def build_shriek(F: Presheaf) -> PosetAlgebra:
    """Assemble the poset-matrix algebra of a certified presheaf and
    certify it as a FiniteAlgebra."""
    P = F.poset
    blocks = P.pairs()
    offsets = {}
    pos = 0
    for (i, j) in blocks:
        offsets[(i, j)] = (pos, F.stalks[i].rank)
        pos += F.stalks[i].rank
    rank = pos
    if rank > MAX_CARRIER_RANK:
        raise CapExceeded(
            f"carrier rank {rank} exceeds the assembly limit "
            f"{MAX_CARRIER_RANK}")
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
        unit[start:start + width] = F.stalks[i].one()
    carrier = validate_algebra(
        FiniteAlgebra(n, rank, structure, unit, f"{F.name}!"))
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
    product of the stalks via diagonal extraction, certified from the table
    at any size; the ideal sits inside the radical, decided by in_radical on
    each strict basis element (J is a two-sided ideal), which walks only
    that element's one-sided ideals, whenever the carrier is within the
    cap, and None above it."""
    F = PA.presheaf
    P = F.poset
    carrier = PA.carrier
    strict = [pair for pair in PA.blocks if pair[0] != pair[1]]
    strict_coords = set()
    for pair in strict:
        start, width = PA.offsets[pair]
        strict_coords.update(range(start, start + width))

    # two-sidedness on basis pairs: any product touching a strict block stays
    # inside the strict coordinates; the sparse cells hold the nonzero entries
    cells = carrier.mult.cells
    is_ideal = all(k in strict_coords
                   for a, row in enumerate(cells) for b, cell in enumerate(row)
                   if a in strict_coords or b in strict_coords
                   for k, _ in cell)

    # nilpotency through coordinate support of iterated products
    support = set(strict_coords)
    index = 1
    while support:
        index += 1
        nxt = {k for a in support for b in strict_coords
               for k, _ in cells[a][b]}
        if nxt == support:
            raise SelfCheckFailed("strict-block support failed to shrink")
        support = nxt
    longest = _longest_chain(P)
    if index > longest:
        raise SelfCheckFailed(
            f"nilpotency index {index} exceeds the longest chain {longest}")

    quotient_ok = is_ideal and _verify_quotient_is_product(PA)

    inside_radical = None
    if carrier.within_cap(cap):
        inside_radical = all(in_radical(carrier, carrier.basis(k), cap)
                             for k in sorted(strict_coords))
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


def _verify_quotient_is_product(PA: PosetAlgebra):
    """Certify that diagonal extraction induces A/I = product of the stalks,
    given that the strict span I is a two-sided ideal.

    Diagonal extraction is a surjective coordinate projection with kernel I,
    so it induces the isomorphism exactly when it is a unital ring map: the
    unit projects to the stalk units, and each product of two diagonal basis
    elements projects to the stalk's table entry in its own block and to zero
    in every other block (products touching I vanish on both sides).
    Bilinearity extends this to all elements."""
    F = PA.presheaf
    carrier = PA.carrier
    nodes = range(F.poset.size)
    if any(PA.block(carrier.one(), (i, i)) != F.stalks[i].one()
           for i in nodes):
        return False
    diagonal_basis = [(i, u, PA.offsets[(i, i)][0] + u)
                      for i in nodes for u in range(F.stalks[i].rank)]
    for i, u, a in diagonal_basis:
        for j, v, b in diagonal_basis:
            for h in nodes:
                want = (F.stalks[i].table[u][v] if h == i == j
                        else F.stalks[h].zero())
                if PA.block(carrier.table[a][b], (h, h)) != want:
                    return False
    return True


def structural_decompose(PA: PosetAlgebra, z, mode="clean"):
    """Split z as a diagonal idempotent plus a triangular remainder using the
    stalks' decompositions of the diagonal entries, each distinct stalk
    classified once; both parts re-certified by carrier arithmetic."""
    F = PA.presheaf
    carrier = PA.carrier
    z = carrier.coerce(z)
    reports = {S: decomposition_report(S) for S in dict.fromkeys(F.stalks)}
    diag_parts = {}
    for i in range(F.poset.size):
        S = F.stalks[i]
        xi = PA.block(z, (i, i))
        rep = reports[S]
        if mode == "clean":
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
    biconditionals against the stalks' flags, in both directions; a stalk
    on several nodes is classified once."""
    F = PA.presheaf
    flags = {S: decomposition_report(S, cap).flags
             for S in dict.fromkeys(F.stalks)}
    stalk_flags = [flags[S] for S in F.stalks]

    carrier_flags = None
    if PA.carrier.within_cap(cap):
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

def poset_v() -> Poset:
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

