"""Reference arithmetic written independently of znalg.

Everything the benchmark needs to build inputs and to judge the program's
answers lives here: structure-constant tables, changes of basis, incidence
algebras of posets, brute-force element counts, flags read off from ring
structure theorems, simplicial cohomology of a poset's nerve, the
coboundary of a 1-cochain, and the truncated-series product of a
deformation.  None of it imports znalg, so a defect in the package cannot
hide in its own reference.

An algebra is a plain dict in the workspace-document format:
``{"modulus": n, "rank": r, "structure": r x r x r, "unit": r, "name": s}``.
"""

from __future__ import annotations

from itertools import product


def make(n, structure, unit, name):
    r = len(unit)
    return {"modulus": n, "rank": r, "name": name,
            "structure": [[[v % n for v in cell] for cell in row]
                          for row in structure],
            "unit": [v % n for v in unit]}


def bilinear(table, x, y, n, width):
    acc = [0] * width
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in enumerate(row[j]):
                        if v:
                            acc[k] = (acc[k] + c * v) % n
    return acc


def mul(alg, x, y):
    return bilinear(alg["structure"], x, y, alg["modulus"], alg["rank"])


def linear(rows, x, n, width):
    """x times a matrix given by its rows: sum_i x_i rows[i]."""
    acc = [0] * width
    for xi, row in zip(x, rows):
        if xi:
            for k, v in enumerate(row):
                if v:
                    acc[k] = (acc[k] + xi * v) % n
    return acc


def basis(r, i):
    return [1 if j == i else 0 for j in range(r)]


def table_nnz(alg):
    return sum(1 for row in alg["structure"] for cell in row for v in cell if v)


# constructors

def zn(n):
    return make(n, [[[1]]], [1], f"Z{n}")


def poly_x2(n):
    return make(n, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0],
                f"Z{n}[X]/(X^2)")


def direct_product(factors, name=None):
    n = factors[0]["modulus"]
    r = sum(f["rank"] for f in factors)
    structure = [[[0] * r for _ in range(r)] for _ in range(r)]
    unit = [0] * r
    off = 0
    for f in factors:
        fr = f["rank"]
        for i in range(fr):
            for j in range(fr):
                for k, v in enumerate(f["structure"][i][j]):
                    structure[off + i][off + j][off + k] = v
        for k, v in enumerate(f["unit"]):
            unit[off + k] = v
        off += fr
    return make(n, structure, unit,
                name or " x ".join(f["name"] for f in factors))


def matrix_units(n, pairs, name):
    """Span of the matrix units e_ab for (a, b) in pairs, closed under the
    product e_ab e_cd = [b == c] e_ad."""
    index = {p: i for i, p in enumerate(pairs)}
    r = len(pairs)
    structure = [[[0] * r for _ in range(r)] for _ in range(r)]
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c:
                structure[i][j][index[(a, d)]] = 1
    unit = [1 if a == b else 0 for a, b in pairs]
    return make(n, structure, unit, name)


def full_matrix(n, size):
    pairs = [(a, b) for a in range(size) for b in range(size)]
    return matrix_units(n, pairs, f"M{size}(Z{n})")


def upper_triangular(n, size):
    pairs = [(a, b) for a in range(size) for b in range(a, size)]
    return matrix_units(n, pairs, f"T{size}(Z{n})")


# posets

def closure(size, covers):
    """Reflexive-transitive closure as a leq matrix."""
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i, j in covers:
        leq[i][j] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                for j in range(size):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def relabel(covers, perm):
    return sorted((perm[a], perm[b]) for a, b in covers)


def incidence_algebra(n, size, covers, name):
    """The incidence algebra of a poset over Z_n: basis e_ij for i <= j in
    row-major order, e_ij e_jk = e_ik.  It is the poset algebra of the
    constant presheaf Z_n."""
    leq = closure(size, covers)
    pairs = [(i, j) for i in range(size) for j in range(size) if leq[i][j]]
    return matrix_units(n, pairs, name)


def nerve_betti(size, covers, p, top):
    """Betti numbers b_0..b_top over F_p of the order complex (the nerve):
    simplices are chains v_0 < v_1 < ... < v_k of the poset."""
    leq = closure(size, covers)
    simplices = [[(v,) for v in range(size)]]
    for _ in range(top + 1):
        nxt = [c + (w,) for c in simplices[-1] for w in range(size)
               if w != c[-1] and leq[c[-1]][w]]
        simplices.append(nxt)
    ranks = []
    for k in range(top + 1):
        src, dst = simplices[k], simplices[k + 1]
        pos = {s: i for i, s in enumerate(src)}
        rows = []
        for s in dst:           # (delta f)(s) = sum_i (-1)^i f(s minus v_i)
            row = [0] * len(src)
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                row[pos[face]] = (row[pos[face]] + (-1) ** i) % p
            rows.append(row)
        ranks.append(rank_mod_p(rows, p))
    betti = []
    for k in range(top + 1):
        below = ranks[k - 1] if k else 0
        betti.append(len(simplices[k]) - ranks[k] - below)
    return betti


def rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hochschild_dims(rank, betti, degree):
    """(dim Z, dim B, dim H) of the Hochschild complex of a connected
    poset's incidence algebra with coefficients in itself.

    Gerstenhaber-Schack: HH^k equals the nerve's H^k.  With dim C^k = r^(k+1)
    for the regular bimodule, H^0 = 1 gives B^1 = r - 1, and each further
    degree follows from B^(k+1) = dim C^k - dim Z^k.
    """
    z = betti[0]
    b = 0
    for k in range(1, degree + 1):
        b = rank ** k - z            # rank of delta^(k-1) = dim C^(k-1) - Z^(k-1)
        z = b + betti[k]
    return z, b, betti[degree]


# changes of basis

def change_basis(alg, rng, name=None):
    """The same algebra in the basis b_i = row i of P, where P is a seeded
    row permutation of an upper unitriangular matrix with every entry above
    the diagonal drawn uniformly (full shear).  Every flag and count is an
    isomorphism invariant, so none of them depends on the seed."""
    n, r = alg["modulus"], alg["rank"]
    upper = [[1 if i == j else (rng.randrange(n) if j > i else 0)
              for j in range(r)] for i in range(r)]
    perm = list(range(r))
    rng.shuffle(perm)
    P = [upper[perm[i]] for i in range(r)]
    inv_upper = [[0] * r for _ in range(r)]
    for i in reversed(range(r)):
        inv_upper[i][i] = 1
        for j in range(i + 1, r):
            inv_upper[i][j] = -sum(upper[i][k] * inv_upper[k][j]
                                   for k in range(i + 1, j + 1)) % n
    Q = [[inv_upper[a][perm[b]] for b in range(r)] for a in range(r)]
    for i in range(r):
        if to_coords(P[i], Q, n) != basis(r, i):
            raise AssertionError("change of basis is not invertible")
    structure = [[to_coords(mul(alg, P[i], P[j]), Q, n) for j in range(r)]
                 for i in range(r)]
    return make(n, structure, to_coords(alg["unit"], Q, n),
                name or alg["name"])


def change_basis_at_density(alg, rng, target, tries=32, name=None):
    """A seeded change of basis whose table has target nonzero entries, or
    the closest of tries candidates.  Full shear spreads the density widely
    (30 to 116 nonzeros for Z2^8), and the scans' cost follows it, so every
    seed is held at the same density and only the basis itself varies."""
    best = None
    for _ in range(tries):
        cand = change_basis(alg, rng, name)
        gap = abs(table_nnz(cand) - target)
        if best is None or gap < best[0]:
            best = (gap, cand)
        if gap == 0:
            break
    return best[1]


def to_coords(v, Q, n):
    r = len(Q)
    return [sum(v[a] * Q[a][b] for a in range(r)) % n for b in range(r)]


# brute-force element counts (small algebras only)

def element_counts(alg):
    n, r = alg["modulus"], alg["rank"]
    elems = [list(x) for x in product(range(n), repeat=r)]
    one = alg["unit"]
    idem = sum(1 for x in elems if mul(alg, x, x) == x)
    units = 0
    for x in elems:
        if any(mul(alg, x, y) == one and mul(alg, y, x) == one for y in elems):
            units += 1
    nil = 0
    for x in elems:
        p = x
        for _ in range(n ** r):
            if not any(p):
                break
            p = mul(alg, p, x)
        if not any(p):
            nil += 1
    return {"idempotents": idem, "units": units, "nilpotents": nil}


def expected_flags(radical_quotient, idempotents_central):
    """Decomposition flags of a finite ring from two structural facts:
    the simple factors of A/J (written "F2", "F3", "M2(F3)", ...) and whether
    the idempotents of A are central.

    - Finite rings are semiperfect and strongly pi-regular, hence clean,
      strongly clean and exchange (Camillo-Yu 1994; Nicholson 1999).
    - Nil-clean iff A/J is a product of matrix rings over F_2 (Diesl 2013;
      Kosan-Lee-Zhou 2014).
    - Uniquely clean iff A/J is Boolean and idempotents are central
      (Nicholson-Zhou 2004).
    - Uniquely nil-clean iff nil-clean and idempotents are central
      (Diesl 2013).
    """
    over_f2 = all(f == "F2" or (f.startswith("M") and f.endswith("(F2)"))
                  for f in radical_quotient)
    boolean = all(f == "F2" for f in radical_quotient)
    return {
        "clean": True,
        "strongly_clean": True,
        "exchange": True,
        "nil_clean": over_f2,
        "uniquely_clean": boolean and idempotents_central,
        "uniquely_nil_clean": over_f2 and idempotents_central,
    }


# cochains over the regular bimodule and twisted modules

def act_left(M, a, m):
    return bilinear(M["left"], a, m, M["modulus"], M["rank"])


def act_right(M, m, a):
    return bilinear(M["right"], m, a, M["modulus"], M["rank"])


def regular_module(alg):
    r = alg["rank"]
    right = [[alg["structure"][j][i] for i in range(r)] for j in range(r)]
    return {"modulus": alg["modulus"], "rank": r,
            "left": alg["structure"], "right": right}


def coboundary1(alg, M, g):
    """(delta g)(e_i, e_j) = e_i g(e_j) - g(e_i e_j) + g(e_i) e_j for a
    1-cochain given by its basis table g[i] (a module vector)."""
    n, r = alg["modulus"], alg["rank"]
    out = []
    for i in range(r):
        ei = basis(r, i)
        row = []
        for j in range(r):
            ej = basis(r, j)
            g_ij = linear(g, alg["structure"][i][j], n, M["rank"])
            val = [(a - b + c) % n for a, b, c in zip(
                act_left(M, ei, g[j]), g_ij, act_right(M, g[i], ej))]
            row.append(val)
        out.append(row)
    return out


def cocycle_violations(alg, M, f, limit=1):
    """Basis triples (i, j, k) where a f(b,c) - f(ab,c) + f(a,bc) - f(a,b) c
    is nonzero, stopping after limit hits."""
    n, r, s = alg["modulus"], alg["rank"], M["rank"]
    hits = []
    for i, j, k in product(range(r), repeat=3):
        a, b, c = basis(r, i), basis(r, j), basis(r, k)
        ab = alg["structure"][i][j]
        bc = alg["structure"][j][k]
        terms = (act_left(M, a, f[j][k]),
                 bilinear(f, ab, c, n, s),
                 bilinear(f, a, bc, n, s),
                 act_right(M, f[i][j], c))
        total = [(w - x + y - z) % n for w, x, y, z in zip(*terms)]
        if any(total):
            hits.append((i, j, k))
            if len(hits) >= limit:
                break
    return hits


def extension_carrier(alg, M, f):
    """Structure table and unit of A + M twisted by the 2-cocycle f:
    (a, m)(a', m') = (aa', am' + ma' + f(a, a')), unit (1, -f(1, 1))."""
    n, r, s = alg["modulus"], alg["rank"], M["rank"]
    rank = r + s
    zero_a = [0] * r
    structure = [[None] * rank for _ in range(rank)]
    for i in range(r):
        for j in range(r):
            structure[i][j] = list(alg["structure"][i][j]) + list(f[i][j])
        for j in range(s):
            structure[i][r + j] = zero_a + list(M["left"][i][j])
    for i in range(s):
        for j in range(r):
            structure[r + i][j] = zero_a + list(M["right"][i][j])
        for j in range(s):
            structure[r + i][r + j] = [0] * rank
    one = alg["unit"]
    f11 = bilinear(f, one, one, n, s)
    unit = list(one) + [(-v) % n for v in f11]
    return structure, unit


# truncated deformations

def series_mul(base, cochains, f, g):
    """Product of two coefficient series modulo t^N, where order m of the
    multiplication is the base table (m = 0) or cochains[m - 1]."""
    n, r = base["modulus"], base["rank"]
    order = len(f)
    tables = [base["structure"]] + list(cochains)
    out = []
    for k in range(order):
        acc = [0] * r
        for m in range(min(k, len(tables) - 1) + 1):
            for a in range(k - m + 1):
                b = k - m - a
                if any(f[a]) and any(g[b]):
                    term = bilinear(tables[m], f[a], g[b], n, r)
                    acc = [(x + y) % n for x, y in zip(acc, term)]
        out.append(acc)
    return out


def series_one(base, order):
    return [list(base["unit"])] + [[0] * base["rank"] for _ in range(order - 1)]


def x2_equals_t(n, order):
    """Z_n[X]/(X^2) deformed by x*x = t: the order-1 table has the single
    entry alpha_1(x, x) = 1 and every later order is zero."""
    base = poly_x2(n)
    first = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    return base, [first] + [zero] * (order - 2)


def trivial_cochains(base, order):
    r = base["rank"]
    zero = [[[0] * r for _ in range(r)] for _ in range(r)]
    return [zero] * (order - 1)


def gauge_map(base, rng):
    """A seeded linear map g with g(1) = 0: random rows, then the row of one
    unit coordinate with invertible coefficient is solved for."""
    n, r = base["modulus"], base["rank"]
    rows = [[rng.randrange(n) for _ in range(r)] for _ in range(r)]
    unit = base["unit"]
    pivot = next(i for i, c in enumerate(unit) if c and _coprime(c, n))
    total = [0] * r
    for i, c in enumerate(unit):
        if i != pivot and c:
            total = [(t + c * v) % n for t, v in zip(total, rows[i])]
    inv = pow(unit[pivot], -1, n)
    rows[pivot] = [(-inv * v) % n for v in total]
    return rows


def gauge_cochains(base, gmap, order):
    """Multiplication pulled back through phi = 1 - t g:
    a *_t b = phi^-1(phi(a) phi(b)) with phi^-1 = sum_k t^k g^k, so the
    order-m table is g^m(ab) - g^(m-1)(g(a) b + a g(b)) + g^(m-2)(g(a) g(b))."""
    n, r = base["modulus"], base["rank"]

    def g(x, times=1):
        for _ in range(times):
            x = linear(gmap, x, n, r)
        return x

    tables = []
    for m in range(1, order):
        table = []
        for i in range(r):
            ei = basis(r, i)
            row = []
            for j in range(r):
                ej = basis(r, j)
                val = g(mul(base, ei, ej), m)
                cross = [(a + b) % n for a, b in zip(mul(base, g(ei), ej),
                                                     mul(base, ei, g(ej)))]
                val = [(a - b) % n for a, b in zip(val, g(cross, m - 1))]
                if m >= 2:
                    extra = g(mul(base, g(ei), g(ej)), m - 2)
                    val = [(a + b) % n for a, b in zip(val, extra)]
                row.append(val)
            table.append(row)
        tables.append(table)
    return tables


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def units(alg):
    """All units of a small algebra, by brute force."""
    n, r = alg["modulus"], alg["rank"]
    elems = [list(x) for x in product(range(n), repeat=r)]
    one = alg["unit"]
    return [x for x in elems
            if any(mul(alg, x, y) == one and mul(alg, y, x) == one
                   for y in elems)]
