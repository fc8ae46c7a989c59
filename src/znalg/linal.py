"""Exact sparse elimination over Z_p for any prime p.

A row is a dict {column: coefficient}.  Elimination inserts rows into a
sieve keyed by lead column (the smallest column of the reduced row), each
stored with lead coefficient 1; a residue that is already monic, as every
residue over Z_2 is, is stored as it is rather than as a scaled copy.  A
row that is already reduced mod p and whose lead column has no pivot yet,
as many coboundary rows are, is stored as a copy without a reduction.
Kernels and span combinations come from tag columns: a caller that appends
the unit column width + i to row i finds a kernel vector in every pivot
whose lead is at least width, and a target whose residue has no column
below width lies in the row span, with the negated tag part of the residue
as its combination.

_smith is the dense Smith form over any Z_n: it decides membership in a
span (_in_span) and solves for combinations (_solve).
"""

from __future__ import annotations

from math import gcd

from .errors import SelfCheckFailed


def eliminate_modp(rows, p):
    """Sieve sparse rows mod p; returns (rank, pivots).

    pivots maps each lead column to its reduced row, lead coefficient 1.
    A row already reduced (every value in 1..p-1) whose lead column has no
    pivot is stored without a reduction, as a copy or, when its lead is
    not 1, as one scaled copy; every other row is reduced by reduce_modp.
    Either way no pivot is a caller's row, and rows is not changed.
    """
    pivots = {}
    for row in rows:
        if (row and (lead := min(row)) not in pivots
                and min(row.values()) > 0 and max(row.values()) < p):
            v = row
        else:
            v = reduce_modp(pivots, row, p)
            if not v:
                continue
            lead = min(v)
        f = v[lead]
        if f != 1:
            inv = pow(f, -1, p)
            v = {c: (inv * x) % p for c, x in v.items()}
        elif v is row:
            v = row.copy()
        pivots[lead] = v
    return len(pivots), pivots


def reduce_modp(pivots, row, p):
    """Clear lead columns of a sparse row against a sieve until the lead has
    no pivot; returns the residue, empty when the row lies in the span."""
    v = {c: y for c, x in row.items() if (y := x % p)}
    while v:
        lead = min(v)
        hit = pivots.get(lead)
        if hit is None:
            break
        f = v[lead]
        for c, x in hit.items():
            y = (v.get(c, 0) - f * x) % p
            if y:
                v[c] = y
            else:
                del v[c]
    return v


def _smith(rows, n, width):
    """Smith form (d, V, W, D) over Z_n of the span S of rows, vectors of
    length width: each d_i divides d_(i+1) and n, V = W^-1 over Z_n, and
    S·V = ⊕ d_i Z_n e_i.  So y is in S iff (y·V)_i = 0 mod d_i for all i,
    the d_i W_i span S, and Z_n^width / S = ⊕ Z_(d_i).  The pivot is the
    least nonzero entry left; row and column operations (columns mirrored
    in V and W) reduce its row and column, and a remainder becomes the next
    pivot.  A cleared pivot p gives d_t = gcd(p, n) once that divides every
    row below; a row it does not divide is first added to the pivot row.
    Rows may run on past width: the reduced rows D are diag(p_i) inside it,
    gcd(p_i, n) = d_i, and unit-vector tails end as U, U·rows·V = diag(p_i)."""
    M = [[x % n for x in row] for row in rows]
    V = [[int(i == j) for j in range(width)] for i in range(width)]
    W = [row[:] for row in V]
    d = []
    for t in range(width):
        while True:
            entries = [(x, i, j) for i, row in enumerate(M[t:], t)
                       for j, x in enumerate(row[t:width], t) if x]
            if not entries:
                return d + [n] * (width - t), V, W, M
            p, i, j = min(entries)
            M[t], M[i] = M[i], M[t]
            for row in M[t:] + V:
                row[t], row[j] = row[j], row[t]
            W[t], W[j] = W[j], W[t]
            for row in M[t + 1:]:
                q = row[t] // p
                row[t:] = [(a - q * b) % n for a, b in zip(row[t:], M[t][t:])]
            for j in range(t + 1, width):
                q = M[t][j] // p
                for row in M[t:] + V:
                    row[j] = (row[j] - q * row[t]) % n
                W[t] = [(a + q * b) % n for a, b in zip(W[t], W[j])]
            if any(row[t] for row in M[t + 1:]) or any(M[t][t + 1:width]):
                continue
            g = gcd(p, n)
            bad = [row for row in M[t + 1:] if any(x % g for x in row[:width])]
            if not bad:
                d.append(g)
                break
            M[t] = [(a + b) % n for a, b in zip(M[t], bad[0])]
    return d, V, W, M


def _in_span(d, V, t):
    """t lies in the span with Smith form (d, V): (t·V)_i = 0 mod d_i."""
    return not any(sum(a * row[i] for a, row in zip(t, V)) % di
                   for i, di in enumerate(d) if di > 1)


def _solve(rows, t, n):
    """Coefficients c with sum c_i rows_i = t over Z_n, or None outside the
    span: c = y·U with y_i p_i = (t·V)_i (_smith on the rows tagged with
    unit vectors), re-multiplied; a mismatch raises SelfCheckFailed."""
    t, m, width = [x % n for x in t], len(rows), len(t)
    d, V, _, D = _smith([[*row, *(int(i == j) for j in range(m))]
                         for i, row in enumerate(rows)], n, width)
    if not _in_span(d, V, t):
        return None
    y = [sum(a * v[i] for a, v in zip(t, V)) % n // di
         * pow(row[i] // di, -1, n // di) if row[i] else 0
         for i, (row, di) in enumerate(zip(D, d))]
    c = [sum(yi * row[width + j] for yi, row in zip(y, D)) % n
         for j in range(m)]
    if [sum(ci * row[k] for ci, row in zip(c, rows)) % n
            for k in range(width)] != t:
        raise SelfCheckFailed(f"{c} does not combine the rows to {t}")
    return tuple(c)


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
