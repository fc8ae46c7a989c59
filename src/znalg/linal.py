"""Exact sparse elimination over Z_p for any prime p.

A row is a dict {column: coefficient}.  Elimination inserts rows into a
sieve keyed by lead column (the smallest column of the reduced row), each
stored with lead coefficient 1.  Kernels and span combinations come from tag
columns: a caller that appends the unit column width + i to row i finds a
kernel vector in every pivot whose lead is at least width, and a target
whose residue has no column below width lies in the row span, with the
negated tag part of the residue as its combination.
"""

from __future__ import annotations


def eliminate_modp(rows, p):
    """Sieve sparse rows mod p; returns (rank, pivots).

    pivots maps each lead column to its reduced row, lead coefficient 1.
    """
    pivots = {}
    for row in rows:
        v = reduce_modp(pivots, row, p)
        if v:
            lead = min(v)
            inv = pow(v[lead], -1, p)
            pivots[lead] = {c: (inv * x) % p for c, x in v.items()}
    return len(pivots), pivots


def reduce_modp(pivots, row, p):
    """Clear lead columns of a sparse row against a sieve until the lead has
    no pivot; returns the residue, empty when the row lies in the span."""
    v = {c: x % p for c, x in row.items() if x % p}
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


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
