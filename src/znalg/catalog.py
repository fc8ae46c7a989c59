"""The fixed in-repo catalog of verification instances.

Everything here is deterministic: pseudo-random cochains are seeded per
instance, so two runs (and the golden CLI reports) always agree.  The
algebras span commutative and noncommutative bases, the modules span the
regular bimodule and the noncentral projection twist, and the cocycles span
zero, multiplication-valued, and seeded coboundaries.
"""

from __future__ import annotations

import random

from .algebra import direct_product, triangular_algebra, zn, zn_poly_x2
from .hochschild import (
    Bimodule,
    Cochain,
    coboundary,
    regular_bimodule,
    validate_bimodule,
    vec_to_cochain,
    zero_cochain,
)


def catalog_algebras():
    return [
        zn(2),
        zn(3),
        zn(4),
        zn_poly_x2(2),
        direct_product([zn(2), zn(2)]),
        triangular_algebra(2, 2),
    ]


def z2xz2():
    return direct_product([zn(2), zn(2)])


def twisted_projection_module(P=None):
    """Z2 as a Z2xZ2-bimodule: first coordinate acts on the left, second on
    the right; its idempotent (1, 0) does not commute with the module."""
    if P is None:
        P = z2xz2()
    left = [[[1]], [[0]]]
    right = [[[0], [1]]]
    return validate_bimodule(
        Bimodule(P, 1, left, right, name="projection twist"))


def seeded_cochain(M, degree, seed):
    """A cochain of seeded random entries, drawn in row-major order."""
    rng = random.Random(seed)
    size = M.algebra.rank ** degree * M.rank
    return vec_to_cochain(M, degree, [rng.randrange(M.n) for _ in range(size)])


def catalog_extension_instances():
    """(label, A, M, f) tuples: every algebra with its regular bimodule and
    three cocycles, plus the twisted Z2xZ2 module with two."""
    instances = []
    for idx, A in enumerate(catalog_algebras()):
        M = regular_bimodule(A)
        instances.append((f"{A.name}|regular|zero", A, M, zero_cochain(M, 2)))
        instances.append((f"{A.name}|regular|mul", A, M, Cochain(2, M, A.mult)))
        instances.append(
            (f"{A.name}|regular|coboundary", A, M,
             coboundary(seeded_cochain(M, 1, 100 + idx))))
    P = z2xz2()
    T = twisted_projection_module(P)
    instances.append((f"{P.name}|twisted|zero", P, T, zero_cochain(T, 2)))
    instances.append(
        (f"{P.name}|twisted|coboundary", P, T,
         coboundary(seeded_cochain(T, 1, 200))))
    return instances
