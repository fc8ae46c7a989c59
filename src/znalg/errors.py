"""Exception hierarchy shared by all znalg modules.

Three families matter to callers: validation failures (bad input data),
resource refusals (an exhaustive scan would exceed a configured cap), and
self-check failures (an identity the code itself certifies did not hold,
which always means a bug rather than bad input).
"""


class ZnAlgError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(ZnAlgError):
    """Input data violates a structural precondition."""


class CapExceeded(ZnAlgError):
    """An exhaustive operation would take more work than the cap allows."""


class LinAlgCapExceeded(CapExceeded):
    """A coboundary matrix would be assembled from more entries than the cap."""


class SelfCheckFailed(ZnAlgError):
    """A provable identity failed; signals an implementation bug, not bad input."""


# algebra / classification

class BadShape(ValidationFailure):
    pass


class NonAssociative(ValidationFailure):
    def __init__(self, triple, lhs, rhs):
        self.triple = triple
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"associativity fails on basis triple {triple}: {lhs} != {rhs}")


class BadUnit(ValidationFailure):
    pass


class ModulusMismatch(ValidationFailure):
    pass


# bimodules / cochains

class ActionNotAssociative(ValidationFailure):
    def __init__(self, axiom, triple):
        self.axiom = axiom
        self.triple = triple
        super().__init__(f"bimodule axiom {axiom} fails on {triple}")


class UnitActsBadly(ValidationFailure):
    pass


class NonPrimeModulus(ValidationFailure):
    pass


# extensions

class NotACocycle(ValidationFailure):
    pass


class NotIdempotent(ValidationFailure):
    pass


class NotAUnit(ValidationFailure):
    pass


class BadDecomposition(ValidationFailure):
    pass


class WitnessMismatch(SelfCheckFailed):
    """A proved factorization identity failed to verify."""


# deformations

class OrderMismatch(ValidationFailure):
    pass


class NotAssociativeAtOrder(ValidationFailure):
    def __init__(self, order, triple, lhs, rhs):
        self.order = order
        self.triple = triple
        super().__init__(
            f"deformed multiplication not associative at order {order} "
            f"on basis triple {triple}: {lhs} != {rhs}")


class UnitChanged(ValidationFailure):
    pass


class ConstantTermNotUnit(ValidationFailure):
    pass


class NoConvergence(SelfCheckFailed):
    """Newton iteration failed to reach a fixed point within its proved bound."""


# poset algebras

class PresheafInvalid(ValidationFailure):
    pass


class StalkNotNilClean(ValidationFailure):
    pass


# documents / CLI

class ParseError(ZnAlgError):
    """A workspace document could not be parsed or is missing required fields."""
