"""Exception hierarchy shared by all arrops modules."""


class ArropsError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ArropsError):
    """Operands live in polynomial rings with different variable counts."""


class NotDivisible(ArropsError):
    """Exact polynomial division left a nonzero remainder."""


class ParseError(ArropsError):
    """Malformed linear-form expression or arrangement input."""


class NotCentral(ParseError):
    """A linear form carried a constant term; only central arrangements are supported."""


class ZeroForm(ParseError):
    """A linear form simplified to zero."""


class DuplicateHyperplane(ArropsError):
    """The same hyperplane (after normalization) appeared twice."""


class BadOrder(ArropsError):
    """Requested operator order m is outside the supported regime (m >= n - 2)."""


class NotEssential(ArropsError):
    """Operation requires an essential arrangement (normals of full rank)."""


class SolveFailed(ArropsError):
    """An exact linear solve produced a solution space of unexpected dimension."""


class SaitoFailed(ArropsError):
    """Saito-style determinant certificate could not be established."""


class ZeroDet(SaitoFailed):
    """Candidate basis matrix is singular."""


class NotPurePower(SaitoFailed):
    """Basis determinant is not a scalar times a power of the defining polynomial."""


class NotMember(SaitoFailed):
    """A candidate basis operator is not in the arrangement's operator module."""


class ZeroNormalizer(ArropsError):
    """A dual-pair normalizing scalar vanished; indicates a flat-computation bug."""


class IdentityViolated(ArropsError):
    """An exact combinatorial identity failed; indicates a lattice-computation bug."""
