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
    """A pencil basis was asked for on a line arrangement with repeated lines."""


class SaitoFailed(ArropsError):
    """Saito-style certificate could not be established; ``index`` is the operator the message names, if any."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ZeroDet(SaitoFailed):
    """Candidate basis matrix is singular."""


class NotPurePower(SaitoFailed):
    """Basis determinant is not a scalar times a power of the defining polynomial."""


class NotMember(SaitoFailed):
    """A candidate basis operator is not in the arrangement's operator module."""


class ZeroNormalizer(ArropsError):
    """Unused: ``dual_pair`` has no normalizer since it takes the apolar dual
    basis.  Kept because the CLI catches it and ``perfbench/harness.py``
    names ``cli.ZeroNormalizer``."""


class IdentityViolated(ArropsError):
    """An exact combinatorial identity failed; indicates a lattice-computation bug."""
