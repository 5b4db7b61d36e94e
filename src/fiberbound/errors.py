"""Exception types shared across the library."""


class FiberboundError(Exception):
    """Base class for all errors raised by fiberbound."""


class ArityMismatch(FiberboundError):
    """Operands live in polynomial rings with different variable counts."""


class NotDivisible(FiberboundError):
    """Exact division was requested but the remainder is nonzero."""


class PthPowerHazard(FiberboundError):
    """Square-free decomposition refused: characteristic <= degree."""


class RationalModeUnsupported(FiberboundError):
    """Operation needs a prime field but the session field is the rationals."""


class SOutOfRange(FiberboundError):
    """Minor size s outside 1..min(rows, cols)."""


class AllMinorsZero(FiberboundError):
    """Every 3-minor vanishes; the degree-bound theorem does not apply."""


class CharDividesDegree(FiberboundError):
    """The field characteristic divides the common degree d."""


class FDoesNotDivideMinor(FiberboundError):
    """A signed 3-minor is not an exact multiple of F (unlucky prime or bug)."""


class SyzygyCheckFailed(FiberboundError):
    """A kernel vector failed symbolic re-verification as a syzygy."""


class NoSyzygyFound(FiberboundError):
    """No syzygy up to degree d, where a Koszul relation guarantees one."""


class SingularChange(FiberboundError):
    """The requested change of basis matrix is not invertible."""


class AllCombinationsZero(FiberboundError):
    """Every combination l_i(f) vanishes identically for the given point."""


class BasePointError(FiberboundError):
    """The point lies in the base locus; the map is undefined there."""


class BadPoint(FiberboundError):
    """A point argument could not be parsed or has the wrong arity."""


class BadInput(FiberboundError):
    """A command-line argument, or the map file it names, cannot be used."""


class NotHomogeneous(FiberboundError):
    """An input form mixes terms of different total degrees."""


class MixedDegrees(FiberboundError):
    """The input forms are homogeneous but not all of the same degree."""


class CommonFactor(FiberboundError):
    """The input forms share a nonconstant common divisor."""

    def __init__(self, gcd):
        self.gcd = gcd
        super().__init__(f"generators share the common factor {gcd}")


class ParseError(FiberboundError):
    """Map-file syntax error with a line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)
