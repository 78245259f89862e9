"""Exception hierarchy.

Two families matter to callers.  Plain input/precondition problems derive
from LensfillError directly and map to exit code 1 in the command line
tool.  TheoremViolation and its subclasses mean that a computation
contradicted a statement that is mathematically guaranteed to hold; they
signal an implementation bug (or a genuinely false expectation) and map
to exit code 2.
"""


class LensfillError(Exception):
    """Base class for all package errors."""


class InvalidPair(LensfillError):
    """The integers (p, q) are not coprime with p > q >= 1."""


class NotInvertible(LensfillError):
    """Modular inverse requested for a non-unit residue."""


class NotBlowdownable(LensfillError):
    """Blowdown requested at an entry that is not equal to 1."""


class InvalidInput(LensfillError):
    """A continued-fraction tuple outside the operation's domain."""


class NotAFilling(LensfillError):
    """The tuple n is not a bounded admissible zero continued fraction."""


class HypothesisViolated(LensfillError):
    """The expansion does not satisfy the hypotheses of the family
    construction."""


class PreconditionViolated(LensfillError):
    """A stated precondition on the argument failed."""


class InvalidSpin(LensfillError):
    """A bit sequence that does not satisfy the spin parity condition."""


class TheoremViolation(LensfillError):
    """Computed data contradicts a proved statement; abort loudly."""


class ClosureViolated(TheoremViolation):
    """The meridian recursion failed to close modulo p."""


class TerminalRelationViolated(TheoremViolation):
    """The rotation-number recursion missed its forced terminal value."""


class ConsistencyViolated(TheoremViolation):
    """Two independent derivations of the same quantity disagree."""
