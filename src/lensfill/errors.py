"""The package's two exception classes.

The rule for choosing between them is who supplied the bad value.  When
the caller did (an argument outside the operation's domain: a pair that
is not coprime, a tuple that is not a zero tuple, a position out of
range), raise LensfillError; the command line tool exits 1.  When the
package computed it (a value contradicting a proved statement, or two
independent derivations disagreeing), raise TheoremViolation; that
signals an implementation bug or a false expectation, and the command
line tool exits 2.
"""


class LensfillError(Exception):
    """An argument lies outside the operation's domain."""


class TheoremViolation(LensfillError):
    """Computed data contradicts a proved statement; abort loudly."""
