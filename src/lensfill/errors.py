"""The package's two exception classes, and the one place that names a pair.

The rule for choosing between them is who supplied the bad value.  When
the caller did (an argument outside the operation's domain: a pair that
is not coprime, a tuple that is not a zero tuple, a position out of
range), raise LensfillError; the command line tool exits 1.  When the
package computed it (a value contradicting a proved statement, or two
independent derivations disagreeing), raise TheoremViolation; that
signals an implementation bug or a false expectation, and the command
line tool exits 2.

No raise writes `L(p,q): `; naming(p, q) prefixes it to an error raised
inside.  Scopes never nest: one per per-pair command in cli.main, opened
once its pair is valid, and one per pair in cli.cmd_sweep and the suites.
"""

from contextlib import contextmanager


class LensfillError(Exception):
    """An argument lies outside the operation's domain."""


class TheoremViolation(LensfillError):
    """Computed data contradicts a proved statement; abort loudly."""


@contextmanager
def naming(p: int, q: int):
    """Prefix `L(p,q): ` to the message of a package error raised inside."""
    try:
        yield
    except LensfillError as exc:
        exc.args = (f"L({p},{q}): {exc}",)
        raise
