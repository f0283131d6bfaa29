"""Exception types shared across the package.

Input and domain errors derive from ValueError (through SeqLabError) so that
callers (and the CLI, with exit 2) can treat "bad input" uniformly, while
tests can still pin down the precise failure.  InvariantError, an
ArithmeticError, reports a computed result that broke a theorem the package
checks; the CLI maps it, and nothing else, to exit 1.
"""


class SeqLabError(ValueError):
    """Base class for all input/domain errors raised by this package."""


class InvalidContextError(SeqLabError):
    """A recursion context with T = 0 or Q = 0 (the companion matrix would be
    singular or the ring degenerate)."""


class ContextMismatchError(SeqLabError):
    """A binary operation was applied to elements over different contexts."""


class SingularElementError(SeqLabError):
    """An operation that needs det != 0 (inverse, group reduction) hit a
    singular element."""


class DegenerateParameterError(SeqLabError):
    """A parameter outside the domain of the requested construction:
    t in {0, +-1, +-2}, a vanishing U_r(t), or a parameter of the wrong
    cyclotomic kind."""


class ExcludedPrimeError(SeqLabError):
    """A prime outside the admissible set for the given parameter (p = 2, or
    p divides a numerator/denominator of t or t^2 - 4)."""


class InvariantError(ArithmeticError):
    """A computed result broke a theorem the package checks (a partition
    off its divisor set, a torsion count off its group type)."""
