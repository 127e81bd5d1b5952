"""Exception hierarchy shared across the package.

Two broad classes matter to callers: bad input data (exit code 1 at the
CLI) and internal contract violations such as mismatched parallel
structures (exit code 2).
"""


class CtvmError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(CtvmError):
    """A file or stream could not be parsed into usable records."""


class EmptySliceError(CtvmError):
    """A corpus slice has no news documents to rank."""


class EvalError(CtvmError):
    """Evaluation could not produce a result (e.g. zero evaluable queries)."""


class ContractViolation(CtvmError):
    """Parallel inputs disagree in a way that indicates a programming bug."""
