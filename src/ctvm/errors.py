"""Exception hierarchy shared across the package, the one input reader,
and the one escape that keeps a name or message on one output line.

Each exception type stands for one CLI exit code: bad input data exits
1 and a broken contract exits 2.
"""

import os

_DATA = os.path.join(os.path.dirname(__file__), "data")

# each character str.splitlines breaks at, as its backslash escape
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def one_line(text: str) -> str:
    """text with each character str.splitlines breaks at written as its
    backslash escape, so an input id or name cannot split an error line
    or a report line in two."""
    return text.translate(_LINE_BREAKS)


class CtvmError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(CtvmError):
    """A file or stream could not be parsed into usable records."""


class ContractViolation(CtvmError):
    """A caller broke a contract: a usage error at the CLI, or library
    arguments that cannot go together."""


def read_input(path: str | None, bundled: str | None = None) -> list[str]:
    """Lines of a UTF-8 file, or of the file named bundled in the
    package's data directory when path is None. A leading byte order
    mark is dropped, so it cannot spoil the first record. Lines end only
    at \\n, \\r or \\r\\n (not at every break str.splitlines() knows), so
    a raw U+2028 or U+0085 inside a JSON string stays in its record.
    Each line keeps its line end as the file has it, as csv.reader
    needs, so a CR inside a quoted CSV cell reads back as a CR."""
    source = os.path.join(_DATA, bundled) if path is None else path
    try:
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise InputDataError(
            f"cannot read {path if path is not None else bundled}: {reason}"
        ) from exc
