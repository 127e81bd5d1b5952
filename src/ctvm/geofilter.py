"""Map free-text user locations to region codes.

Twitter profile locations are unstructured ("bay area", "Sacramento CA",
"NYC"), so matching is deliberately simple: a region's full name as a
case-insensitive substring, or its code as an exact uppercase token.
First match in table order wins, which makes the table order part of
the contract.
"""

from __future__ import annotations

import csv
import re

from .errors import InputDataError, read_input

_LETTER_RUN_RE = re.compile(r"[A-Za-z]+")
_CODE_RE = re.compile(r"[A-Z]+\Z")


class RegionTable:
    """Ordered (code, full_name) pairs; codes unique and uppercase.

    Immutable, and equal to (and hashed like) a table of the same
    entries; the codes and lowered names are kept beside them.
    """

    __slots__ = ("entries", "_codes", "_lowered_names")

    def __new__(cls, entries: tuple[tuple[str, str], ...]) -> RegionTable:
        seen = set()
        lowered = []
        for code, name in entries:
            if not _CODE_RE.match(code):
                raise ValueError(f"region code must be uppercase letters: {code!r}")
            if not name or not name.strip():
                raise ValueError(f"region {code} has an empty full name")
            if code in seen:
                raise ValueError(f"duplicate region code: {code}")
            seen.add(code)
            lowered.append(name.lower())
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_codes", frozenset(seen))
        object.__setattr__(self, "_lowered_names", tuple(lowered))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RegionTable(entries={self.entries!r})"

    def __reduce__(self):
        return RegionTable, (self.entries,)

    def __contains__(self, code: object) -> bool:
        return code in self._codes

    def resolve(self, location: str, loose_abbrev: bool = False) -> str | None:
        """Region code for a location string, or None.

        Full names match as case-insensitive substrings. Codes match as
        whole uppercase letter runs ("CA" in "San Jose, CA" but not in
        "NYC"); with loose_abbrev they match as case-sensitive
        substrings instead, trading precision for recall.
        """
        if not location:
            return None
        lowered = location.lower()
        runs: set[str] | None = None
        for (code, _name), low_name in zip(self.entries, self._lowered_names):
            if low_name in lowered:
                return code
            if loose_abbrev:
                if code in location:
                    return code
            else:
                if runs is None:
                    runs = set(_LETTER_RUN_RE.findall(location))
                if code in runs:
                    return code
        return None


def load_region_table(path: str | None = None) -> RegionTable:
    """Load a code,full_name CSV; defaults to the bundled US states."""
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(read_input(path, "us_states.csv"), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    reader = csv.reader(line for _, line in numbered)
    entries = []
    try:
        for row in reader:
            if len(row) != 2:
                raise InputDataError(f"region table row needs code,full_name: {row!r}")
            entries.append((row[0].strip(), row[1].strip()))
    except csv.Error as exc:
        lineno = numbered[reader.line_num - 1][0]
        raise InputDataError(f"{path}: bad CSV on line {lineno}: {exc}") from exc
    if not entries:
        raise InputDataError("region table is empty")
    try:
        return RegionTable(tuple(entries))
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc
