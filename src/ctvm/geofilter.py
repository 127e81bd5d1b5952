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
from collections import namedtuple

from .errors import InputDataError, read_input
from .textproc import lower_nfc

_LETTER_RUN_RE = re.compile(r"[A-Za-z]+")
_CODE_RE = re.compile(r"[A-Z]+\Z")


class RegionTable(namedtuple("RegionTable", "entries codes lowered_names")):
    """Ordered (code, full_name) pairs; codes unique and uppercase.

    codes and lowered_names (each name in lower_nfc's form) are derived
    from entries, the only constructor argument, which is all that copy
    and pickle pass back to it.
    """

    __slots__ = ()

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
            lowered.append(lower_nfc(name))
        return tuple.__new__(cls, (entries, frozenset(seen), tuple(lowered)))

    def __getnewargs__(self):
        return self[:1]

    def __contains__(self, code: object) -> bool:
        return code in self.codes

    def resolve(self, location: str, loose_abbrev: bool = False) -> str | None:
        """Region code for a location string, or None.

        Full names match as substrings, both folded with lower_nfc.
        Codes match as whole uppercase letter runs ("CA" in "San Jose,
        CA" but not in "NYC"); with loose_abbrev they match as
        case-sensitive substrings instead, trading precision for recall.
        """
        if not location:
            return None
        lowered = lower_nfc(location)
        runs: set[str] | None = None
        for (code, _name), low_name in zip(self.entries, self.lowered_names):
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
