"""Validation reports.

Validators in this package never raise on a mere rule violation; they
accumulate one entry per violated invariant so a caller can see every
problem at once.  An empty report means the object is valid.
"""

from __future__ import annotations

from collections import namedtuple


class Issue(namedtuple("Issue", "code message where", defaults=("",))):
    """One violated invariant: a stable ``code``, a message and a location."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where}


class ValidationReport(namedtuple("ValidationReport", "entries")):
    """The :class:`Issue` list of one validation; each report owns its list."""

    __slots__ = ()

    def __new__(cls, entries: list = None):
        return tuple.__new__(cls, ([] if entries is None else entries,))

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, code: str, message: str, where: str = "") -> None:
        self.entries.append(Issue(code, message, where))

    def extend(self, other: "ValidationReport") -> None:
        self.entries.extend(other.entries)

    def codes(self) -> list[str]:
        return [e.code for e in self.entries]

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{e.code}: {e.message}" for e in self.entries)
