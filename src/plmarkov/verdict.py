"""Three-valued answers for semi-decidable questions.

Procedures that search within a budget return one of three outcomes:
``yes`` with a replayable witness, ``no`` with a named obstruction, or
``unknown`` when the budget ran out before either side was settled.
Callers must treat ``unknown`` as "no conclusion", never as a negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a budgeted semi-decision procedure.

    status    one of "yes", "no", "unknown"
    witness   evidence backing a "yes" (move certificate, morphism, ...)
    reason    short machine-readable tag explaining a "no" or "unknown"
    detail    free-form extra data (obstruction values, budget spent, ...)
    """

    status: str
    witness: Any = None
    reason: str = ""
    detail: Any = None

    def __post_init__(self):
        if self.status not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad verdict status {self.status!r}")

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_no(self) -> bool:
        return self.status == NO

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def __bool__(self):
        raise TypeError(
            "Verdict does not coerce to bool; test .is_yes / .is_no / "
            ".is_unknown explicitly so 'unknown' is never swallowed"
        )

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def yes(witness: Any = None, detail: Any = None) -> Verdict:
    return Verdict(YES, witness=witness, detail=detail)


def no(reason: str, detail: Any = None) -> Verdict:
    return Verdict(NO, reason=reason, detail=detail)


def unknown(reason: str = "budget-exhausted", detail: Any = None) -> Verdict:
    return Verdict(UNKNOWN, reason=reason, detail=detail)


class Budget:
    """Mutable counter shared by the stages of one bounded search.

    ``spend`` debits and reports whether anything was left; procedures
    should stop cleanly (returning unknown) once it answers False.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("budget must be nonnegative")
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> bool:
        if self.used + amount > self.limit:
            self.used = self.limit
            return False
        self.used += amount
        return True

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def __repr__(self):
        return f"Budget(used={self.used}, limit={self.limit})"
