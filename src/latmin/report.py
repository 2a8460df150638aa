"""Verdict reports for theorem checks, with a canonical JSON form."""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
VIOLATED = "violated"


@dataclass
class TheoremReport:
    """Outcome of checking one theorem instance.

    ``quantities`` maps names to canonical rational strings (or lists of
    them) and is sufficient to recompute the verdict; ``witnesses`` carries
    optional points and functionals.  ``items`` holds per-item statuses for
    multi-part theorems (holds / holds_vacuous / violated) and is not part
    of the canonical JSON form.
    """

    theorem: str
    quantities: dict
    verdict: str
    witnesses: dict | None = None
    items: dict | None = field(default=None)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "quantities": self.quantities,
            "witnesses": self.witnesses if self.witnesses is not None else {},
        }


def verdict(ok: bool) -> str:
    return HOLDS if ok else VIOLATED
