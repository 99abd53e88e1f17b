"""Key-value report documents with deterministic rendering.

Every command line front end emits one of these: ordered sections of
``key = value`` rows.  Values are stored as strings so exact literals stay
exact; rendering adds nothing non-deterministic except the optional
timestamp header, which callers can switch off to get byte-identical
output for identical input.  ``datetime`` and ``json`` are imported where
the header and the JSON rendering need them, so a run that uses neither
never loads them.
"""

from __future__ import annotations

__all__ = ["Report", "certification_floor"]

# one double-precision ulp at scale 1, times a generous op-count budget
_EPS = 2.220446049250313e-16
_OP_BUDGET = 64


def certification_floor(scale: float) -> float:
    """Smallest residual double arithmetic can certify at the given scale.

    A measured residual of exactly 0.0 only proves the true residual is
    below roughly one rounding error per arithmetic operation; reports
    clamp residuals to this floor so a tolerance below it honestly fails
    instead of claiming impossible precision.
    """
    return max(abs(scale), 1.0) * _EPS * _OP_BUDGET


class Report:
    """Ordered sections of (key, value) rows."""

    def __init__(self, title: str):
        self.title = title
        self._sections: list = []

    def add(self, name: str, rows) -> None:
        self._sections.append((name, [(str(k), str(v)) for k, v in rows]))

    def extend(self, other: "Report", prefix: str) -> None:
        for name, rows in other._sections:
            self._sections.append((prefix + name, list(rows)))

    def render_text(self, timestamp: bool = True) -> str:
        lines = [f"# {self.title}"]
        if timestamp:
            import datetime

            now = datetime.datetime.now(datetime.timezone.utc)
            lines.append("generated: " + now.isoformat(timespec="seconds"))
        for name, rows in self._sections:
            lines.append("")
            lines.append(f"[{name}]")
            for key, value in rows:
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        import json

        sections = {name: dict(rows) for name, rows in self._sections}
        return json.dumps({"title": self.title, "sections": sections}, indent=2) + "\n"
