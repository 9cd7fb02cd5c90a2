"""Deterministic pass/fail reports shared by the checker suites."""

from __future__ import annotations


def first_failure(cases, holds, witness=None):
    """Check an identity case by case, stopping at the first case where
    ``holds(case)`` is false.

    Returns ``(True, None)`` when every case holds, else ``(False, w)`` with
    ``w`` that case, or ``witness(case)`` when ``witness`` is given.  Cases
    are taken one at a time from any iterable, so a generator such as
    ``itertools.product(range(dim), repeat=3)`` is never materialised.
    """
    for case in cases:
        if not holds(case):
            return False, case if witness is None else witness(case)
    return True, None


class CheckReport:
    """Ordered list of named checks with optional failure witnesses."""

    def __init__(self, title, meta=None):
        self.title = title
        self.meta = dict(meta or {})
        self.entries = []  # (name, ok, witness)

    def add(self, name, ok, witness=None):
        self.entries.append((name, bool(ok), witness))

    def merge(self, other):
        for name, ok, witness in other.entries:
            self.entries.append((f"{other.title}:{name}", ok, witness))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(name, witness) for name, ok, witness in self.entries if not ok]

    def render(self):
        lines = [f"report: {self.title}"]
        for key in sorted(self.meta):
            lines.append(f"{key}: {self.meta[key]}")
        for name, ok, witness in self.entries:
            status = "pass" if ok else "FAIL"
            line = f"check {name} status={status}"
            if not ok and witness is not None:
                line += f" witness={witness}"
            lines.append(line)
        npass = sum(1 for _, ok, _ in self.entries if ok)
        lines.append(f"summary: pass={npass} fail={len(self.entries) - npass}")
        return "\n".join(lines)

    def __str__(self):
        return self.render()
