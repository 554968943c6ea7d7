"""Per-phase wall time, peak RSS and a count, for a run's own stats output.

The caller charges whole blocks of work, never single lines:

    ph = Phases()
    t = time.monotonic()
    ... bootstrap ...
    t = ph.add("bootstrap", t, facts)
"""

from __future__ import annotations

import resource
import sys
import time

# ru_maxrss is in kilobytes on Linux and in bytes on macOS.
_RSS_PER_MB = 1 << (20 if sys.platform == "darwin" else 10)


class Phases:
    """Named phases in first-charged order, each [seconds, count, peak RSS]."""

    def __init__(self) -> None:
        self._acc: dict[str, list] = {}

    def add(self, name: str, t0: float, count: int = 0) -> float:
        """Charge the time since t0 and `count` items to `name`; return now."""
        now = time.monotonic()
        acc = self._acc.setdefault(name, [0.0, 0, 0])
        acc[0] += now - t0
        acc[1] += count
        acc[2] = max(acc[2], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return now

    def merge(self, other: Phases) -> None:
        """Charge the phases of another Phases, say another process's."""
        for name, (s, n, rss) in other._acc.items():
            old = self._acc.get(name, [0.0, 0, 0])
            self._acc[name] = [old[0] + s, old[1] + n, max(old[2], rss)]

    def to_dict(self) -> dict:
        return {
            name: {"s": round(s, 3), "count": n,
                   "peak_rss_mb": round(rss / _RSS_PER_MB, 1)}
            for name, (s, n, rss) in self._acc.items()
        }
