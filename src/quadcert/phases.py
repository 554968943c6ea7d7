"""Per-phase wall time, peak RSS and a count, for a run's own stats output,
and `forked`, the second process of the checker and the Goldbach sweep.

The caller charges whole blocks of work, never single lines:

    ph = Phases()
    t = time.monotonic()
    ... bootstrap ...
    t = ph.add("bootstrap", t, facts)
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import sys
import threading
import time
import warnings
from typing import Callable, Iterable, Iterator

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


def forked(make: Callable[[Phases], Iterable], ph: Phases,
           count: Callable[..., int]) -> Iterator:
    """The items of `make(phases)`, made by a forked child at most a full
    pipe and one item ahead, each sent pickled; time blocked on the pipe is
    charged to `wait` with `count(item)`. After the child's last item its
    phases are merged into `ph`, and its exception is raised where its next
    item would be. The child is always killed and reaped. The fork happens
    at the first item asked for; without os.fork, while another thread runs,
    or if the fork fails, `make(ph)` runs in this process."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        yield from make(ph)
        return
    src, out = map(open, os.pipe(), ("rb", "wb"))
    with src, out:
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns on forking a process with OS threads: a BLAS
                # pool, only if numpy was imported before quadcert pinned it.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:  # no process to spare: make the items in this one
            yield from make(ph)
            return
        if pid == 0:  # the child: os._exit runs nothing it inherited
            try:
                src.close()
                mine, end = Phases(), None
                try:
                    for item in make(mine):
                        out.write(pickle.dumps((False, item), pickle.HIGHEST_PROTOCOL))
                        out.flush()
                except BaseException as exc:  # for the parent to raise
                    end = exc
                out.write(pickle.dumps((True, (end, mine)), pickle.HIGHEST_PROTOCOL))
                out.close()
            finally:
                os._exit(0)
        out.close()
        try:
            while True:
                t = time.monotonic()
                try:
                    last, item = pickle.load(src)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise ChildProcessError("the forked process ended early") from exc
                if last:
                    end, theirs = item
                    ph.merge(theirs)
                    if end is not None:
                        raise end
                    return
                ph.add("wait", t, count(item))
                yield item
        finally:
            os.kill(pid, signal.SIGKILL)  # after its last item the child has nothing left to do
            os.waitpid(pid, 0)
