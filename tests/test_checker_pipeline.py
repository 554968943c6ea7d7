"""The checker's two processes: a forked child reads the file into columns
while the parent feeds them. A forked run (16-line chunks, so every file
here but the 21-line one is many blocks) must give the report of an
in-process run that reads the file as one block, or raise the same error;
no child process or open file may be left after any outcome."""

import gc
import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager
from unittest import mock

import pytest

from quadcert import checker
from quadcert import model as M
from quadcert.checker import check_store
from quadcert.engine import certify_range
from quadcert.primes import UnsupportedIntegerError

LIMIT = 30_000


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """A genuine certificate for 0..30000 (max-q)."""
    path = tmp_path_factory.mktemp("pipeline") / "genuine.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        certify_range(LIMIT, sink=fh)
    return path


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, if the block takes longer than `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _outcome(path, bound, **kw):
    """The report without its timings, or the error raised."""
    try:
        report = check_store(str(path), bound, **kw)
    except (OSError, ValueError) as exc:  # CertificateFormatError is a ValueError
        return type(exc), str(exc), getattr(exc, "line_no", None)
    blob = report.to_dict()
    blob["stats"].pop("elapsed_s")
    return blob, report.spot_check


def _both(path, bound, forks=True, **kw):
    """The outcomes of a forked run and of a one-block in-process run."""
    with _deadline(120), mock.patch.object(checker, "CHUNK_LINES", 16), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        forked = _outcome(path, bound, **kw)
    assert fork.called == forks
    with mock.patch.object(checker, "CHUNK_LINES", 1 << 20), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        whole = _outcome(path, bound, **kw)
    return forked, whole


def _lines(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [line for _, line in zip(range(2000), fh)]


@pytest.mark.parametrize("reorder", [False, True])
def test_forked_run_reports_as_one_block(genuine, reorder):
    forked, whole = _both(genuine, LIMIT, reorder=reorder, spot_check=32, seed=7)
    assert forked == whole
    assert forked[0]["accepted"] and forked[1]["sampled"] == 32


@pytest.mark.parametrize("fault", ["malformed_tail", "decode_after_malformed",
                                   "overlong_int", "crlf_later", "gap_flood"])
def test_forked_run_fails_as_one_block(genuine, tmp_path, fault):
    lines = _lines(genuine)
    if fault == "malformed_tail":
        lines[-1] = lines[-1][:20] + "\n"
    elif fault == "decode_after_malformed":
        lines[1500] = '{"n":"x","just":{"type":"base"},"prereqs":[]}\n'
        lines[1700] = lines[1700][:-1] + "\udcff\n"
    elif fault == "overlong_int":
        lines[1900] = lines[1900].replace('"n":', '"n":' + "7" * 4301, 1)
    elif fault == "crlf_later":
        lines[1000:] = [line.replace("\n", "\r\n") for line in lines[1000:]]
        lines.append(lines[30])  # a duplicate, on a line text mode numbers
    else:
        lines = lines[:21]
    path = tmp_path / f"{fault}.jsonl"
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    forked, whole = _both(path, 1800, forks=fault != "gap_flood")
    assert forked == whole
    if fault in ("malformed_tail", "decode_after_malformed", "overlong_int"):
        assert issubclass(forked[0], ValueError)
    else:
        assert not forked[0]["accepted"]


def test_a_failing_parent_leaves_no_child_and_no_open_file(genuine):
    calls = []

    def feed(self, *args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("second chunk")

    with warnings.catch_warnings(record=True) as seen, _deadline(60):
        warnings.simplefilter("always")
        with mock.patch.object(checker, "CHUNK_LINES", 16), \
                mock.patch.object(checker._Pass, "feed", feed), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.raises(RuntimeError, match="second chunk") as err:
                check_store(str(genuine), LIMIT)
        # while the traceback (and so the scan's frame) is alive
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        del err
        gc.collect()
    assert fork.called and len(calls) == 2
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_the_fork_warning_of_a_multi_threaded_process_is_not_raised(genuine):
    # Python 3.12's os.fork warns when the process has more OS threads than
    # one, as numpy's BLAS pool gives it in a caller that imported numpy
    # before quadcert; this fork warns the same way
    real = os.fork

    def fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of"
                      " fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return real()

    with warnings.catch_warnings(record=True) as seen, _deadline(60):
        warnings.simplefilter("always")
        with mock.patch.object(checker, "CHUNK_LINES", 16), \
                mock.patch.object(checker.os, "fork", fork):
            report = check_store(str(genuine), LIMIT)
    assert not seen
    assert report.accepted and report.phases["wait"]["count"] > 0


def test_a_one_block_file_is_checked_without_forking(cert_2k):
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        report = check_store(cert_2k["path"], cert_2k["limit"])
    assert report.accepted and "wait" not in report.phases


def test_a_failed_fork_reads_in_process(genuine):
    with mock.patch.object(checker, "CHUNK_LINES", 1 << 10), \
            mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "no process")):
        report = check_store(str(genuine), LIMIT)
    assert report.accepted and "wait" not in report.phases


def test_a_process_with_threads_does_not_fork(cert_2k):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with mock.patch.object(checker, "CHUNK_LINES", 16), \
                mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            report = check_store(cert_2k["path"], cert_2k["limit"])
    finally:
        stop.set()
        other.join()
    assert report.accepted


def test_phases_of_a_forked_run_count_every_line(genuine):
    lines = genuine.read_bytes().count(b"\n")
    with mock.patch.object(checker, "CHUNK_LINES", 1 << 10):  # 64 KiB blocks
        phases = check_store(str(genuine), LIMIT).phases
    assert list(phases)[:5] == ["bootstrap", "read", "columns", "reference", "wait"]
    assert phases["read"]["count"] == phases["columns"]["count"] == lines
    assert phases["wait"]["count"] == phases["bookkeeping"]["count"] == lines
    assert all(p["s"] >= 0 and p["peak_rss_mb"] > 0 for p in phases.values())


@pytest.mark.parametrize("exc", [
    M.CertificateFormatError(12, "invalid JSON: Expecting value"),
    UnsupportedIntegerError("18446744073709551629 is beyond the supported 64-bit range"),
    UnicodeDecodeError("utf-8", b"ab\xffc", 2, 3, "invalid start byte"),
    FileNotFoundError(2, "No such file or directory", "/no/such/file"),
])
def test_reader_errors_survive_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
    for name in ("line_no", "message", "errno", "strerror", "filename",
                 "encoding", "object", "start", "end", "reason"):
        assert getattr(back, name, None) == getattr(exc, name, None)
