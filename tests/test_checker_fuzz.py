"""Byte-level fuzz of the checker on the genuine 2k certificate.

Hypothesis truncates the file at any byte, flips bytes, inserts invalid
UTF-8, NUL and CR bytes, and writes 25-digit and 5,000-digit integers over
the file's numbers; the claimed bound is the genuine one, any below it, or
any up to 10^12.
Whatever the bytes and the bound, `check_store` returns a report or raises
one of the errors the CLI reports with exit 2, and `check` exits 0, 1 or 2.
"""

import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadcert import cli  # noqa: E402
from quadcert.checker import CheckReport, check_store  # noqa: E402
from quadcert.model import CertificateFormatError  # noqa: E402

BOUND = 2000
DIGITS = re.compile(rb"[0-9]+")

at = st.integers(0, 1 << 20)  # a byte position, reduced modulo the length
op = st.one_of(
    st.tuples(st.just("truncate"), at),
    st.tuples(st.just("flip"), at, st.integers(1, 255)),
    st.tuples(st.just("insert"), at, st.sampled_from([
        b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
        b"\x00", b"\r", b"\r\n"])),
    st.tuples(st.just("integer"), at, st.sampled_from([25, 5000])),
)


def _mutate(data, ops):
    buf = bytearray(data)
    for kind, i, *args in ops:
        i %= len(buf) + 1
        if kind == "truncate":
            del buf[i:]
        elif kind == "flip" and i < len(buf):
            buf[i] ^= args[0]
        elif kind == "insert":
            buf[i:i] = args[0]
        elif kind == "integer":
            m = DIGITS.search(buf, i) or DIGITS.search(buf)
            if m:
                buf[m.start():m.end()] = b"9" * args[0]
    return bytes(buf)


@pytest.fixture(scope="module")
def genuine_bytes(cert_2k):
    with open(cert_2k["path"], "rb") as fh:
        return fh.read()


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(op, min_size=1, max_size=4), reorder=st.booleans(),
       bound=st.one_of(st.just(BOUND), st.integers(0, BOUND), st.integers(0, 10**12)))
def test_any_bytes_end_in_a_report_or_a_clean_error(genuine_bytes, ops, reorder, bound):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.jsonl")
        with open(path, "wb") as fh:
            fh.write(_mutate(genuine_bytes, ops))
        try:
            assert isinstance(check_store(path, bound, reorder=reorder), CheckReport)
        except (CertificateFormatError, UnicodeDecodeError, OSError):
            pass
        argv = ["check", "--in", path, "--max", str(bound),
                "--report", os.path.join(tmp, "report.json")]
        assert cli.main(argv + ["--reorder"] * reorder) in (0, 1, 2)
