"""The forked second process that the checker and the Goldbach sweep share,
and the one OS thread it is forked from."""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quadcert
from quadcert.phases import Phases, forked

SRC = Path(quadcert.__file__).resolve().parent


def test_a_child_that_dies_is_a_child_process_error():
    parent = os.getpid()

    def make(ph):
        if os.getpid() != parent:  # never in this process, should it not fork
            os._exit(1)
        yield 1

    with pytest.raises(ChildProcessError, match="ended early"):
        list(forked(make, Phases(), lambda item: item))


def test_the_child_error_follows_its_items_and_its_phases_are_merged():
    def make(ph):
        for i in range(3):
            ph.add("made", time.monotonic(), 1)
            yield i
        raise KeyError("after three")

    ph = Phases()
    got = []
    with pytest.raises(KeyError, match="after three"):
        for item in forked(make, ph, lambda item: 1):
            got.append(item)
    assert got == [0, 1, 2]
    phases = ph.to_dict()
    assert phases["wait"]["count"] == phases["made"]["count"] == 3


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to count threads")
@pytest.mark.parametrize("caller", [None, "2"])
def test_import_leaves_one_os_thread_unless_the_caller_sets_a_blas_count(caller):
    # a fresh interpreter, as this one imported numpy before the test ran
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller:
        env["OPENBLAS_NUM_THREADS"] = caller
    code = ("import os, quadcert; print(len(os.listdir('/proc/self/task')),"
            " os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    threads, value = out.stdout.split()
    assert value == str(caller)  # the caller's count stands; ours is not inherited
    if caller is None:
        assert threads == "1"


def test_no_module_makes_a_blas_call():
    # one BLAS thread costs nothing only while no code multiplies matrices
    blas = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.MatMult), path.name
            assert not (isinstance(node, ast.Attribute) and node.attr in blas), path.name
            assert not (isinstance(node, ast.Name) and node.id in blas), path.name
