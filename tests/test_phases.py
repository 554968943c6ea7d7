"""The forked second process that the checker and the Goldbach sweep share."""

import os
import time

import pytest

from quadcert.phases import Phases, forked


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
