"""Pinned trace-divergence bug: choice-conflict record order.

``Simulator._record_choice_conflicts`` used to iterate
``marking.marked_places()`` — a frozenset, whose iteration order depends
on the process hash seed.  With several conflicted places marked in the
same step, the ``ConflictRecord`` order in the trace (and, in strict
mode, *which* conflict raised first) varied across interpreter
invocations: two runs of the same deterministic simulation produced
different traces.  The loop now walks the places in sorted order.

The fork system below marks four conflicted places in one step, with
names chosen so hash order disagrees with sorted order under common
seeds; the subprocess test replays it under several explicit
``PYTHONHASHSEED`` values and demands byte-identical conflict records.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core import DataControlSystem
from repro.datapath import DataPath, output_pad
from repro.errors import ExecutionError
from repro.petri import PetriNet
from repro.semantics import simulate

#: sorted() gives alpha < echo < mike < zeta; insertion (and most hash
#: seeds) give some other order
CONFLICTED = ("s_zeta", "s_alpha", "s_mike", "s_echo")


def four_way_conflict_system() -> DataControlSystem:
    """One fork step marks four places, each with two fireable exits."""
    dp = DataPath(name="conflicts")
    dp.add_vertex(output_pad("y"))
    net = PetriNet(name="conflicts")
    net.add_place("s_entry", marked=True)
    net.add_transition("t_fork")
    net.add_arc("s_entry", "t_fork")
    for place in CONFLICTED:
        net.add_place(place)
        net.add_arc("t_fork", place)
        for k in (1, 2):
            sink = f"{place}_sink{k}"
            net.add_place(sink)
            net.add_transition(f"{place}_t{k}")
            net.add_arc(place, f"{place}_t{k}")
            net.add_arc(f"{place}_t{k}", sink)
    return DataControlSystem(dp, net, name="conflicts")


def conflict_details(trace) -> list[str]:
    return [c.detail for c in trace.conflicts if c.kind == "choice"]


EXPECTED = [
    f"transitions ['{p}_t1', '{p}_t2'] compete for the token in "
    f"place '{p}'"
    for p in sorted(CONFLICTED)
]


def test_records_are_in_sorted_place_order():
    for fast in (True, False):  # compiled lane, interpreter
        trace = simulate(four_way_conflict_system(), strict=False,
                         max_steps=10, on_limit="return", fast=fast)
        assert conflict_details(trace) == EXPECTED


def test_strict_mode_raises_the_sorted_first_conflict():
    for fast in (True, False):  # compiled lane, interpreter
        with pytest.raises(ExecutionError) as exc:
            simulate(four_way_conflict_system(), strict=True, max_steps=10,
                     fast=fast)
        assert str(exc.value) == EXPECTED[0]  # s_alpha, never hash-order


def test_vector_backend_agrees():
    interp = simulate(four_way_conflict_system(), strict=False,
                      max_steps=10, on_limit="return", fast=False)
    vector = simulate(four_way_conflict_system(), strict=False,
                      max_steps=10, on_limit="return")
    assert conflict_details(vector) == conflict_details(interp) == EXPECTED


_SUBPROCESS = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {path!r})
from test_conflict_record_order import (conflict_details,
                                        four_way_conflict_system)
from repro.semantics import simulate

for fast in (True, False):  # compiled lane, interpreter
    trace = simulate(four_way_conflict_system(), strict=False, max_steps=10,
                     on_limit="return", fast=fast)
    for detail in conflict_details(trace):
        print(detail)
"""


def test_identical_across_hash_seeds():
    """The actual divergence: records must not follow the hash seed."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    script = _SUBPROCESS.format(src=src, path=os.path.dirname(__file__))
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert outputs == {"\n".join(EXPECTED * 2) + "\n"}
