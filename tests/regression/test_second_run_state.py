"""Pinned trace-divergence bug: a second ``run()`` kept the first's state.

``Simulator.run()`` without ``from_checkpoint`` starts at the initial
marking M0, but the interpreter used to carry the previous run's
registers, activation counter and per-arc event indices into it.  On
``counter`` fed ``limit_in=[3, 3]`` the second run's first event was
stamped ``(activation, index) = (14, 1)`` where a fresh run (and the
compiled lane) stamps ``(2, 0)``.  ``run()`` now re-initialises that
state, so the second run equals a fresh run on the rest of the stream
on every engine: the compiled lane, the incremental interpreter (a bare
``SimHook`` routes there) and the naive evaluator.
"""

from __future__ import annotations

import pytest

from repro.designs import get_design
from repro.semantics import Environment, SimHook, Simulator, simulate


@pytest.mark.parametrize("kwargs", [{}, {"hooks": [SimHook()]},
                                    {"fast": False}],
                         ids=["compiled", "incremental", "naive"])
def test_second_run_starts_fresh(kwargs):
    system = get_design("counter").build()
    ref = simulate(system, Environment.of(limit_in=[3]), fast=False)
    sim = Simulator(system, Environment.of(limit_in=[3, 3]), **kwargs)
    sim.run()
    second = sim.run()
    assert [(e.activation, e.index) for e in second.events][:2] == [(2, 0),
                                                                     (4, 0)]
    assert second == ref
