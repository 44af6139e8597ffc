"""The fast engines are drop-ins for the naive evaluator.

``Simulator(fast=True)`` runs a hook-free run on the compiled scalar
lane, and a hooked one on the incremental interpreter, which memoizes
per-marking state (open arcs, COM topology, drive conflicts, enabled
transitions) and propagates values along dirty edges only;
``fast=False`` recomputes everything from scratch.  A bare
:class:`SimHook` binds no per-step call, so it reaches the incremental
path with the step loop unchanged.  These tests pin the contract:
*byte-identical traces* from all three engines on every curated design
under both firing policies, sane metrics, and a working profile module.
"""

import json

import pytest

from repro.designs import all_designs
from repro.petri import TokenGameCache, maximal_step
from repro.semantics import (
    Environment,
    MaximalStepPolicy,
    SequentialPolicy,
    SimHook,
    SimMetrics,
    Simulator,
    compare_paths,
    profile_simulation,
    simulate,
    traces_equivalent,
)
from repro.synthesis import compile_source

DESIGNS = {design.name: design for design in all_designs()}


def _run(design, *, fast, policy_cls=MaximalStepPolicy, max_steps=500_000,
         hooks=()):
    system = design.build()
    return Simulator(system, design.environment(), policy_cls(), True,
                     fast, hooks).run(max_steps=max_steps)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_fast_path_trace_identical_on_zoo(name):
    design = DESIGNS[name]
    naive = _run(design, fast=False)
    for fast in (_run(design, fast=True),
                 _run(design, fast=True, hooks=[SimHook()])):
        # field-by-field: each fast engine must be observationally invisible
        assert fast.events == naive.events
        assert fast.steps == naive.steps
        assert fast.latches == naive.latches
        assert fast.conflicts == naive.conflicts
        assert fast.final_marking == naive.final_marking
        assert fast.final_state == naive.final_state
        assert fast.terminated == naive.terminated
        assert fast.deadlocked == naive.deadlocked
        assert fast.step_count == naive.step_count
        assert traces_equivalent(naive, fast)
        # dataclass equality agrees (metrics are excluded from comparison)
        assert fast == naive


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_fast_path_identical_under_sequential_policy(name):
    design = DESIGNS[name]
    naive = _run(design, fast=False, policy_cls=SequentialPolicy,
                 max_steps=2_000_000)
    for hooks in ((), [SimHook()]):
        fast = _run(design, fast=True, policy_cls=SequentialPolicy,
                    max_steps=2_000_000, hooks=hooks)
        assert traces_equivalent(naive, fast)


def test_metrics_attached_and_consistent():
    design = DESIGNS["counter"]
    lane = _run(design, fast=True).metrics
    assert lane is not None and lane.fast_path
    assert lane.full_passes == lane.incremental_passes == 0
    assert 0 < lane.port_evaluations and lane.peak_marked_places >= 1
    trace = _run(design, fast=True, hooks=[SimHook()])
    metrics = trace.metrics
    assert metrics is not None and metrics.fast_path
    assert lane.steps == metrics.steps == trace.step_count
    assert lane.firings == metrics.firings == trace.num_firings
    assert metrics.full_passes + metrics.incremental_passes == metrics.steps
    assert metrics.dirty_evaluations <= metrics.port_evaluations
    assert metrics.peak_marked_places >= 1
    assert metrics.wall_seconds > 0
    naive = _run(design, fast=False).metrics
    assert naive is not None and not naive.fast_path
    assert naive.incremental_passes == 0 and naive.dirty_evaluations == 0
    assert naive.total_cache_hits == 0
    # same work, counted two ways: naive evaluates every COM port per step
    assert metrics.port_evaluations <= naive.port_evaluations


def test_loop_heavy_run_hits_caches():
    system = compile_source("""
        design bigcount { input l; output o; var n = 0, limit;
          limit = read(l);
          while (n < limit) { write(o, n); n = n + 1; }
        }""")
    lane = simulate(system, Environment.of(l=[50]), max_steps=100_000).metrics
    assert lane is not None
    assert lane.cache_hits["effects"] > lane.cache_misses["effects"]
    trace = simulate(system, Environment.of(l=[50]), max_steps=100_000,
                     hooks=[SimHook()])
    metrics = trace.metrics
    assert metrics is not None
    assert metrics.total_cache_hits > metrics.total_cache_misses
    assert metrics.incremental_passes > metrics.full_passes
    for name in ("active_arcs", "com_order", "conflicts", "token_game"):
        assert metrics.cache_hits[name] > 0, name


def test_compare_paths_report():
    design = DESIGNS["gcd"]
    report = compare_paths(design.build(), design.environment(),
                           max_steps=500_000)
    assert report["identical"]
    assert report["speedup"] > 0
    assert report["naive"]["fast_path"] is False
    assert report["fast"]["fast_path"] is True
    json.dumps(report)  # the whole report is JSON-serialisable


def test_profile_simulation_and_json_round_trip():
    design = DESIGNS["traffic"]
    trace = profile_simulation(design.build(), design.environment(),
                               max_steps=500_000)
    metrics = trace.metrics
    assert metrics is not None
    payload = json.loads(metrics.to_json())
    assert payload["steps"] == metrics.steps
    assert payload["cache_hit_rate"] == pytest.approx(metrics.cache_hit_rate)
    restored = SimMetrics.from_dict(payload)
    assert restored.steps == metrics.steps
    assert restored.cache_hits == metrics.cache_hits
    assert restored.steps_per_second == pytest.approx(
        metrics.steps_per_second)
    assert "cache hit rate" in metrics.summary()


def test_token_game_cache_matches_module_functions():
    design = DESIGNS["gcd"]
    net = design.build().net
    cache = TokenGameCache(net)
    marking = net.initial_marking()
    for _ in range(20):
        assert list(cache.maximal_step(marking)) == maximal_step(net, marking)
        priority = sorted(net.transitions)
        assert (cache.maximal_step(marking, priority=priority)
                == maximal_step(net, marking, priority=priority))
        step = maximal_step(net, marking)
        if not step:
            break
        from repro.petri import fire_step
        marking = fire_step(net, marking, step)
    assert cache.hits > 0  # repeated queries per marking were memoized


def test_policy_falls_back_on_foreign_net():
    """A bound policy must ignore its engine when given a different net."""
    gcd = DESIGNS["gcd"].build()
    counter = DESIGNS["counter"].build()
    policy = MaximalStepPolicy()
    policy.bind(TokenGameCache(gcd.net))
    marking = counter.net.initial_marking()
    assert (policy.choose(counter.net, marking, lambda t: True)
            == maximal_step(counter.net, marking))
