"""Simulator hook interface, checkpoint/restore, and the injector."""

import pytest

from repro.datapath.ports import PortId
from repro.designs import get_design
from repro.errors import DefinitionError
from repro.faults import FaultInjector, FaultSpec
from repro.semantics import Environment, SimHook, Simulator, simulate
from repro.semantics.simulator import StepPerturbation

from tests.util import relay_system


def _gcd():
    design = get_design("gcd")
    return design.build(), design.environment()


class TestHookNeutrality:
    """Hooks must cost nothing when absent and nothing when inert."""

    def test_noop_hook_trace_identical(self):
        system, env = _gcd()
        plain = simulate(system, env.fork())

        class Inert(SimHook):
            pass

        hooked = simulate(system, env.fork(), hooks=[Inert()])
        assert hooked == plain
        assert hooked.events == plain.events
        assert hooked.steps == plain.steps

    def test_empty_injector_trace_identical(self):
        system, env = _gcd()
        # a bare SimHook binds no per-step call: the plain incremental path
        plain = simulate(system, env.fork(), hooks=[SimHook()])
        injected = simulate(system, env.fork(), hooks=[FaultInjector([])])
        assert injected == plain == simulate(system, env.fork())
        # the fast path must stay incremental: an empty injector has no
        # stuck-at faults, so perturbs_values is False
        assert injected.metrics.incremental_passes == \
            plain.metrics.incremental_passes

    def test_non_simhook_rejected(self):
        with pytest.raises(DefinitionError, match="SimHook"):
            Simulator(relay_system(), Environment.of(x=[1]),
                      hooks=[object()])

    def test_observer_hook_sees_every_step(self):
        system, env = _gcd()
        seen = []

        class Spy(SimHook):
            def post_token_game(self, sim, step, marking, chosen):
                seen.append((step, tuple(chosen)))

        trace = simulate(system, env.fork(), hooks=[Spy()])
        assert len(seen) == trace.step_count
        assert [list(chosen) for _step, chosen in seen] == trace.steps


class TestPerturbations:
    def test_marking_perturbation_reconciles_activations(self):
        # dropping the only token mid-run loses the pending events
        system, env = _gcd()

        class DropAll(SimHook):
            def pre_step(self, sim, step, marking):
                if step == 3:
                    empty = marking.with_tokens(
                        **{p: 0 for p in marking.marked_places()})
                    return StepPerturbation(marking=empty)
                return None

        trace = simulate(system, env.fork(), hooks=[DropAll()])
        assert trace.terminated
        assert trace.step_count == 3

    def test_poke_state_fast_naive_parity(self):
        system, env = _gcd()

        class Poke(SimHook):
            def pre_step(self, sim, step, marking):
                if step == 4:
                    port = PortId("reg_a", "q")
                    sim.poke_state(port, sim.state_value(port) + 4)
                return None

        fast = simulate(system, env.fork(), hooks=[Poke()])
        naive = simulate(system, env.fork(), hooks=[Poke()], fast=False)
        assert fast == naive
        assert fast.events == naive.events

    def test_poke_state_rejects_stateless_port(self):
        simulator = Simulator(relay_system(), Environment.of(x=[1]))
        with pytest.raises(DefinitionError, match="sequential state"):
            simulator.poke_state(PortId("x", "nope"), 1)

    def test_stuck_at_forces_full_passes(self):
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("stuck_at", "ne0.o", value=1, start=0, end=0)])
        assert injector.perturbs_values
        trace = Simulator(system, env.fork(), hooks=[injector]).run(
            max_steps=100, on_limit="return")
        assert trace.metrics.incremental_passes == 0
        assert trace.metrics.full_passes == trace.step_count

    def test_injection_window_respected(self):
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("guard_invert", "t_exit6", start=2, end=4)])
        simulate(system, env.fork(), hooks=[injector], strict=False)
        steps = [step for step, _index in injector.injections]
        assert steps == [2, 3, 4]

    def test_probability_gate_is_seeded(self):
        system, env = _gcd()

        def steps_for(seed):
            injector = FaultInjector(
                [FaultSpec("guard_invert", "t_exit6", probability=0.5,
                           seed=seed)])
            simulate(system, env.fork(), hooks=[injector], strict=False,
                     max_steps=200, on_limit="return")
            return [step for step, _index in injector.injections]

        assert steps_for(3) == steps_for(3)
        distinct = {tuple(steps_for(seed)) for seed in range(6)}
        assert len(distinct) > 1

    def test_once_limits_to_single_application(self):
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("bit_flip", "reg_a.q", bit=0, start=3, once=True)])
        simulate(system, env.fork(), hooks=[injector], strict=False,
                 max_steps=500, on_limit="return")
        assert injector.injection_count == 1
        assert injector.first_injection_step == 3


class TestCheckpoint:
    def test_resume_extends_run_exactly(self):
        system, env = _gcd()
        full = simulate(system, env.fork())

        first = Simulator(system, env.fork())
        head = first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        second = Simulator(system, env.fork())
        tail = second.run(from_checkpoint=snapshot)

        assert head.events + tail.events == full.events
        assert head.latches + tail.latches == full.latches
        assert head.steps + tail.steps == full.steps
        assert tail.final_state == full.final_state
        assert tail.final_marking == full.final_marking
        assert tail.terminated == full.terminated

    def test_checkpoint_carries_environment_cursors(self):
        system, env = _gcd()
        first = Simulator(system, env.fork())
        first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        # both reads happened before step 4
        assert snapshot.env_cursors == {"a_in": 1, "b_in": 1}

    def test_resume_respects_absolute_budget(self):
        system, env = _gcd()
        first = Simulator(system, env.fork())
        first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        resumed = Simulator(system, env.fork()).run(
            from_checkpoint=snapshot, max_steps=6, on_limit="return")
        assert resumed.step_count == 6  # 4 -> 6, two more steps only
        assert len(resumed.steps) == 2
