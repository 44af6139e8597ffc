"""The compiled vector backend: byte-identity with the interpreter.

The contract under test (see :mod:`repro.semantics.vector`): compiling
a system once and advancing lanes in batch — on the scalar engine
(fewer than 8 lanes) or the numpy engine (8 or more) — must reproduce
the interpreter's traces exactly, on every zoo design, under every
supported policy, through checkpoints, and in every degenerate shape
(empty batch, single lane).  A hook-free ``Simulator`` run already
takes the scalar engine, so the interpreter reference here is the naive
evaluator (``fast=False``).
"""

from __future__ import annotations

import pytest

from repro.datapath import Operation, OpKind, Vertex
from repro.designs import all_designs, get_design
from repro.errors import DefinitionError, ExecutionError
from repro.semantics import (
    Checkpoint,
    Environment,
    FixedOrderPolicy,
    Lane,
    MaximalStepPolicy,
    RandomPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
    SimHook,
    Simulator,
    VectorSimulator,
    compile_system,
    simulate,
    traces_equivalent,
)
from tests.util import guarded_choice_system, relay_system

DESIGNS = [d.name for d in all_designs()]
POLICIES = {
    "maximal": MaximalStepPolicy,
    "sequential": SequentialPolicy,
    "seeded": lambda: SeededMaximalPolicy(7),
}


def _interpreter(system, env, policy):
    sim = Simulator(system, env, policy, strict=False, fast=False)
    try:
        return sim.run(max_steps=500, on_limit="return"), None
    except Exception as error:
        return None, f"{type(error).__name__}: {error}"


class TestZooParity:
    @pytest.mark.parametrize("lanes", [1, 8], ids=["scalar", "numpy"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_byte_identical_trace(self, zoo, name, policy, lanes):
        """The lane count picks the engine; every lane must match."""
        design, system = zoo[name]
        mk = POLICIES[policy]
        ref, ref_err = _interpreter(system, design.environment(), mk())
        vsim = VectorSimulator(system, strict=False)
        try:
            result = vsim.run(
                [Lane(design.environment(), mk()) for _ in range(lanes)],
                max_steps=500, on_limit="return")
            got = [result.trace(i) for i in range(lanes)]
            got_err = None
        except Exception as error:
            got, got_err = None, f"{type(error).__name__}: {error}"
        assert got_err == ref_err
        if ref is not None:
            assert all(traces_equivalent(trace, ref) for trace in got)


class TestBatchShapes:
    def test_empty_batch(self):
        result = VectorSimulator(relay_system()).run([])
        assert len(result) == 0
        assert result.traces() == []

    def test_single_lane_auto(self):
        design = get_design("counter")
        system = design.build()
        ref = simulate(system, design.environment(), fast=False)
        got = VectorSimulator(system).run(
            [Lane(design.environment())]).trace(0)
        assert traces_equivalent(got, ref)

    def test_heterogeneous_numpy_batch(self):
        """12 lanes with different inputs force the numpy engine."""
        design = get_design("counter")
        system = design.build()
        limits = [3 + i for i in range(12)]
        result = VectorSimulator(system).run(
            [Lane(design.environment({"limit_in": [n]})) for n in limits])
        for i, n in enumerate(limits):
            ref = simulate(system, design.environment({"limit_in": [n]}),
                           fast=False)
            assert traces_equivalent(result.trace(i), ref)

    def test_seeded_lanes_are_independent(self):
        """Each lane owns its RNG stream — lane order must not matter."""
        design = get_design("gcd")
        system = design.build()
        seeds = [1, 2, 3, 4, 5, 6, 7, 8]
        result = VectorSimulator(system).run(
            [Lane(design.environment(), SeededMaximalPolicy(s))
             for s in seeds])
        for i, s in enumerate(seeds):
            ref = simulate(system, design.environment(),
                           policy=SeededMaximalPolicy(s), fast=False)
            assert traces_equivalent(result.trace(i), ref)

    def test_compiled_system_is_reusable(self):
        design = get_design("gcd")
        compiled = compile_system(design.build())
        first = VectorSimulator(compiled).run([Lane(design.environment())])
        second = VectorSimulator(compiled).run([Lane(design.environment())])
        assert traces_equivalent(first.trace(0), second.trace(0))


class TestCheckpoints:
    def _split_vs_straight(self, system, env_factory, budget):
        """Interpreter and vector backends must agree across a split."""
        interp = Simulator(system, env_factory(), strict=False, fast=False)
        interp.run(max_steps=budget, on_limit="return")
        cp = interp.checkpoint()
        ref = interp.run(max_steps=500, on_limit="return",
                         from_checkpoint=cp)

        vsim = VectorSimulator(system, strict=False)
        got = vsim.run([Lane(env_factory())], max_steps=500,
                       on_limit="return", from_checkpoint=(cp,)).trace(0)
        assert traces_equivalent(got, ref)

    def test_resume_interpreter_checkpoint(self, zoo):
        for name in ("counter", "gcd", "traffic"):
            design, system = zoo[name]
            self._split_vs_straight(system, design.environment, 5)

    def test_batch_checkpoint_roundtrip(self):
        design = get_design("counter")
        system = design.build()
        limits = [6, 9, 12]
        lanes = lambda: [Lane(design.environment({"limit_in": [n]}))
                         for n in limits]
        vsim = VectorSimulator(system)
        vsim.run(lanes(), max_steps=4, on_limit="return")
        cp = vsim.checkpoint()
        assert len(cp) == len(limits)
        assert all(isinstance(lane_cp, Checkpoint) for lane_cp in cp)
        resumed = vsim.run(lanes(), max_steps=500, on_limit="return",
                           from_checkpoint=cp)
        for i, n in enumerate(limits):
            interp = Simulator(system,
                               design.environment({"limit_in": [n]}),
                               strict=False, fast=False)
            interp.run(max_steps=4, on_limit="return")
            ref = interp.run(max_steps=500, on_limit="return",
                             from_checkpoint=interp.checkpoint())
            assert traces_equivalent(resumed.trace(i), ref)

    def test_vector_checkpoint_resumes_under_interpreter(self):
        """Per-lane entries are plain interpreter checkpoints."""
        design = get_design("counter")
        system = design.build()
        vsim = VectorSimulator(system)
        vsim.run([Lane(design.environment({"limit_in": [8]}))],
                 max_steps=4, on_limit="return")
        (lane_cp,) = vsim.checkpoint()
        got = Simulator(system, design.environment({"limit_in": [8]}),
                        fast=False).run(max_steps=500,
                                        from_checkpoint=lane_cp)
        interp = Simulator(system, design.environment({"limit_in": [8]}),
                           fast=False)
        interp.run(max_steps=4, on_limit="return")
        ref = interp.run(max_steps=500,
                         from_checkpoint=interp.checkpoint())
        assert traces_equivalent(got, ref)

    def test_lane_count_mismatch(self):
        design = get_design("counter")
        system = design.build()
        vsim = VectorSimulator(system)
        vsim.run([Lane(design.environment())], max_steps=3,
                 on_limit="return")
        cp = vsim.checkpoint()
        with pytest.raises(DefinitionError, match="1 lane"):
            vsim.run([Lane(design.environment()),
                      Lane(design.environment())], from_checkpoint=cp)


class TestValidationAndErrors:
    def test_unsupported_policy(self):
        with pytest.raises(DefinitionError, match="polic"):
            VectorSimulator(relay_system()).run(
                [Lane(Environment.of(x=[1]), RandomPolicy())])
        with pytest.raises(DefinitionError, match="polic"):
            VectorSimulator(relay_system()).run(
                [Lane(Environment.of(x=[1]), FixedOrderPolicy(()))])

    def test_run_validation_matches_interpreter(self):
        vsim = VectorSimulator(relay_system())
        with pytest.raises(ValueError,
                           match="choose 'raise' or 'return'"):
            vsim.run([Lane(Environment.of(x=[1]))], on_limit="stop")
        with pytest.raises(ValueError, match="positive step budget"):
            vsim.run([Lane(Environment.of(x=[1]))], max_steps=0)

    def test_strict_conflict_raises_per_interpreter(self):
        from tests.regression.test_conflict_record_order import (
            four_way_conflict_system,
        )

        system = four_way_conflict_system()
        ref_err = vec_err = None
        try:
            simulate(system, max_steps=10, fast=False)
        except ExecutionError as error:
            ref_err = str(error)
        try:
            simulate(system, max_steps=10)
        except ExecutionError as error:
            vec_err = str(error)
        assert ref_err is not None and "compete for the token" in ref_err
        assert vec_err == ref_err

    def test_guarded_choice_parity(self):
        system = guarded_choice_system()
        for x in (0, 7):
            ref = simulate(system, Environment.of(x=[x]), max_steps=500,
                           fast=False)
            got = simulate(system, Environment.of(x=[x]), max_steps=500)
            assert traces_equivalent(got, ref)

    def test_missing_value_function_raises_like_interpreter(self):
        """The compiled engines' run-time DefinitionError is the one
        Operation.evaluate raises, so no caller needs an interpreter
        fallback for it."""
        system = relay_system()
        dp = system.datapath
        dp.add_vertex(Vertex("f", ("i",), ("o",),
                             {"o": Operation("opaque", OpKind.COM, 1)}))
        dp.connect("r.q", "f.i", name="a_f")
        system.set_control("s_write", ["a_out", "a_f"])
        messages = set()
        for fast in (False, True):
            with pytest.raises(DefinitionError) as info:
                simulate(system, Environment.of(x=[1]), fast=fast)
            messages.add(str(info.value))
        with pytest.raises(DefinitionError) as info:
            VectorSimulator(system).run(
                [Lane(Environment.of(x=[1])) for _ in range(8)])
        messages.add(str(info.value))
        assert messages == {"operation 'opaque' has no value function"}

    def test_limit_exhaustion_raises_like_interpreter(self):
        design = get_design("counter")
        system = design.build()
        env = design.environment({"limit_in": [50]})
        with pytest.raises(ExecutionError,
                           match="did not finish within 10 steps"):
            simulate(system, env, max_steps=10)

    def test_capture_errors_isolates_bad_lane(self):
        design = get_design("counter")
        system = design.build()
        good = design.environment({"limit_in": [3]})
        result = VectorSimulator(system).run(
            [Lane(good), Lane(design.environment({"limit_in": [50]}))],
            max_steps=20, capture_errors=True)
        assert result.error(0) is None
        assert isinstance(result.error(1), ExecutionError)
        assert result.trace(0).terminated
        with pytest.raises(ExecutionError):
            result.trace(1)


class TestSimulatorBackend:
    def test_simulate_backend_kwarg(self):
        """Plain ``simulate()`` runs on the compiled lane, exactly."""
        design = get_design("gcd")
        system = design.build()
        ref = simulate(system, design.environment(), fast=False)
        got = simulate(system, design.environment())
        assert traces_equivalent(got, ref)

    @pytest.mark.parametrize("hooked, policy", [
        (False, "maximal"), (False, "sequential"), (False, "seeded"),
        (True, "maximal"), (False, "random")])
    def test_run_picks_engine(self, hooked, policy):
        """Hook-free runs under the compiled policies take the compiled
        lane; a hooked run or another policy takes the interpreter."""
        design = get_design("gcd")
        system = design.build()
        make = dict(POLICIES, random=lambda: RandomPolicy(3))[policy]
        hooks = [SimHook()] if hooked else []
        trace = Simulator(system, design.environment(), make(),
                          hooks=hooks).run()
        compiled = not hooked and policy != "random"
        metrics = trace.metrics
        assert ("compiled lane" in metrics.summary()) == compiled
        assert (metrics.full_passes + metrics.incremental_passes
                == (0 if compiled else trace.step_count))
        ref = Simulator(system, design.environment(), make(),
                        fast=False).run()
        assert traces_equivalent(trace, ref)

    def test_checkpoint_through_backend(self):
        design = get_design("counter")
        system = design.build()
        sim = Simulator(system, design.environment({"limit_in": [9]}))
        sim.run(max_steps=4, on_limit="return")
        cp = sim.checkpoint()
        got = Simulator(system, design.environment({"limit_in": [9]})).run(
            max_steps=500, from_checkpoint=cp)
        interp = Simulator(system, design.environment({"limit_in": [9]}),
                           fast=False)
        interp.run(max_steps=4, on_limit="return")
        ref = interp.run(max_steps=500,
                         from_checkpoint=interp.checkpoint())
        assert traces_equivalent(got, ref)
