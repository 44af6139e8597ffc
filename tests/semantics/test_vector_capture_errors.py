"""``capture_errors`` parity on improper nets: same error class as the
interpreter, sibling lanes unpoisoned.

Each test runs on both engines; the lane count picks the engine (fewer
than 8 lanes run on the scalar engine, 8 or more on the numpy engine).
The interpreter reference is the naive evaluator (``fast=False``): a
plain ``simulate()`` would itself run on the scalar engine.
"""

import copy
import random
import warnings

import pytest

from repro.errors import ExecutionError, ReproError, RuntimeFaultError
from repro.fuzz import GeneratorConfig, apply_mutation, generate_case
from repro.semantics import Environment, simulate
from repro.semantics.profile import traces_equivalent
from repro.semantics.vector import Lane, VectorSimulator

warnings.filterwarnings("ignore", message=".*truncated exploration.*")

#: (lane count, test id): the count reaches the engine the id names
ENGINES = pytest.mark.parametrize("lanes", [1, 8], ids=["scalar", "numpy"])
WIDE_ENGINES = pytest.mark.parametrize("lanes", [3, 8],
                                       ids=["scalar", "numpy"])


def _interpreter_error(system, environment, *, strict=True):
    try:
        simulate(system, copy.deepcopy(environment), max_steps=64,
                 strict=strict, on_limit="return", fast=False)
        return None
    except ReproError as error:
        return error


def _mutated_case(mutation, max_seed=200):
    config = GeneratorConfig(mutation_rate=0.0, quirk_rate=0.0)
    for seed in range(max_seed):
        case = generate_case(seed, config)
        if not apply_mutation(case.system, mutation, random.Random(seed)):
            continue
        error = _interpreter_error(case.system, case.environment)
        if error is not None:
            return case, error
    pytest.skip(f"no erroring {mutation!r} case in {max_seed} seeds")


class TestErrorClassParity:
    @ENGINES
    def test_comb_loop_same_class_as_interpreter(self, lanes):
        case, expected = _mutated_case("comb_loop")
        assert isinstance(expected, RuntimeFaultError)
        result = VectorSimulator(case.system, strict=True).run(
            [Lane(copy.deepcopy(case.environment)) for _ in range(lanes)],
            max_steps=64, capture_errors=True)
        for lane in range(lanes):
            error = result.error(lane)
            assert type(error) is type(expected)
            assert error.kind == expected.kind == "comb_loop"

    @ENGINES
    def test_guard_conflict_same_class_as_interpreter(self, lanes):
        case, expected = _mutated_case("guard_drop")
        result = VectorSimulator(case.system, strict=True).run(
            [Lane(copy.deepcopy(case.environment)) for _ in range(lanes)],
            max_steps=64, capture_errors=True)
        for lane in range(lanes):
            assert type(result.error(lane)) is type(expected)


class TestSiblingIsolation:
    @WIDE_ENGINES
    def test_bad_lane_does_not_poison_siblings(self, lanes):
        # lane 1 exhausts its input stream under policy "raise"; the
        # other lanes run the same system with ample input
        config = GeneratorConfig(mutation_rate=0.0, quirk_rate=0.0)
        for seed in range(200):
            case = generate_case(seed, config)
            inputs = sorted(case.environment.sequences)
            if not inputs:
                continue
            ample = Environment(
                {k: list(v) * 8
                 for k, v in case.environment.sequences.items()},
                exhausted_policy="hold")
            starved = Environment(
                {k: ([] if k == inputs[0] else list(v) * 8)
                 for k, v in case.environment.sequences.items()},
                exhausted_policy="raise")
            if _interpreter_error(case.system, starved) is None:
                continue
            ref = simulate(case.system, copy.deepcopy(ample),
                           max_steps=64, on_limit="return", fast=False)
            envs = [ample] * lanes
            envs[1] = starved
            result = VectorSimulator(case.system).run(
                [Lane(copy.deepcopy(env)) for env in envs],
                max_steps=64, capture_errors=True)
            assert isinstance(result.error(1), ExecutionError)
            with pytest.raises(ExecutionError):
                result.trace(1)
            for lane in range(lanes):
                if lane == 1:
                    continue
                assert result.error(lane) is None
                assert traces_equivalent(result.trace(lane), ref)
            return
        pytest.skip("no starvable generated case found")

    @WIDE_ENGINES
    def test_all_lanes_err_on_structural_fault(self, lanes):
        # a combinational loop is a property of the *system*: every lane
        # must fail with the same structured error, none silently
        case, expected = _mutated_case("comb_loop")
        result = VectorSimulator(case.system, strict=True).run(
            [Lane(copy.deepcopy(case.environment)) for _ in range(lanes)],
            max_steps=64, capture_errors=True)
        for lane in range(lanes):
            error = result.error(lane)
            assert type(error) is type(expected)
