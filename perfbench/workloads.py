"""The four benchmark workloads.

Each workload builds a pool of ops from the workload seed alone (at least
100, so ``op_ms_p90`` has ten samples beyond it), computes a reference
for every op outside the timed loop, and runs the pool in passes, one op
at a time, through the layer it stresses.  Ops are closed-loop: the next
op starts when the previous one returns.  Every op's output is checked
against its reference.

The interface ``run.py`` uses:

``pool``
    the op descriptors of one pass (inputs only; ``op["slot"]`` is the
    position in the pool);
``prepare()``
    compute references (untimed);
``new_pass()``
    called before each pass;
``start(op)``
    per-op input preparation that must not be timed (environment
    forks, fresh system copies);
``execute(prepared, span)``
    the timed op; ``span(name)`` wraps each call into a layer;
``check(op, output)``
    compare against the reference: returns ``(ok, explained, detail)``
    where ``explained`` marks a failure of the documented numpy int64
    range limit (counted as a failed op, but not as a wrong answer);
``account(op, output, stats)``
    add the op's exact simulated statistics to ``stats``;
``sim_steps(op, output)`` and ``timings(output)``
    simulated steps and program-reported phase times of one op.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

#: Numpy lanes raise this where the interpreter computes an exact int.
RANGE_LIMIT_MESSAGE = "exceeds the vector backend's 64-bit range"

#: Explicit-search marking budget for the properness checks in
#: synth-verify.  The library default (100k markings) takes 10-30 s per
#: check on nets that exhaust it; 16 markings puts the exhaustion point
#: inside the 4-13-place nets a run can optimise a hundred times.
PROPERNESS_BUDGET = 16


def _rng(seed: int, *salt: int) -> random.Random:
    """A per-purpose RNG: a pure function of the workload seed and salt."""
    value = seed & 0x7FFFFFFF
    for part in salt:
        value = (value * 1_000_003 + part * 7919 + 17) & 0x7FFFFFFFFFFF
    return random.Random(value)


def _stratum(rng: random.Random, j: int, k: int) -> float:
    """A uniform draw from stratum ``j`` of ``k`` equal slices of [0, 1).

    Stratifying sizes keeps every seed's size mix the same while the
    values themselves change with the seed.
    """
    return (j + rng.random()) / k


# -- per-design seeded inputs ------------------------------------------------
def _gcd_pair(rng, iterations):
    """Seeded operands for which the subtraction loop runs a fixed
    ``iterations`` times: ``a = q*b + 1`` takes ``q + b - 1`` rounds."""
    b = min(rng.randint(2, 12), iterations)
    return {"a_in": [(iterations + 1 - b) * b + 1], "b_in": [b]}


def _bits(rng, bits):
    return rng.randrange(2 ** bits, 2 ** (bits + 1))


#: single-sim: interpreter inputs sized for about 150 to 1000 steps.
SINGLE_INPUTS = {
    "counter": lambda rng, u: {"limit_in": [int(50 + 250 * u)]},
    "traffic": lambda rng, u: {"cycles_in": [int(25 + 110 * u)]},
    "gcd": lambda rng, u: _gcd_pair(rng, int(40 + 160 * u)),
    "isqrt": lambda rng, u: {"n_in": [_bits(rng, 20 + int(42 * u))]},
    "shiftmul": lambda rng, u: {"a_in": [rng.randrange(1, 2 ** 40)],
                                "b_in": [_bits(rng, 16 + int(46 * u))]},
    "diffeq": lambda rng, u: {"a_in": [int(15 + 35 * u)]},
}

#: batch-sim lanes: values that stay inside the numpy engine's exact range.
LANE_INPUTS = {
    "counter": lambda rng, u: {"limit_in": [int(30 + 70 * u)]},
    "traffic": lambda rng, u: {"cycles_in": [int(10 + 30 * u)]},
    "gcd": lambda rng, u: _gcd_pair(rng, int(10 + 30 * u)),
    "isqrt": lambda rng, u: {"n_in": [_bits(rng, 10 + int(20 * u))]},
    "shiftmul": lambda rng, u: {"a_in": [rng.randrange(1, 2 ** 20)],
                                "b_in": [_bits(rng, 10 + int(20 * u))]},
    "diffeq": lambda rng, u: {"a_in": [int(3 + 10 * u)]},
}

#: batch-sim boundary lanes: past the int64-exact range, exact in Python.
BOUNDARY_INPUTS = {
    "isqrt": lambda rng: {"n_in": [2 ** 62 + rng.randrange(2 ** 20)]},
    "shiftmul": lambda rng: {"a_in": [2 ** 40 + rng.randrange(2 ** 20)],
                             "b_in": [2 ** 40 + rng.randrange(2 ** 20)]},
    "diffeq": lambda rng: {"a_in": [rng.randint(20, 30)]},
}

#: fault-campaign and synth-verify: short runs, so the fault oracle and
#: the equivalence checks dominate rather than the simulation itself.
SHORT_INPUTS = {
    "counter": lambda rng, u: {"limit_in": [int(6 + 18 * u)]},
    "traffic": lambda rng, u: {"cycles_in": [int(2 + 6 * u)]},
    "gcd": lambda rng, u: _gcd_pair(rng, int(12 + 9 * u)),
    "isqrt": lambda rng, u: {"n_in": [_bits(rng, 6 + int(10 * u))]},
    "shiftmul": lambda rng, u: {"a_in": [rng.randrange(1, 2 ** 16)],
                                "b_in": [_bits(rng, 5 + int(8 * u))]},
    "diffeq": lambda rng, u: {"a_in": [int(3 + 6 * u)]},
    "parsum": lambda rng, u: {"x_in": [rng.randrange(-99, 100)
                                       for _ in range(4)]},
    # ewf reads a sample count, then that many samples
    "ewf": lambda rng, u: {"x_in": [4] + [rng.randrange(-9, 10)
                                          for _ in range(4)]},
}


class Workload:
    """Shared plumbing of the four workloads."""

    name = ""
    #: passes over the pool a run makes at least (figures are per-op
    #: medians over the passes)
    min_passes = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool: list[dict] = []

    def inputs(self):
        """JSON-ready inputs of the whole pool (digested by ``run.py``)."""
        raise NotImplementedError

    def new_pass(self) -> None:
        """Called before each pass over the pool."""

    def close(self) -> None:
        """Release anything the workload created on disk."""

    def timings(self, output) -> dict[str, float]:
        """Phase times the program itself reports for one op."""
        return {}


# ---------------------------------------------------------------------------
class SingleSim(Workload):
    """One interpreter ``simulate()`` call per op on one zoo design."""

    name = "single-sim"
    POOL_PER_DESIGN = 18

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.designs import ZOO

        rng = _rng(seed, 1)
        self.systems = {name: ZOO[name].build() for name in SINGLE_INPUTS}
        for j in range(self.POOL_PER_DESIGN):
            for name, make in SINGLE_INPUTS.items():
                inputs = make(rng, _stratum(rng, j, self.POOL_PER_DESIGN))
                self.pool.append({"slot": len(self.pool), "design": name,
                                  "env": ZOO[name].environment(inputs)})
        self.references: dict[int, object] = {}

    def inputs(self):
        return [(op["design"], op["env"].sequences) for op in self.pool]

    def prepare(self) -> None:
        from repro import simulate

        for op in self.pool:
            self.references[op["slot"]] = simulate(
                self.systems[op["design"]], op["env"].fork(), fast=False)

    def start(self, op):
        return self.systems[op["design"]], op["env"].fork()

    def execute(self, prepared, span):
        from repro import simulate

        system, env = prepared
        with span("semantics.simulate"):
            return simulate(system, env)

    def check(self, op, trace):
        if trace == self.references[op["slot"]]:
            return True, False, ""
        return False, False, "trace differs from the fast=False reference"

    def account(self, op, trace, stats) -> None:
        stats["steps"] += trace.step_count
        stats["events"] += len(trace.events)
        metrics = trace.metrics
        stats["port_evaluations"] += metrics.port_evaluations
        stats["cache_hits"] += metrics.total_cache_hits
        stats["cache_lookups"] += (metrics.total_cache_hits
                                   + metrics.total_cache_misses)

    def sim_steps(self, op, trace) -> int:
        return trace.step_count

    def timings(self, trace) -> dict[str, float]:
        """Program-reported phase times of one op (from ``SimMetrics``)."""
        return {"combinational_s": trace.metrics.combinational_seconds,
                "control_s": trace.metrics.control_seconds}


# ---------------------------------------------------------------------------
class BatchSim(Workload):
    """One ``VectorSimulator.run()`` over many lanes per op, plus extraction.

    Each design has a pool of lane inputs; an op draws ``LANES`` of them
    in a seeded order.  Every other op of a design that can overflow
    carries one boundary lane whose values leave the int64-exact range.
    """

    name = "batch-sim"
    LANES = 16
    LANE_POOL = 20
    OPS_PER_DESIGN = 17

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.designs import ZOO
        from repro.semantics.vector import compile_system

        rng = _rng(seed, 2)
        self.systems = {name: ZOO[name].build() for name in LANE_INPUTS}
        start = time.perf_counter()
        self.compiled = {name: compile_system(system)
                         for name, system in self.systems.items()}
        self.compile_s = time.perf_counter() - start
        self.lane_envs = {}
        for name, make in LANE_INPUTS.items():
            self.lane_envs[name] = [
                ZOO[name].environment(
                    make(rng, _stratum(rng, j, self.LANE_POOL)))
                for j in range(self.LANE_POOL)]
        self.boundary_envs = {}
        for k in range(self.OPS_PER_DESIGN):
            for name in LANE_INPUTS:
                picks = rng.sample(range(self.LANE_POOL), self.LANES)
                lanes = [("lane", name, j) for j in picks]
                if name in BOUNDARY_INPUTS and k % 2 == 0:
                    key = ("boundary", name, len(self.boundary_envs))
                    self.boundary_envs[key] = ZOO[name].environment(
                        BOUNDARY_INPUTS[name](rng))
                    lanes[rng.randrange(self.LANES)] = key
                self.pool.append({"slot": len(self.pool), "design": name,
                                  "lanes": lanes})
        self.references: dict[tuple, object] = {}

    def _env(self, key):
        if key[0] == "boundary":
            return self.boundary_envs[key]
        return self.lane_envs[key[1]][key[2]]

    def inputs(self):
        return [(op["design"], [self._env(key).sequences
                                for key in op["lanes"]])
                for op in self.pool]

    def prepare(self) -> None:
        from repro import simulate

        for op in self.pool:
            for key in op["lanes"]:
                if key not in self.references:
                    self.references[key] = simulate(
                        self.systems[key[1]], self._env(key).fork(),
                        fast=False)

    def start(self, op):
        from repro.semantics.vector import Lane

        return (self.compiled[op["design"]],
                [Lane(self._env(key).fork()) for key in op["lanes"]])

    def execute(self, prepared, span):
        from repro.semantics.vector import VectorSimulator

        compiled, lanes = prepared
        with span("vector.advance"):
            result = VectorSimulator(compiled).run(lanes, capture_errors=True)
        with span("vector.extract"):
            return [result.error(i) or result.trace(i)
                    for i in range(len(lanes))]

    def check(self, op, outputs):
        from repro.errors import ExecutionError
        from repro.semantics.trace import Trace

        explained_only = True
        wrong = []
        for key, out in zip(op["lanes"], outputs):
            if out == self.references[key]:
                continue
            wrong.append(key)
            if not (isinstance(out, ExecutionError)
                    and RANGE_LIMIT_MESSAGE in str(out)
                    and isinstance(self.references[key], Trace)):
                explained_only = False
        if not wrong:
            return True, False, ""
        kind = "int64 range error" if explained_only else "lane mismatch"
        return False, explained_only, f"{len(wrong)} lane(s): {kind}"

    def account(self, op, outputs, stats) -> None:
        from repro.semantics.trace import Trace

        stats["lanes"] += len(outputs)
        for out in outputs:
            if isinstance(out, Trace):
                stats["lane_steps"] += out.step_count
                stats["lane_events"] += len(out.events)
            elif RANGE_LIMIT_MESSAGE in str(out):
                stats["range_errors"] += 1
            else:
                stats["lane_errors"] += 1

    def sim_steps(self, op, outputs) -> int:
        from repro.semantics.trace import Trace

        return sum(out.step_count for out in outputs
                   if isinstance(out, Trace))


# ---------------------------------------------------------------------------
class FaultCampaign(Workload):
    """One vector-backend ``run_campaign()`` per op over a seeded fault list.

    The serial engine and one ``ResultCache`` are shared by every op of a
    pass; each pass starts from an empty cache, so every pass sees the
    same hits.  Every fifth op repeats an earlier op exactly, so the
    cache answers it.
    """

    name = "fault-campaign"
    FAULT_POOL = 40
    FAULTS_PER_CAMPAIGN = 6
    REPEAT_EVERY = 5
    POOL = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.designs import ZOO
        from repro.faults import generate_faults

        rng = _rng(seed, 3)
        self.designs = list(SHORT_INPUTS)
        self.systems = {}
        self.envs = {}
        self.faults = {}
        self.campaign_seed = {}
        for name in self.designs:
            system = ZOO[name].build()
            self.systems[name] = system
            # mid-range sizes: the campaign cost then varies with the
            # seeded values and faults, not with one draw of the size
            self.envs[name] = ZOO[name].environment(
                SHORT_INPUTS[name](rng, 0.5))
            self.faults[name] = generate_faults(
                system, self.FAULT_POOL, seed=rng.randrange(2 ** 31))
            self.campaign_seed[name] = rng.randrange(2 ** 31)
        for slot in range(self.POOL):
            if slot and slot % self.REPEAT_EVERY == 0:
                earlier = self.pool[rng.randrange(slot)]
                self.pool.append(dict(earlier, slot=slot, repeat=True))
                continue
            name = self.designs[slot % len(self.designs)]
            picks = rng.sample(range(self.FAULT_POOL),
                               self.FAULTS_PER_CAMPAIGN)
            self.pool.append({"slot": slot, "design": name, "faults": picks,
                              "repeat": False})
        self._workdir = tempfile.mkdtemp(prefix="campaign-",
                                         dir=_work_root())
        self.engine = None
        self.references: dict[str, dict] = {}

    def new_pass(self) -> None:
        from repro.runtime import ExecutionEngine, ResultCache

        if self.engine is not None:
            self.engine.close()
        cache_dir = tempfile.mkdtemp(dir=self._workdir)
        self.engine = ExecutionEngine(workers=0, cache=ResultCache(cache_dir))

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self._workdir, ignore_errors=True)

    def inputs(self):
        return [[(name, self.envs[name].sequences, self.campaign_seed[name],
                  [fault.to_dict() for fault in self.faults[name]])
                 for name in self.designs],
                [(op["design"], op["faults"]) for op in self.pool]]

    def prepare(self) -> None:
        from repro.faults import run_campaign
        from repro.runtime import ExecutionEngine

        with ExecutionEngine(workers=0) as engine:
            for name in self.designs:
                report = run_campaign(
                    self.systems[name], self.faults[name], self.envs[name],
                    engine=engine, seed=self.campaign_seed[name],
                    backend="interpreter")
                for entry in report.results:
                    self.references[entry["key"]] = entry

    def start(self, op):
        name = op["design"]
        return name, [self.faults[name][i] for i in op["faults"]]

    def execute(self, prepared, span):
        from repro.faults import run_campaign

        name, faults = prepared
        with span("faults.campaign"):
            report = run_campaign(
                self.systems[name], faults, self.envs[name],
                engine=self.engine, seed=self.campaign_seed[name],
                backend="vector")
        return report, self.engine.metrics

    def check(self, op, output):
        report, _fleet = output
        if len(report.results) != len(op["faults"]) or not report.complete:
            return False, False, "campaign report incomplete"
        for entry in report.results:
            if self.references.get(entry["key"]) != entry:
                return False, False, (
                    f"verdict for {entry['label']} differs from the "
                    "interpreter-backend reference")
        return True, False, ""

    def account(self, op, output, stats) -> None:
        report, fleet = output
        for verdict, count in report.counts.items():
            stats[verdict] += count
        stats["sim_steps"] += self.sim_steps(op, output)
        stats["jobs"] += fleet.jobs
        stats["dispatched"] += fleet.dispatched
        stats["cached"] += fleet.cached
        stats["retries"] += fleet.retries
        stats["runtime_failed"] += fleet.failed

    def sim_steps(self, op, output) -> int:
        report, fleet = output
        if fleet.dispatched == 0:
            return 0  # answered from the cache: nothing was simulated
        golden = report.results[0]["golden_steps"] if report.results else 0
        return golden * fleet.dispatched + sum(
            entry.get("faulty_steps") or 0 for entry in report.results)

    def timings(self, output) -> dict[str, float]:
        _report, fleet = output
        return {"run_s": fleet.run_seconds,
                "queue_s": fleet.queue_seconds,
                "overhead_s": fleet.wall_seconds - fleet.run_seconds}


# ---------------------------------------------------------------------------
class SynthVerify(Workload):
    """The Sec. 5 flow per op: optimise, prove properness, lint, check
    equivalence of result and source with both backends.

    The pool repeats a block of seven zoo designs with seeded inputs,
    small generated nets, and generated nets with at least two forks,
    whose reachable markings often exceed :data:`PROPERNESS_BUDGET`.
    """

    name = "synth-verify"
    ZOO_DESIGNS = ("gcd", "diffeq", "traffic", "parsum", "counter", "isqrt",
                   "shiftmul")
    SMALL_PLACES = (4, 5, 6, 7, 8, 9, 10) * 2
    PARALLEL_PLACES = (10, 11, 12, 13)
    BLOCKS = 8
    #: generated nets differ in cost by an order of magnitude: a seed's
    #: figures match another's only over many nets, so the pool is twice
    #: the usual size and makes two passes instead of three
    min_passes = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.designs import ZOO
        from repro.fuzz.generate import GeneratorConfig, generate_case

        rng = _rng(seed, 5)
        zoo = {name: ZOO[name].build() for name in self.ZOO_DESIGNS}

        def add(design, system, env):
            self.pool.append({"slot": len(self.pool), "design": design,
                              "system": system, "env": env})

        def generated(places, *, forks):
            # a fixed size per slot: a net's cost follows its size, so
            # every seed gets the same mix of sizes and its own nets
            config = GeneratorConfig(min_places=places, max_places=places,
                                     mutation_rate=0.0, quirk_rate=0.0)
            while True:
                case = generate_case(rng.randrange(2 ** 31), config)
                net = case.system.net
                if sum(len(net.postset(t)) > 1
                       for t in net.transitions) >= forks:
                    return case

        for _block in range(self.BLOCKS):
            for name in self.ZOO_DESIGNS:
                add(name, zoo[name], ZOO[name].environment(
                    SHORT_INPUTS[name](rng, rng.random())))
            for places in self.SMALL_PLACES:
                case = generated(places, forks=0)
                add(f"gen{case.seed}", case.system, case.environment)
            for places in self.PARALLEL_PLACES:
                case = generated(places, forks=2)
                add(f"par{case.seed}", case.system, case.environment)
        self.references: dict[int, dict] = {}

    def inputs(self):
        from repro.io.json_io import system_to_dict

        return [(op["design"], system_to_dict(op["system"]),
                 op["env"].sequences, op["env"].exhausted_policy)
                for op in self.pool]

    def prepare(self) -> None:
        """References are per op: see :meth:`reference`."""

    def start(self, op):
        # a fresh copy per op: the system object caches its coexistence
        # relation, which would let later ops skip the reachability work
        return op["system"].copy(), op["env"]

    def execute(self, prepared, span):
        from repro.analysis.lint import run_lint
        from repro.core import check_properly_designed, semantically_equivalent
        from repro.synthesis.optimize import optimize

        source, env = prepared
        with span("synthesis.optimize"):
            result = optimize(source)
        with span("core.properness"):
            proper_source = check_properly_designed(
                source, max_markings=PROPERNESS_BUDGET)
        with span("core.properness"):
            proper_result = check_properly_designed(
                result.system, max_markings=PROPERNESS_BUDGET)
        with span("analysis.lint"):
            lint = run_lint(result.system)
        with span("core.equiv_explicit"):
            explicit = semantically_equivalent(
                source, result.system, env, backend="explicit")
        with span("analysis.equiv_symbolic"):
            symbolic = semantically_equivalent(
                source, result.system, env, backend="symbolic")
        return _synth_summary(result, proper_source, proper_result, lint,
                              explicit, symbolic)

    def reference(self, op, summary) -> dict:
        """Run source and result once more, untimed, and compare what
        their output pads see: a check independent of both equivalence
        backends, and the steps those backends simulate."""
        from repro import pad_outputs, simulate

        if op["slot"] not in self.references:
            runs = [(system, simulate(system, op["env"].fork()))
                    for system in (op["system"], summary["_system"])]
            outputs = [pad_outputs(system, trace) for system, trace in runs]
            self.references[op["slot"]] = {
                "outputs_equal": outputs[0] == outputs[1],
                # the explicit and the symbolic check each run both systems
                "sim_steps": 2 * sum(trace.step_count for _s, trace in runs)}
        return self.references[op["slot"]]

    def check(self, op, summary):
        reference = self.reference(op, summary)
        problems = []
        if summary["explicit"] != summary["symbolic"]:
            problems.append("explicit and symbolic verdicts disagree")
        if not summary["explicit"]:
            problems.append("result is not equivalent to its source")
        if not reference["outputs_equal"]:
            problems.append("result and source outputs differ in simulation")
        if summary["result_errors"] or summary["source_errors"]:
            problems.append("properness check found a violation")
        if problems:
            return False, False, "; ".join(problems)
        return True, False, ""

    def account(self, op, summary, stats) -> None:
        stats["moves"] += summary["moves"]
        stats["cost"] += summary["cost"]
        stats["verdicts"] += 2
        stats["truncated"] += (summary["source_truncated"]
                               + summary["result_truncated"])
        stats["lint_diagnostics"] += summary["lint_diagnostics"]
        stats["disagreements"] += summary["explicit"] != summary["symbolic"]

    def sim_steps(self, op, summary) -> int:
        return self.reference(op, summary)["sim_steps"]


def _synth_summary(result, proper_source, proper_result, lint, explicit,
                   symbolic) -> dict:
    def errors(report):
        return sum(d.severity == "error" for d in report.diagnostics())

    def truncated(report):
        return sum(d.rule == "PD002" and d.severity == "warning"
                   for d in report.diagnostics())

    return {
        "_system": result.system,
        "moves": len(result.moves),
        "cost": result.final_objective,
        "source_errors": errors(proper_source),
        "result_errors": errors(proper_result),
        "source_truncated": truncated(proper_source),
        "result_truncated": truncated(proper_result),
        "lint_diagnostics": len(lint.diagnostics),
        "explicit": explicit.equivalent,
        "symbolic": symbolic.equivalent,
    }


def _work_root() -> str:
    """Scratch space inside the benchmark's own directory."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(root, exist_ok=True)
    return root


WORKLOADS = {cls.name: cls
             for cls in (SingleSim, BatchSim, FaultCampaign, SynthVerify)}
