"""The repository benchmark: four seeded workloads, one closed-loop caller.

Run from the repository root::

    python3 perfbench/run.py --workload single-sim --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also runs the same ops with a span at every layer boundary
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``); the line before it is
the full run record, which is also written under ``perfbench/results/``.
``python3 perfbench/compare.py A.json B.json`` flags any difference in
the exact simulated statistics of two records.

Each workload runs its pool of ops in passes.  Every figure is taken
from each op's median over the passes: other tenants of the machine slow
it by up to 2x for a second or two at a time, and a per-op median drops
those moments where a mean over the run would keep them.  Slower shifts
that last minutes are taken out by timing a fixed calibration loop
before every op and scaling the op's time to the loop's nominal speed
(see ``spec.CALIBRATION_NOMINAL_S``); the record keeps the raw times.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spec  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(spec.CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def set_up(name: str, seed: int):
    """Import the program and build one workload's inputs, timed, with
    the machine's speed read just before."""
    speed = spec.CALIBRATION_NOMINAL_S / statistics.median(
        calibrate() for _ in range(5))
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    start = time.perf_counter()
    workload = WORKLOADS[name](seed)
    inputs_s = time.perf_counter() - start
    return workload, {"import_s": import_s, "inputs_s": inputs_s,
                      "speed": speed}


def fresh_set_up(name: str, seed: int) -> dict:
    """One set-up in a fresh interpreter (a child process we wait for)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
def run_passes(workload, tracer, *, seconds: float = 0.0,
               min_passes: int = 1, passes: int | None = None) -> dict:
    """Run the pool pass after pass: exactly ``passes`` passes, or until
    both ``seconds`` of op time and ``min_passes`` passes are done.

    Exact statistics come from the first pass.  Span op ids are
    ``pass * len(pool) + slot``.
    """
    size = len(workload.pool)
    latencies: list[list[float]] = []
    speed: list[list[float]] = []
    timings: list[list[dict]] = []
    steps = [0] * size
    marks: list[str] = []
    failures: list[dict] = []
    stats: Counter = Counter()
    busy = 0.0
    while (len(latencies) < passes if passes is not None
           else busy < seconds or len(latencies) < min_passes):
        number = len(latencies)
        workload.new_pass()
        latencies.append([])
        speed.append([])
        timings.append([])
        for op in workload.pool:
            prepared = workload.start(op)
            speed[-1].append(spec.CALIBRATION_NOMINAL_S / calibrate())
            tracer.op = number * size + op["slot"]
            with tracer("op"):
                start = time.perf_counter()
                try:
                    output = workload.execute(prepared, tracer)
                except Exception as error:  # an op that raises has failed
                    output = error
                latency = time.perf_counter() - start
            latencies[-1].append(latency)
            busy += latency
            raised = isinstance(output, Exception)
            ok, explained, detail = ((False, False, f"raised {output!r}")
                                     if raised else workload.check(op, output))
            marks.append("." if ok else "e" if explained else "x")
            if not ok and len(failures) < 20:
                failures.append({"pass": number, "slot": op["slot"],
                                 "design": op["design"],
                                 "explained": explained, "detail": detail})
            timings[-1].append({} if raised else workload.timings(output))
            if number == 0 and not raised:
                workload.account(op, output, stats)
                steps[op["slot"]] = workload.sim_steps(op, output)
    return {"latencies": latencies, "speed": speed, "timings": timings,
            "steps": steps,
            "marks": "".join(marks), "failures": failures, "stats": stats,
            "busy": busy}


def per_op_median(table: list[list[float]]) -> list[float]:
    """Each slot's median over the passes of a ``[pass][slot]`` table."""
    return [statistics.median(column) for column in zip(*table)]


def scaled(table, loop) -> list[list[float]]:
    """A ``[pass][slot]`` table of times at the nominal machine speed."""
    return [[value * factor for value, factor in zip(row, factors)]
            for row, factors in zip(table, loop["speed"])]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(setups, loop, latencies, *, raw: bool = False) -> dict:
    latency = per_op_median(latencies)
    return {
        "setup_s": statistics.median(
            (s["import_s"] + s["inputs_s"]) * (1 if raw else s["speed"])
            for s in setups),
        "ops_per_s": len(latency) / sum(latency),
        "op_ms_p50": statistics.median(latency) * 1e3,
        "op_ms_p90": statistics.quantiles(latency, n=10)[-1] * 1e3,
        "sim_steps_per_s": sum(loop["steps"]) / sum(latency),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, setups, untraced, traced, tracer) -> dict:
    """Layer figures of the traced passes, per op (median over passes)."""
    size = len(workload.pool)
    passes = len(traced["latencies"])
    by_op = tracer.by_op()

    def layer(name, kind="self"):
        """Mean over the pool of each op's median time in one layer."""
        table = [[by_op.get(p * size + slot, {}).get(name, (0.0, 0.0))
                  [0 if kind == "self" else 1]
                  for slot in range(size)] for p in range(passes)]
        return sum(per_op_median(scaled(table, traced))) / size

    def timing(key):
        table = [[entry.get(key, 0.0) for entry in row]
                 for row in traced["timings"]]
        return sum(per_op_median(scaled(table, traced))) / size

    def ratio(a, b):
        return a / b if b else 0.0

    stats = traced["stats"]
    steps = sum(traced["steps"])
    untraced_op = sum(per_op_median(
        scaled(untraced["latencies"], untraced))) / size
    traced_op = sum(per_op_median(scaled(traced["latencies"], traced))) / size
    return {
        "setup.import_s": statistics.median(s["import_s"] * s["speed"]
                                            for s in setups),
        "setup.inputs_s": statistics.median(s["inputs_s"] * s["speed"]
                                            for s in setups),
        "semantics.simulate_s": layer("semantics.simulate"),
        "semantics.us_per_step": ratio(
            layer("semantics.simulate", "total") * size * 1e6, steps),
        "semantics.combinational_s": timing("combinational_s"),
        "semantics.control_s": timing("control_s"),
        "semantics.cache_hit_rate": ratio(stats["cache_hits"],
                                          stats["cache_lookups"]),
        "semantics.port_evaluations": stats["port_evaluations"],
        "semantics.steps": stats["steps"],
        "semantics.events": stats["events"],
        "vector.compile_s": getattr(workload, "compile_s", 0.0),
        "vector.advance_s": layer("vector.advance"),
        "vector.extract_s": layer("vector.extract"),
        "vector.lanes": stats["lanes"],
        "vector.lane_steps": stats["lane_steps"],
        "vector.range_errors": stats["range_errors"],
        "faults.campaign_s": layer("faults.campaign"),
        "faults.masked": stats["masked"],
        "faults.detected": stats["detected"],
        "faults.silent": stats["silent"],
        "faults.error": stats["error"],
        "runtime.run_s": timing("run_s"),
        "runtime.overhead_s": timing("overhead_s"),
        "runtime.queue_s": timing("queue_s"),
        "runtime.jobs": stats["jobs"],
        "runtime.dispatched": stats["dispatched"],
        "runtime.cache_hit_rate": ratio(stats["cached"], stats["jobs"]),
        "runtime.retries": stats["retries"],
        "runtime.failed": stats["runtime_failed"],
        "synthesis.optimize_s": layer("synthesis.optimize"),
        "synthesis.moves": stats["moves"],
        "synthesis.cost": stats["cost"],
        "core.properness_s": layer("core.properness"),
        "core.truncated": stats["truncated"],
        "core.equiv_explicit_s": layer("core.equiv_explicit"),
        "analysis.equiv_symbolic_s": layer("analysis.equiv_symbolic"),
        "analysis.lint_s": layer("analysis.lint"),
        "analysis.equiv_disagreements": stats["disagreements"],
        "trace.overhead_s": traced_op - untraced_op,
        "trace.unattributed_share": ratio(layer("op"), layer("op", "total")),
    }


# ---------------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool, *,
            min_passes: int | None = None,
            setup_repeats: int = spec.SETUP_REPEATS,
            corrupt=None) -> tuple[dict, dict, Tracer | None]:
    """One benchmark run: returns ``(record, result line, spans)``.

    With ``trace``, half of ``seconds`` goes to the untraced passes and
    the traced passes repeat them.  ``corrupt`` (tests only) is called
    with the workload after its references are computed.
    """
    benchmark = load_benchmark()
    workload, own = set_up(name, seed)
    try:
        setups = [own] + [fresh_set_up(name, seed)
                          for _ in range(setup_repeats)]
        inputs_digest = _digest(workload.inputs())
        workload.prepare()
        if corrupt is not None:
            corrupt(workload)
        untraced = run_passes(workload, NullTracer(),
                              seconds=seconds / 2 if trace else seconds,
                              min_passes=min_passes or workload.min_passes)
        values = end_to_end(setups, untraced,
                            scaled(untraced["latencies"], untraced))
        raw = end_to_end(setups, untraced, untraced["latencies"], raw=True)
        if trace:
            tracer = Tracer()
            traced = run_passes(workload, tracer,
                                passes=len(untraced["latencies"]))
            layers = per_layer(workload, setups, untraced, traced, tracer)
    finally:
        workload.close()

    size = len(workload.pool)
    passes = len(untraced["latencies"])
    attempted = len(untraced["marks"])
    failed = attempted - untraced["marks"].count(".")
    unexplained = untraced["marks"].count("x")
    stats = dict(untraced["stats"])
    record = {
        "workload": name,
        "why": next(w["why"] for w in benchmark["workloads"]
                    if w["name"] == name),
        "seed": seed,
        "seeds": {"default": spec.DEFAULT_SEED,
                  "held_out": spec.HELD_OUT_SEED},
        "seconds": seconds,
        "load_model": "closed loop, one caller, one process, serial engine",
        "machine": machine(),
        "pool_ops": size,
        "passes": passes,
        "latency_s": untraced["latencies"],
        "speed_factor": untraced["speed"],
        "raw_end_to_end": raw,
        "inputs_digest": inputs_digest,
        "exact": {"ops": size, **stats},
        "ops": {"attempted": attempted, "failed": failed,
                "explained": failed - unexplained,
                "error_rate": failed / attempted,
                "results": untraced["marks"],
                "failures": untraced["failures"]},
        "end_to_end": {},
    }
    if name == "synth-verify":
        record["proved_ratio"] = 1 - stats["truncated"] / stats["verdicts"]
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    for metric in benchmark["end_to_end"]:
        record["end_to_end"][metric["name"]] = {
            "value": values[metric["name"]], "unit": metric["unit"],
            "better": metric["better"], "bound": metric["bound"],
            "samples": samples.get(metric["name"], size)}
    sections = {"end_to_end": values}
    if trace:
        sections["per_layer"] = layers
        record["per_layer"] = {
            metric["name"]: {"value": layers[metric["name"]],
                             "unit": metric["unit"],
                             "better": metric["better"],
                             "samples": (len(setups)
                                         if metric["name"].startswith("setup.")
                                         else size),
                             "moves": spec.MOVES[metric["name"]]}
            for metric in benchmark["per_layer"]}
        record["trace"] = {
            "passes": len(traced["latencies"]),
            "spans": len(tracer.spans),
            "overhead_share": (layers["trace.overhead_s"] * size
                               / sum(per_op_median(scaled(
                                   untraced["latencies"], untraced)))),
            "self_s": tracer.self_times(),
            "children_cover_parent": (layers["trace.unattributed_share"]
                                      <= spec.SPAN_TOLERANCE),
            "tolerance": spec.SPAN_TOLERANCE,
        }
    section = "per_layer" if trace else "end_to_end"
    result = {
        "correct": unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": sections[section][metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in benchmark[section]},
    }
    return record, result, tracer if trace else None


def _write_outputs(record: dict, tracer: Tracer | None) -> None:
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    if tracer is not None:
        tracer.write(os.path.join(out, f"{stem}-spans.json"))
    trace = "1" if tracer is not None else "0"
    with open(os.path.join(out, f"{stem}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workload, times = set_up(args.workload, args.seed)
        workload.close()
        print(json.dumps(times))
        return 0
    record, result, tracer = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    _write_outputs(record, tracer)
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
