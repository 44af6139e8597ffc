"""E8 — Definition 3.1 is an executable semantics.

Claim (implicit): the model "addresses issues of design directly" — its
behaviour definition is operational.  This benchmark measures the
simulator's throughput: control steps and external events per second on
the looping zoo designs, plus scaling over a widening parallel design.
The benchmarked kernel is a 200-iteration counter run.

E8c races the naive full-recompute evaluator against the default engine
(the compiled scalar lane, with its per-marking plans and memoized
effects) on loop-heavy workloads, consuming the machine-readable ``SimMetrics`` JSON the run
emits — the same payload ``repro simulate --profile-json`` produces.
"""

import json
import time

from repro.io import format_table
from repro.semantics import Environment, compare_paths, simulate
from repro.synthesis import compile_source

from conftest import emit


def wide_par_source(width: int) -> str:
    lines = [f"design wide{width} {{", "  output o;"]
    names = [f"v{k}" for k in range(width)]
    lines.append("  var " + ", ".join(names) + ";")
    lines.append("  par {")
    for name in names:
        lines.append(f"    {{ {name} = {len(name)}; "
                     f"{name} = {name} * 3; }}")
    lines.append("  }")
    lines.append("  write(o, " + " + ".join(names) + ");")
    lines.append("}")
    return "\n".join(lines)


def test_e8_throughput_on_zoo(zoo, benchmark):
    rows = []
    for name in ("counter", "gcd", "diffeq", "ewf", "isqrt", "traffic"):
        design, system = zoo[name]
        env = design.environment()
        started = time.perf_counter()
        trace = simulate(system, env, max_steps=500_000)
        elapsed = time.perf_counter() - started
        rows.append([name, trace.step_count, trace.num_firings,
                     len(trace.events),
                     round(trace.step_count / max(elapsed, 1e-9))])
    emit(format_table(
        ["design", "steps", "firings", "events", "steps/s"],
        rows, title="E8: simulator throughput on the zoo"))

    big_counter = compile_source("""
        design bigcount { input l; output o; var n = 0, limit;
          limit = read(l);
          while (n < limit) { write(o, n); n = n + 1; }
        }""")

    def run():
        return simulate(big_counter, Environment.of(l=[200]),
                        max_steps=500_000)

    trace = benchmark(run)
    assert len(trace.events) == 201  # 200 writes + 1 read


def test_e8_scaling_with_parallel_width(benchmark):
    rows = []
    for width in (2, 4, 8, 16):
        system = compile_source(wide_par_source(width))
        started = time.perf_counter()
        trace = simulate(system, Environment(), max_steps=100_000)
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append([width, len(system.net.places), trace.step_count,
                     round(elapsed, 2)])
    emit(format_table(
        ["par width", "places", "steps", "time (ms)"],
        rows, title="E8b: maximal-step execution over widening fork/join"))

    system = compile_source(wide_par_source(8))
    trace = benchmark(simulate, system, Environment())
    assert trace.terminated


def loop_heavy_source(iterations: int) -> str:
    return f"""
        design hot {{ input l; output o; var n = 0, acc = 1, limit;
          limit = read(l);
          while (n < limit) {{
            acc = acc + n * n;
            write(o, acc);
            n = n + 1;
          }}
        }}"""


def test_e8c_fast_path_vs_naive():
    """Default engine vs naive: identical traces, measured speedup.

    The per-design metrics come back through the JSON serialisation
    (``SimMetrics.to_json`` → ``json.loads``) to pin the machine-readable
    contract the CLI ``--profile-json`` flag shares.
    """
    workloads = [
        ("counter×200", compile_source("""
            design bigcount { input l; output o; var n = 0, limit;
              limit = read(l);
              while (n < limit) { write(o, n); n = n + 1; }
            }"""), Environment.of(l=[200])),
        ("loop-heavy×300", compile_source(loop_heavy_source(300)),
         Environment.of(l=[300])),
    ]
    rows = []
    for name, system, env in workloads:
        report = compare_paths(system, env, max_steps=500_000)
        assert report["identical"], f"{name}: fast path diverged"
        fast = json.loads(json.dumps(report["fast"]))  # JSON round trip
        naive = report["naive"]
        hits = sum(fast["cache_hits"].values())
        misses = sum(fast["cache_misses"].values())
        # loop-heavy workloads revisit markings: caches must pay off
        assert hits > misses, f"{name}: {hits} hits <= {misses} misses"
        rows.append([
            name, fast["steps"],
            naive["port_evaluations"], fast["port_evaluations"],
            f"{hits}/{misses}",
            f"{fast['cache_hit_rate']:.0%}",
            f"{report['speedup']:.2f}x",
        ])
    emit(format_table(
        ["workload", "steps", "naive evals", "fast evals",
         "hits/misses", "hit rate", "speedup"],
        rows, title="E8c: default engine vs naive evaluator"))
