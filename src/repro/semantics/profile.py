"""Step-level observability for the simulation engine.

The simulator's hot loop is the two-phase step of Definition 3.1:
combinational fixpoint, then token game.  :class:`SimMetrics` counts
what each phase actually did — steps, port evaluations, cache hits and
misses of the engine's memo tables, peak marked places, wall time per
phase — and every :class:`~repro.semantics.trace.Trace` carries one
(``trace.metrics``).  The record is machine-readable (:meth:`SimMetrics.
as_dict` / :meth:`SimMetrics.to_json`) so benchmarks and the CLI
``simulate --profile`` flag can consume it without screen-scraping.

Two comparison helpers close the loop on the fast engines' correctness
claim:

* :func:`profile_simulation` — run once, return the trace (metrics
  attached);
* :func:`compare_paths` — run the naive full-recompute evaluator and
  the default engine on forked environments and report whether the
  traces are observationally identical, plus the measured speedup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

@dataclass
class SimMetrics:
    """What one simulation run cost, phase by phase.

    ``port_evaluations`` counts combinational output-port evaluations
    (the unit of work of phase 1; on the compiled lane, tape
    instructions run); ``dirty_evaluations`` is the subset performed on
    incremental passes — on a loop-heavy workload it stays far below
    ``steps × |COM ports|``, which is exactly the incremental path's
    value proposition.  The compiled lane runs no interpreter pass and
    reports its ``(plan, guard bits)`` effects memo as the ``effects``
    cache.
    """

    fast_path: bool = True
    steps: int = 0
    firings: int = 0
    port_evaluations: int = 0
    dirty_evaluations: int = 0
    full_passes: int = 0
    incremental_passes: int = 0
    peak_marked_places: int = 0
    combinational_seconds: float = 0.0
    control_seconds: float = 0.0
    wall_seconds: float = 0.0
    cache_hits: dict[str, int] = field(default_factory=dict)
    cache_misses: dict[str, int] = field(default_factory=dict)

    @property
    def total_cache_hits(self) -> int:
        return sum(self.cache_hits.values())

    @property
    def total_cache_misses(self) -> int:
        return sum(self.cache_misses.values())

    @property
    def cache_hit_rate(self) -> float:
        """Hits over total lookups, 0.0 when no cache was consulted."""
        lookups = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / lookups if lookups else 0.0

    @property
    def steps_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready representation (plain ints/floats/dicts)."""
        return {
            "fast_path": self.fast_path,
            "steps": self.steps,
            "firings": self.firings,
            "port_evaluations": self.port_evaluations,
            "dirty_evaluations": self.dirty_evaluations,
            "full_passes": self.full_passes,
            "incremental_passes": self.incremental_passes,
            "peak_marked_places": self.peak_marked_places,
            "combinational_seconds": self.combinational_seconds,
            "control_seconds": self.control_seconds,
            "wall_seconds": self.wall_seconds,
            "steps_per_second": self.steps_per_second,
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "SimMetrics":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        fields = {
            k: payload[k] for k in (
                "fast_path", "steps", "firings", "port_evaluations",
                "dirty_evaluations", "full_passes", "incremental_passes",
                "peak_marked_places", "combinational_seconds",
                "control_seconds", "wall_seconds",
            ) if k in payload
        }
        return cls(cache_hits=dict(payload.get("cache_hits", {})),
                   cache_misses=dict(payload.get("cache_misses", {})),
                   **fields)

    def summary(self) -> str:
        """Multi-line human-readable report (CLI ``--profile``)."""
        incremental = self.fast_path and bool(self.full_passes
                                              or self.incremental_passes)
        path = ("naive full pass" if not self.fast_path
                else "incremental fast path" if incremental
                else "compiled lane")
        lines = [
            f"profile ({path}):",
            f"  steps                {self.steps}",
            f"  firings              {self.firings}",
            f"  port evaluations     {self.port_evaluations}"
            + (f" ({self.dirty_evaluations} incremental)"
               if incremental else ""),
            f"  passes               {self.full_passes} full"
            f" / {self.incremental_passes} incremental",
            f"  peak marked places   {self.peak_marked_places}",
            f"  combinational phase  {self.combinational_seconds * 1e3:.2f} ms",
            f"  control phase        {self.control_seconds * 1e3:.2f} ms",
            f"  wall time            {self.wall_seconds * 1e3:.2f} ms"
            f" ({self.steps_per_second:,.0f} steps/s)",
        ]
        lookups = self.total_cache_hits + self.total_cache_misses
        if lookups:
            lines.append(f"  cache hit rate       {self.cache_hit_rate:.1%}"
                         f" ({self.total_cache_hits}/{lookups})")
            for name in sorted(set(self.cache_hits) | set(self.cache_misses)):
                lines.append(
                    f"    {name:<18} {self.cache_hits.get(name, 0)} hits"
                    f" / {self.cache_misses.get(name, 0)} misses")
        return "\n".join(lines)


def profile_simulation(system, environment=None, *, policy=None,
                       max_steps: int = 10_000, strict: bool = True,
                       fast: bool = True, on_limit: str = "raise") -> "Trace":
    """Run one simulation and return its trace with metrics attached.

    Identical to :func:`repro.semantics.simulator.simulate` except that
    the ``fast`` switch is explicit; the returned ``trace.metrics`` is
    never ``None``.
    """
    from .simulator import simulate

    return simulate(system, environment, policy=policy, max_steps=max_steps,
                    strict=strict, fast=fast, on_limit=on_limit)


def traces_equivalent(a: "Trace", b: "Trace") -> bool:
    """Observational equality of two traces (metrics excluded).

    Compares everything a run can externally exhibit: events, fired
    steps, latches, conflicts, final marking/state, and the termination
    verdict.  This is the drop-in criterion for the fast path.
    """
    return (a.events == b.events
            and a.steps == b.steps
            and a.latches == b.latches
            and a.conflicts == b.conflicts
            and a.final_marking == b.final_marking
            and a.final_state == b.final_state
            and a.terminated == b.terminated
            and a.deadlocked == b.deadlocked
            and a.step_count == b.step_count)


def compare_paths(system, environment=None, *,
                  policy_factory: Callable[[], object] | None = None,
                  max_steps: int = 10_000, strict: bool = True,
                  on_limit: str = "raise") -> dict:
    """Race the naive evaluator against the default engine.

    The ``fast`` run takes whatever engine :class:`~repro.semantics.
    simulator.Simulator` picks for it — the compiled lane for the
    default policies.  Both runs see forked copies of ``environment``
    and fresh policy instances (``policy_factory`` defaults to
    :class:`~repro.semantics.policies.MaximalStepPolicy`).  Returns a
    JSON-ready report::

        {"identical": bool,          # traces observationally equal
         "speedup": float,           # naive wall time / default wall time
         "naive": {...metrics...},
         "fast": {...metrics...}}
    """
    from .environment import Environment
    from .policies import MaximalStepPolicy
    from .simulator import Simulator

    factory = policy_factory or MaximalStepPolicy
    base = environment if environment is not None else Environment()
    naive = Simulator(system, base.fork(), factory(), strict, False).run(
        max_steps=max_steps, on_limit=on_limit)
    fast = Simulator(system, base.fork(), factory(), strict, True).run(
        max_steps=max_steps, on_limit=on_limit)
    assert naive.metrics is not None and fast.metrics is not None
    speedup = (naive.metrics.wall_seconds / fast.metrics.wall_seconds
               if fast.metrics.wall_seconds > 0 else 0.0)
    return {
        "identical": traces_equivalent(naive, fast),
        "speedup": speedup,
        "naive": naive.metrics.as_dict(),
        "fast": fast.metrics.as_dict(),
    }
