"""Fuzz campaign orchestration: generate → oracle → shrink → triage.

:func:`run_fuzz` drives one campaign: it derives per-case seeds from the
campaign seed (:func:`~repro.fuzz.generate.case_seed`, so campaigns
shard cleanly across batch jobs), generates each case, runs the selected
differential oracles, delta-debugs every new divergence down to a
minimal repro, and buckets results by fingerprint.

The resulting :class:`FuzzReport` separates the **deterministic
payload** (cases run, divergence records with shrunk repros, bucket and
skip counters — a pure function of the config) from
**wall-clock metrics** (elapsed seconds, cases per second).  The ``fuzz``
job kind caches only the payload, which is what makes fuzz campaigns
content-addressable: same seed, same verdicts, same fingerprints,
locally or over the batch engine and the HTTP service.

``time_budget`` truncates a campaign early; a truncated report says so
(``truncated: true``) and is *not* a pure function of the config, which
is why the job-kind constructor deliberately does not expose it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ReproError
from .generate import FuzzCase, GeneratorConfig, case_seed, generate_case
from .oracles import ORACLES, Divergence, run_oracles
from .shrink import shrink_case


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one campaign (JSON-safe, content-addressable)."""

    seed: int = 0
    cases: int = 200
    offset: int = 0
    min_places: int = 4
    max_places: int = 24
    mutation_rate: float = 0.25
    quirk_rate: float = 0.06
    oracles: tuple[str, ...] = ORACLES
    shrink: bool = True
    max_steps: int = 256
    max_markings: int = 4096
    analysis_place_limit: int = 40
    time_budget: float | None = None

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(min_places=self.min_places,
                               max_places=self.max_places,
                               mutation_rate=self.mutation_rate,
                               quirk_rate=self.quirk_rate)

    def to_params(self) -> dict[str, Any]:
        """JSON-safe parameter dict (job key material; no time budget)."""
        return {
            "seed": self.seed, "cases": self.cases, "offset": self.offset,
            "min_places": self.min_places, "max_places": self.max_places,
            "mutation_rate": self.mutation_rate,
            "quirk_rate": self.quirk_rate,
            "oracles": list(self.oracles), "shrink": self.shrink,
            "max_steps": self.max_steps,
            "max_markings": self.max_markings,
            "analysis_place_limit": self.analysis_place_limit,
        }

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "FuzzConfig":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in params.items() if k in known}
        if "oracles" in kwargs:
            kwargs["oracles"] = tuple(kwargs["oracles"])
        return cls(**kwargs)


@dataclass
class FuzzReport:
    """Everything one campaign observed."""

    config: FuzzConfig
    cases_run: int = 0
    truncated: bool = False
    divergences: list[dict[str, Any]] = field(default_factory=list)
    buckets: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    shrink_steps: int = 0
    elapsed_seconds: float = 0.0

    @property
    def cases_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.cases_run / self.elapsed_seconds

    @property
    def ok(self) -> bool:
        return not self.divergences

    def payload(self) -> dict[str, Any]:
        """The deterministic part (what the ``fuzz`` job kind caches)."""
        return {
            "config": self.config.to_params(),
            "cases": self.cases_run,
            "truncated": self.truncated,
            "divergences": sorted(
                self.divergences,
                key=lambda d: (d["fingerprint"], d["seed"])),
            "buckets": dict(sorted(self.buckets.items())),
            "skipped": dict(sorted(self.skipped.items())),
            "shrink_steps": self.shrink_steps,
        }

    def metrics(self) -> dict[str, Any]:
        """Wall-clock observability (never content-addressed)."""
        from ..semantics.profile import SimMetrics

        record = SimMetrics()
        record.wall_seconds = self.elapsed_seconds
        return record.as_dict()

    def to_dict(self) -> dict[str, Any]:
        """Payload plus wall-clock figures, for human-facing output."""
        return dict(self.payload(),
                    elapsed_seconds=round(self.elapsed_seconds, 3),
                    cases_per_second=round(self.cases_per_second, 1))


# ---------------------------------------------------------------------------
# shrinking plumbing
# ---------------------------------------------------------------------------
def _case_dict(divergence: Divergence, strict: bool) -> dict[str, Any]:
    return {
        "seed": divergence.seed,
        "shape": divergence.shape,
        "mutation": divergence.mutation,
        "strict": strict,
        "system": divergence.system,
        "environment": divergence.environment,
    }


def _rebuild_case(data: dict[str, Any]) -> FuzzCase:
    from ..io.json_io import system_from_dict
    from ..runtime.jobs import _environment_from_dict

    return FuzzCase(
        seed=data.get("seed", 0),
        system=system_from_dict(data["system"]),
        environment=_environment_from_dict(data.get("environment")),
        shape=data.get("shape", "block"),
        mutation=data.get("mutation"),
        strict=bool(data.get("strict", True)))


def _shrink_predicate(config: FuzzConfig, oracle: str,
                      fingerprint: str) -> Callable[[dict[str, Any]], bool]:
    def predicate(data: dict[str, Any]) -> bool:
        try:
            case = _rebuild_case(data)
            report = run_oracles(
                case, oracles=(oracle,), max_steps=config.max_steps,
                analysis_place_limit=config.analysis_place_limit,
                max_markings=config.max_markings)
        except (ReproError, KeyError, ValueError, TypeError,
                AttributeError, IndexError):
            return False  # candidate is malformed, not a smaller repro
        return fingerprint in {d.fingerprint for d in report.divergences}
    return predicate


def shrink_divergence(divergence: Divergence, config: FuzzConfig,
                      strict: bool) -> tuple[dict[str, Any], int]:
    """Delta-debug one divergence; return (shrunk case dict, steps)."""
    predicate = _shrink_predicate(config, divergence.oracle,
                                  divergence.fingerprint)
    return shrink_case(_case_dict(divergence, strict), predicate)


# ---------------------------------------------------------------------------
# the campaign loop
# ---------------------------------------------------------------------------
def run_fuzz(config: FuzzConfig | None = None, *,
             progress: Callable[[int, FuzzReport], None] | None = None
             ) -> FuzzReport:
    """Run one fuzz campaign; deterministic for a fixed config.

    ``progress`` (if given) is called after every case with the running
    index and the report so far — the CLI uses it for live output.
    """
    config = config or FuzzConfig()
    report = FuzzReport(config=config)
    generator_config = config.generator_config()
    start = time.perf_counter()

    for index in range(config.cases):
        if (config.time_budget is not None
                and time.perf_counter() - start > config.time_budget):
            report.truncated = True
            break
        seed = case_seed(config.seed, config.offset + index)
        case = generate_case(seed, generator_config)
        oracle_report = run_oracles(
            case, oracles=config.oracles, max_steps=config.max_steps,
            analysis_place_limit=config.analysis_place_limit,
            max_markings=config.max_markings)
        report.cases_run += 1
        for name in oracle_report.skipped:
            report.skipped[name] = report.skipped.get(name, 0) + 1
        for divergence in oracle_report.divergences:
            fingerprint = divergence.fingerprint
            first_in_bucket = fingerprint not in report.buckets
            report.buckets[fingerprint] = \
                report.buckets.get(fingerprint, 0) + 1
            record = divergence.as_dict()
            record["shrunk"] = None
            record["shrink_steps"] = 0
            if config.shrink and first_in_bucket:
                shrunk, steps = shrink_divergence(divergence, config,
                                                  case.strict)
                record["shrunk"] = {"system": shrunk["system"],
                                    "environment": shrunk["environment"]}
                record["shrink_steps"] = steps
                report.shrink_steps += steps
            if first_in_bucket:
                report.divergences.append(record)
        if progress is not None:
            progress(index, report)

    report.elapsed_seconds = time.perf_counter() - start
    return report
