"""Fault campaigns: verdict oracle, journal resume, job integration."""

import pytest

from repro.designs import get_design
from repro.faults import (
    CampaignReport,
    FaultSpec,
    deviation_count,
    event_structure_digest,
    generate_faults,
    run_campaign,
    run_single_fault,
    watchdog_budget,
)
from repro.core.events import EventStructure
from repro.runtime import execute_job, faults_job
from repro.semantics import simulate
from repro.semantics.event_structure import event_structure_from_trace


def _design(name):
    design = get_design(name)
    return design.build(), design.environment()


# One detected-with-latency case and one masked case per fault class,
# verified against the zoo designs.  Format:
#   (design, spec, expected_rule, expected_latency)  for detections
#   (design, spec)                                   for masked faults
DETECTED_CASES = [
    ("gcd", FaultSpec("stuck_at", "not1.o", value=1, start=0),
     "RT003", 3),
    ("counter", FaultSpec("bit_flip", "reg_limit.q", bit=20, start=3,
                          once=True),
     "RT005", 85),
    ("traffic", FaultSpec("token_loss", "s4_assign_ns", start=0),
     "RT006", 1),
    ("gcd", FaultSpec("token_duplicate", "s0_entry", start=0, end=0),
     "RT001", 0),
    ("traffic", FaultSpec("token_misroute", "s4_assign_ns",
                          to_place="s6_assign_ew", start=0),
     "RT001", 0),
    ("gcd", FaultSpec("guard_invert", "t_exit6", start=0),
     "RT003", 3),
    ("gcd", FaultSpec("arc_open", "a0", while_place="s5_assign_a"),
     "RT002", 0),
    ("gcd", FaultSpec("arc_close", "a2", start=0),
     "RT006", 3),
]

MASKED_CASES = [
    ("gcd", FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3)),
    ("counter", FaultSpec("bit_flip", "count.snk", bit=0, start=3,
                          once=True)),
    ("gcd", FaultSpec("token_loss", "s3_while", start=9999)),
    ("gcd", FaultSpec("token_duplicate", "s0_entry", start=1, end=1)),
    ("traffic", FaultSpec("token_misroute", "s4_assign_ns",
                          to_place="s6_assign_ew", start=9999)),
    ("gcd", FaultSpec("guard_invert", "t_then2", start=0, end=2)),
    ("gcd", FaultSpec("arc_open", "a2", while_place="s3_while")),
    ("gcd", FaultSpec("arc_close", "a0", start=3)),
]


def _case_id(case):
    return f"{case[1].kind}:{case[1].target}"


class TestVerdictMatrix:
    @pytest.mark.parametrize("design,spec,rule,latency", DETECTED_CASES,
                             ids=[_case_id(c) for c in DETECTED_CASES])
    def test_detected_with_latency(self, design, spec, rule, latency):
        system, env = _design(design)
        payload = run_single_fault(system, spec, env)
        assert payload["verdict"] == "detected"
        assert rule in payload["detected_by"]
        assert payload["detection_latency"] == latency
        assert payload["detection_step"] == (
            payload["first_injection_step"] + latency)

    @pytest.mark.parametrize("design,spec", MASKED_CASES,
                             ids=[_case_id(c) for c in MASKED_CASES])
    def test_masked(self, design, spec):
        system, env = _design(design)
        payload = run_single_fault(system, spec, env)
        assert payload["verdict"] == "masked"
        assert payload["findings"] == []
        assert payload["deviation_events"] == 0


class TestOracle:
    def test_digest_stable_and_sensitive(self):
        system, env = _design("gcd")
        structure = event_structure_from_trace(
            system, simulate(system, env.fork()))
        assert event_structure_digest(structure) == \
            event_structure_digest(structure)
        empty = EventStructure((), frozenset(), frozenset())
        assert event_structure_digest(structure) != \
            event_structure_digest(empty)

    def test_deviation_count(self):
        system, env = _design("gcd")
        structure = event_structure_from_trace(
            system, simulate(system, env.fork()))
        assert deviation_count(structure, structure) == 0
        empty = EventStructure((), frozenset(), frozenset())
        # every golden value is a deviation against an empty faulty run
        total = sum(len(vs) for vs in structure.value_sequences().values())
        assert deviation_count(structure, empty) == total

    def test_watchdog_budget_clamps(self):
        assert watchdog_budget(0, 10_000) == 16
        assert watchdog_budget(14, 10_000) == 72
        assert watchdog_budget(5_000, 100) == 100


class TestCampaign:
    FAULTS = [
        FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3),  # masked
        FaultSpec("guard_invert", "t_exit6", start=0),            # detected
        FaultSpec("token_duplicate", "s0_entry", start=0, end=0),  # detected
        FaultSpec("arc_close", "a2", start=0),                    # detected
        FaultSpec("token_loss", "s3_while", start=0),             # silent
    ]

    def test_counts_and_exit_code(self):
        system, env = _design("gcd")
        report = run_campaign(system, self.FAULTS, env, seed=3)
        assert report.complete
        assert len(report.results) == len(self.FAULTS)
        assert report.counts == {"masked": 1, "detected": 3, "silent": 1,
                                 "error": 0}
        assert report.exit_code == 1  # silent corruption present
        assert not report.ok

    def test_report_round_trip(self):
        system, env = _design("gcd")
        report = run_campaign(system, self.FAULTS[:2], env, seed=3)
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        text = report.to_text()
        assert "detected" in text and "masked" in text

    def test_generated_campaign_runs(self):
        system, env = _design("gcd")
        faults = generate_faults(system, 6, seed=2)
        report = run_campaign(system, faults, env, seed=2)
        assert len(report.results) == 6
        assert all(r["verdict"] in ("masked", "detected", "silent")
                   for r in report.results)

    # ------------------------------------------------------------------
    # write-ahead journal resume
    # ------------------------------------------------------------------
    def test_journal_resume_identical_without_redispatch(self, tmp_path):
        from repro.runtime import ExecutionEngine, read_journal

        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")

        straight = run_campaign(system, self.FAULTS, env, seed=7)

        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, limit=2)
        assert not partial.complete
        records = read_journal(journal)
        assert records[0]["type"] == "campaign"
        assert sum(r["type"] == "verdict" for r in records) == 2

        with ExecutionEngine() as engine:
            resumed = run_campaign(system, self.FAULTS, env, seed=7,
                                   engine=engine, journal_path=journal,
                                   resume=True)
        assert resumed.complete
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]
        # only the three missing faults were dispatched on resume
        assert engine.metrics.jobs == len(self.FAULTS) - 2

        # a second resume dispatches nothing at all
        with ExecutionEngine() as engine:
            again = run_campaign(system, self.FAULTS, env, seed=7,
                                 engine=engine, journal_path=journal,
                                 resume=True)
        assert again.to_dict()["results"] == straight.to_dict()["results"]
        assert engine.metrics is None  # engine.run never called

    def test_journal_resume_survives_torn_tail(self, tmp_path):
        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(system, self.FAULTS, env, seed=7,
                     journal_path=journal, limit=2)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "sha": "00", "rec": {"type": "verd')
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, resume=True)
        straight = run_campaign(system, self.FAULTS, env, seed=7)
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]

    def test_journal_config_mismatch_refused(self, tmp_path):
        from repro.errors import PersistenceError

        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(system, self.FAULTS, env, seed=7,
                     journal_path=journal, limit=1)
        with pytest.raises(PersistenceError, match="different campaign"):
            run_campaign(system, self.FAULTS, env, seed=8,
                         journal_path=journal, resume=True)

    def test_stop_event_interrupts_and_resume_completes(self, tmp_path):
        import threading

        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        stop = threading.Event()
        stop.set()
        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, stop_event=stop)
        assert not partial.complete
        assert partial.results == []  # interrupted jobs are not verdicts
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, resume=True)
        straight = run_campaign(system, self.FAULTS, env, seed=7)
        assert resumed.complete
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]


class TestFaultsJob:
    def test_execute_job_matches_direct_run(self):
        system, env = _design("gcd")
        spec = FaultSpec("guard_invert", "t_exit6", start=0, seed=1)
        job = faults_job(system, [spec], env)
        assert job.kind == "faults"
        outcome = execute_job(job.to_dict())
        direct = run_single_fault(system, spec, env)
        (entry,) = outcome["payload"]["entries"]
        assert {k: v for k, v in entry.items() if k != "key"} == direct

    def test_key_stable_and_fault_sensitive(self):
        system, env = _design("gcd")
        spec = FaultSpec("guard_invert", "t_exit6", start=0, seed=1)
        other = FaultSpec("guard_invert", "t_exit6", start=1, seed=1)
        assert faults_job(system, [spec], env).key == \
            faults_job(system, [spec], env).key
        assert faults_job(system, [spec], env).key != \
            faults_job(system, [other], env).key

    def test_bad_target_rejected_eagerly(self):
        from repro.errors import DefinitionError
        system, env = _design("gcd")
        with pytest.raises(DefinitionError):
            faults_job(system, [FaultSpec("token_loss", "nowhere")], env)


class TestVectorBackend:
    """``backend="vector"``: multi-fault chunks, identical campaign."""

    FAULTS = TestCampaign.FAULTS

    def test_report_identical_to_interpreter(self):
        system, env = _design("gcd")
        interp = run_campaign(system, self.FAULTS, env, seed=3)
        vector = run_campaign(system, self.FAULTS, env, seed=3,
                              backend="vector")
        assert vector.to_dict() == interp.to_dict()

    def test_generated_faults_identical(self):
        system, env = _design("gcd")
        faults = generate_faults(system, 20, seed=2)  # > one 16-chunk
        interp = run_campaign(system, faults, env, seed=2)
        vector = run_campaign(system, faults, env, seed=2,
                              backend="vector")
        assert vector.to_dict() == interp.to_dict()

    def test_unknown_backend_rejected(self):
        from repro.errors import DefinitionError
        system, env = _design("gcd")
        with pytest.raises(DefinitionError, match="unknown campaign "
                                                  "backend"):
            run_campaign(system, self.FAULTS, env, backend="cuda")

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_chunk_size_never_changes_verdicts_or_journal(self, tmp_path,
                                                          chunk_size):
        """chunk_size is throughput-only: reports and WALs are invariant."""
        system, env = _design("gcd")
        faults = generate_faults(system, 7, seed=2)  # spans chunks at 1, 3

        baseline_journal = str(tmp_path / "baseline.jsonl")
        baseline = run_campaign(system, faults, env, seed=2,
                                journal_path=baseline_journal,
                                backend="vector")  # default chunk of 16
        chunked_journal = str(tmp_path / f"chunk{chunk_size}.jsonl")
        chunked = run_campaign(system, faults, env, seed=2,
                               journal_path=chunked_journal,
                               backend="vector", chunk_size=chunk_size)

        assert chunked.to_dict() == baseline.to_dict()
        from repro.runtime.durable import read_journal

        def verdict_map(path):
            return {r["key"]: r["entry"] for r in read_journal(path)
                    if r.get("type") == "verdict"}

        assert verdict_map(chunked_journal) == verdict_map(baseline_journal)

    @pytest.mark.parametrize("chunk_size", [1, 3, 16, 64])
    def test_journal_identical_to_interpreter(self, tmp_path, chunk_size):
        """Both backends journal the same records in the same order."""
        from repro.runtime.durable import read_journal

        system, env = _design("gcd")
        faults = generate_faults(system, 7, seed=2)
        journals = {}
        for backend in ("interpreter", "vector"):
            journals[backend] = str(tmp_path / f"{backend}.jsonl")
            run_campaign(system, faults, env, seed=2,
                         journal_path=journals[backend], backend=backend,
                         chunk_size=chunk_size)
        assert read_journal(journals["vector"]) == \
            read_journal(journals["interpreter"])

    def test_chunk_size_must_be_positive(self):
        from repro.errors import DefinitionError
        system, env = _design("gcd")
        with pytest.raises(DefinitionError, match="chunk_size"):
            run_campaign(system, self.FAULTS, env, backend="vector",
                         chunk_size=0)

    def test_journal_interop_across_backends(self, tmp_path):
        """A journal written by one backend resumes under the other."""
        system, env = _design("gcd")
        straight = run_campaign(system, self.FAULTS, env, seed=7)

        j1 = str(tmp_path / "interp.jsonl")
        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=j1, limit=2)
        assert not partial.complete
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=j1, resume=True,
                               backend="vector")
        assert resumed.complete
        assert resumed.to_dict()["results"] == \
            straight.to_dict()["results"]

        j2 = str(tmp_path / "vector.jsonl")
        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=j2, limit=3,
                               backend="vector")
        assert not partial.complete
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=j2, resume=True)
        assert resumed.complete
        assert resumed.to_dict()["results"] == \
            straight.to_dict()["results"]

