"""Multi-fault ``faults`` jobs: many fault experiments, one golden run.

The contract: a job carrying several faults is a *batch of one-fault
jobs*.  Its payload carries one entry per fault, equal to the entry the
same fault gets in a job of its own, and stamped with a per-fault key
that depends on neither the backend nor how faults are grouped — so
caches and campaign journals interoperate across backends and chunk
sizes.
"""

import pytest

from repro.designs import get_design
from repro.errors import DefinitionError
from repro.faults import FaultSpec, run_single_fault
from repro.runtime import execute_job, faults_job
from repro.runtime.jobs import fault_keys


def _design(name):
    design = get_design(name)
    return design, design.build()


class TestFaultsMode:
    FAULTS = [
        FaultSpec("guard_invert", "t_exit6", start=0),
        FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3),
        FaultSpec("token_loss", "s3_while", start=0),
    ]

    def test_entries_match_classic_fault_jobs(self):
        """Chunk entries equal the entries of one-fault jobs."""
        design, system = _design("gcd")
        env = design.environment()
        singles = [execute_job(faults_job(system, [fault], env,
                                          campaign_seed=3).to_dict())
                   for fault in self.FAULTS]
        for backend in ("interpreter", "vector"):
            chunk = faults_job(system, self.FAULTS, env, campaign_seed=3,
                               backend=backend)
            entries = execute_job(chunk.to_dict())["payload"]["entries"]
            assert entries == [entry for single in singles
                               for entry in single["payload"]["entries"]]

    def test_keys_ignore_backend_and_grouping(self):
        design, system = _design("gcd")
        env = design.environment()
        jobs = [faults_job(system, self.FAULTS, env, backend=backend)
                for backend in ("interpreter", "vector")]
        assert jobs[0].key != jobs[1].key  # distinct cached results...
        keys = fault_keys(jobs[0].system, jobs[0].params)
        assert keys == fault_keys(jobs[1].system, jobs[1].params)
        singles = [faults_job(system, [fault], env) for fault in self.FAULTS]
        assert keys == [fault_keys(job.system, job.params)[0]
                        for job in singles]  # ...the same fault keys

    def test_golden_handoff_does_not_change_payload(self):
        """_golden is pure memoization: same payload with or without."""
        design, system = _design("gcd")
        env = design.environment()
        direct = run_single_fault(system, self.FAULTS[0], env,
                                  campaign_seed=3)
        for backend in ("interpreter", "vector"):
            job = faults_job(system, self.FAULTS[:1], env, campaign_seed=3,
                             backend=backend)
            (entry,) = execute_job(job.to_dict())["payload"]["entries"]
            assert {k: v for k, v in entry.items() if k != "key"} == direct

    def test_invalid_fault_rejected_at_submission(self):
        design, system = _design("gcd")
        with pytest.raises(DefinitionError):
            faults_job(system, [FaultSpec("token_loss", "no_such_place")],
                       design.environment())
        with pytest.raises(DefinitionError, match="unknown faults backend"):
            faults_job(system, self.FAULTS, design.environment(),
                       backend="cuda")

    def test_label_defaults_to_size(self):
        design, system = _design("gcd")
        job = faults_job(system, self.FAULTS, design.environment())
        assert "3 faults" in job.label
        single = faults_job(system, self.FAULTS[:1], design.environment())
        assert single.label == self.FAULTS[0].describe()

