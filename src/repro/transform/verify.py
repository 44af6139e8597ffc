"""Transformation verification utilities.

Structural checkers live next to their definitions in
:mod:`repro.core.equivalence`; this module layers the *behavioural*
verification on top: simulate both systems against the same environments
(and several firing policies) and compare external event structures —
the executable statement of Theorems 4.1 and 4.2.

Two backends: ``"explicit"`` runs the interpreter under the full default
policy battery (maximal, sequential, three random seeds); ``"symbolic"``
routes every extraction through the compiled vector engine
(:mod:`repro.semantics.vector`) with the deterministic policy battery the
vector backend supports — far faster on wide systems, and the explicit
backend remains the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.system import DataControlSystem
from ..errors import ValidationError
from ..semantics.environment import Environment
from ..semantics.event_structure import (
    default_policy_sweep,
    event_structure_from_trace,
    extract_event_structure,
)


@dataclass
class BehaviouralReport:
    """Result of a behavioural equivalence sweep."""

    equivalent: bool
    environments_checked: int = 0
    policies_checked: int = 0
    failure: str = ""
    backend: str = "explicit"

    def __bool__(self) -> bool:
        return self.equivalent


def _vector_policy_sweep():
    """The deterministic battery the compiled vector backend supports."""
    from ..semantics.policies import (
        MaximalStepPolicy,
        SeededMaximalPolicy,
        SequentialPolicy,
    )

    return [MaximalStepPolicy(), SequentialPolicy(),
            SeededMaximalPolicy(1), SeededMaximalPolicy(2),
            SeededMaximalPolicy(3)]


def _extract_vector(system: DataControlSystem, environment: Environment,
                    policy, *, max_steps: int):
    """Event structure via the compiled vector engine."""
    from ..semantics.simulator import Simulator

    trace = Simulator(system, environment, policy).run(max_steps=max_steps)
    return event_structure_from_trace(system, trace)


def behaviourally_equivalent(before: DataControlSystem,
                             after: DataControlSystem,
                             environments: Sequence[Environment], *,
                             policies=None,
                             max_steps: int = 10_000,
                             backend: str = "explicit") -> BehaviouralReport:
    """Compare event structures across environments × firing policies.

    Both systems consume forked copies of every environment, and the
    *after* system is additionally exercised under the whole policy
    battery (the *before* system under the default maximal-step policy —
    if ``before`` is properly designed its structure is policy-invariant,
    and comparing each ``after``-policy against it covers both systems).
    """
    if backend not in ("explicit", "symbolic"):
        raise ValidationError(
            f"unknown verification backend {backend!r}: "
            "expected 'explicit' or 'symbolic'")
    if policies is not None:
        battery = list(policies)
    elif backend == "symbolic":
        battery = _vector_policy_sweep()
    else:
        battery = default_policy_sweep()
    checked_policies = 0
    for env_index, environment in enumerate(environments):
        if backend == "symbolic":
            from ..semantics.policies import MaximalStepPolicy

            reference = _extract_vector(before, environment.fork(),
                                        MaximalStepPolicy(),
                                        max_steps=max_steps)
        else:
            reference = extract_event_structure(before, environment.fork(),
                                                max_steps=max_steps)
        for policy in battery:
            if backend == "symbolic":
                candidate = _extract_vector(after, environment.fork(),
                                            policy, max_steps=max_steps)
            else:
                candidate = extract_event_structure(after,
                                                    environment.fork(),
                                                    policy=policy,
                                                    max_steps=max_steps)
            checked_policies += 1
            if not reference.semantically_equal(candidate):
                difference = reference.explain_difference(candidate)
                return BehaviouralReport(
                    False, env_index + 1, checked_policies,
                    f"environment #{env_index}: {difference}",
                    backend=backend,
                )
    return BehaviouralReport(True, len(environments), checked_policies,
                             backend=backend)


def assert_behaviourally_equivalent(before: DataControlSystem,
                                    after: DataControlSystem,
                                    environments: Sequence[Environment], *,
                                    max_steps: int = 10_000,
                                    backend: str = "explicit") -> None:
    """Raise :class:`AssertionError` with the diff if the sweep fails."""
    report = behaviourally_equivalent(before, after, environments,
                                      max_steps=max_steps, backend=backend)
    if not report:
        raise AssertionError(
            f"systems are not behaviourally equivalent: {report.failure}"
        )
