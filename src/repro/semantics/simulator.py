"""The execution engine — Definition 3.1 made operational.

One simulation **step** is a two-phase affair:

1. **Combinational phase.**  The marking determines the set of *open*
   arcs (``C(S)`` for every marked ``S``).  Values propagate from
   state-holding ports (registers, environment pads) through the open
   arcs and combinational vertices to a fixpoint.  Because properly
   designed systems have no combinational loop inside a control state
   (Definition 3.2(4)), the fixpoint is a single topological pass.

2. **Control phase.**  Guards are evaluated on the fixpoint
   (Definition 3.1(4), OR over multiple guard ports); the firing policy
   picks a conflict-free step of fireable transitions; the step fires
   (Definition 3.1(5)).  Every place losing its token *completes an
   activation*: the sequential vertices it drives **latch** the value
   present at their input port ("the last defined value of the
   expression", Definition 3.1(9)), and the external arcs it controls
   emit **external events** stamped with the activation interval
   (Definition 3.4: the event happens while the state holds its token).

Undefined values (Definition 3.1(10)) arise when an input port has no
active arc, or combinationally from an undefined input.  A register whose
input is undefined at latch time *keeps its previous value* — the "last
defined value" reading.

Execution terminates when no tokens remain (Definition 3.1(6)); a
quiescent marking with tokens remaining is reported as a deadlock.
Activations still open at quiescence are flushed so their events are
observed (a terminal output state's event must not be lost).

How the engine is chosen
------------------------

The run itself picks its engine; there is no user-set switch.  A run
with ``fast=True`` (the default), no hook attached and one of the
policies the compiler emulates exactly
(:class:`~repro.semantics.policies.MaximalStepPolicy`,
:class:`~repro.semantics.policies.SequentialPolicy`,
:class:`~repro.semantics.policies.SeededMaximalPolicy`) executes on the
**compiled scalar lane**: the system is lowered once per
:class:`Simulator` by :mod:`repro.semantics.vector` and advanced as a
one-lane batch, reused across that simulator's runs.  Every other run
takes the step loop in this module:

* ``fast=False`` — the naive full-recompute evaluator, kept as the
  paper-faithful reference semantics;
* a hooked run, or any other policy — the **incremental fast path**.
  It memoizes everything the marking determines (the open-arc set, the
  restricted topological COM order with its consumer adjacency, and the
  drive-conflict analysis, all keyed by the frozen set of marked
  places) and replaces the full combinational pass with **dirty-set
  propagation**: only vertices downstream of arcs whose open/closed
  status changed, or of state ports whose value changed (latches,
  environment draws, pokes), are re-evaluated, in the cached
  topological order.  The first visit to an open-arc set falls back to
  a full pass, which re-bases the persistent value map.

All three engines produce the same
:class:`~repro.semantics.trace.Trace`, and every trace carries a
:class:`~repro.semantics.profile.SimMetrics` record of what the run
cost (its summary names the engine that ran).

Hooks
-----

Fault injectors and runtime monitors (:mod:`repro.faults`) attach to the
simulator through :class:`SimHook` — four optional methods called at
fixed points of the step loop (``pre_step``, ``post_evaluate``,
``resolve_value``, ``post_token_game``).  The contract that keeps the
fast path honest: hook dispatch is bound in ``__post_init__`` per
*overridden* method, so a simulator constructed without hooks executes
the exact same per-step code as before the hook interface existed (one
falsy check per call site), and traces are byte-identical.  A hook that
rewrites combinational values (``perturbs_values = True``) disables
dirty-set propagation for the whole run — every step takes the full
reference pass, so the persistent value map can never go stale under
injected values.

Checkpoints
-----------

:meth:`Simulator.checkpoint` captures the complete mutable run state —
``(step, marking, sequential state, open activations, event indices,
environment cursors)`` — and :meth:`Simulator.run` accepts
``from_checkpoint=`` to resume from such a snapshot: the continuation
trace extends the original run exactly (same events, same latches, same
final state) as if it had never been interrupted.  Snapshots also
capture a seeded firing policy's RNG stream position, so resumed
nondeterminism replays deterministically.  :mod:`repro.runtime.durable`
serialises checkpoints to disk (versioned, integrity-hashed) and offers
:class:`~repro.runtime.durable.CheckpointHook`, a :class:`SimHook` that
persists a snapshot every N steps — the crash-safety story for
long-running simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

from ..core.events import ExternalEvent
from ..core.system import DataControlSystem
from ..datapath.operations import OpKind
from ..datapath.ports import PortId
from ..datapath.validate import topological_com_order
from ..errors import DefinitionError, ExecutionError, RuntimeFaultError, ValidationError
from ..petri.execution import TokenGameCache, fire_step, is_enabled
from ..petri.marking import Marking
from .environment import Environment
from .policies import FiringPolicy, MaximalStepPolicy
from .profile import SimMetrics
from .trace import ConflictRecord, LatchRecord, Trace
from .values import UNDEF, Value, truthy

#: One conflict-analysis entry: (conflicted input port, record detail).
_ConflictEntry = tuple[PortId, str]


@dataclass(frozen=True)
class StepPerturbation:
    """What a ``pre_step`` hook asks the simulator to change this step.

    ``marking`` (when not None) replaces the current marking — token
    loss, duplication and misrouting faults are expressed this way; the
    simulator reconciles open activations afterwards (an activation
    whose token vanished is dropped, events unemitted — that *is* the
    fault's observable damage — and a place gaining a token out of thin
    air opens a fresh activation).  ``open_arcs`` / ``close_arcs`` are
    applied to the open-arc set *after* the marking determines it — arc
    glitches that never touch the marking-keyed caches.
    """

    marking: Marking | None = None
    open_arcs: frozenset = frozenset()
    close_arcs: frozenset = frozenset()


class SimHook:
    """Base class for simulator instrumentation (faults and monitors).

    Subclasses override any of the four methods; the simulator binds
    only overridden methods, so an unused method costs nothing.  Hooks
    run in the order given to the :class:`Simulator`; each ``pre_step``
    hook sees the marking as perturbed by the hooks before it.

    Set :attr:`perturbs_values` to True when ``resolve_value`` rewrites
    combinational **port** values (e.g. stuck-at faults): it forces the
    full reference pass every step so no stale incremental value
    survives an injection window.  Guard-only rewrites (``kind ==
    "guard"``) do not need it.
    """

    #: True when this hook rewrites combinational port values.
    perturbs_values: bool = False

    def pre_step(self, sim: "Simulator", step: int,
                 marking: Marking) -> StepPerturbation | None:
        """Called before each step's combinational phase (may perturb)."""
        return None

    def post_evaluate(self, sim: "Simulator", step: int,
                      active: frozenset, out_values: dict) -> None:
        """Called after the combinational fixpoint of each step."""

    def resolve_value(self, sim: "Simulator", step: int, kind: str,
                      target, value: Value) -> Value:
        """Value tap: ``kind`` is ``"port"`` (target: :class:`PortId`,
        needs :attr:`perturbs_values`) or ``"guard"`` (target: the
        transition name, value: the evaluated guard boolean)."""
        return value

    def post_token_game(self, sim: "Simulator", step: int, marking: Marking,
                        chosen: list) -> None:
        """Called after the policy chose the step to fire (before firing).

        An empty ``chosen`` with a non-empty marking is the deadlock
        about to be reported — the last call of the run."""


@dataclass(frozen=True)
class Checkpoint:
    """Complete mutable state of a simulation run at one step boundary.

    Captured by :meth:`Simulator.checkpoint`, consumed by
    :meth:`Simulator.run(from_checkpoint=...) <Simulator.run>`.  The
    snapshot is self-contained: sequential state, open activations (with
    their identities and start steps, so resumed events carry the same
    activation labels), per-arc event indices, the environment's
    consumption cursors, and — when the firing policy draws from a
    seeded RNG (:class:`~repro.semantics.policies.SeededMaximalPolicy`)
    — the RNG's exact stream position, so a resumed run makes the same
    conflict-resolution choices the uninterrupted run would have made.
    """

    step: int
    marking: Marking
    state: Mapping[PortId, Value]
    activations: tuple[tuple[str, int, int], ...]  # (place, ident, start)
    activation_counter: int
    event_index: Mapping[str, int]
    env_cursors: Mapping[str, int]
    rng_state: tuple | None = None  # policy RNG state (random.Random)


@dataclass
class _Activation:
    """A token-holding interval of one control state."""

    ident: int
    place: str
    start: int


@dataclass
class Simulator:
    """Single-run executor for a :class:`DataControlSystem`.

    Parameters
    ----------
    system:
        The data/control flow system Γ.  Not mutated.
    environment:
        Value sequences for the input vertices; forked by the caller when
        the same environment is reused across runs.
    policy:
        The firing policy (default: maximal step — synchronous hardware).
    strict:
        When True (default), runtime faults — bus-drive conflicts and
        double latches — raise :class:`~repro.errors.ExecutionError`.
        When False they are recorded in the trace and the affected value
        becomes UNDEF, which lets the analysis tooling *observe* improper
        designs instead of dying on them.
    fast:
        When True (default), run on a fast engine: the compiled scalar
        lane when the run allows it, otherwise the incremental fast path
        (see the module docstring for the choice).  When False,
        recompute everything from scratch each step — the naive
        reference evaluator.  All engines produce identical traces.
    hooks:
        Instrumentation attached to this run (see :class:`SimHook`).
        Empty by default.  A hooked run always takes this module's step
        loop, since hooks observe and perturb its per-step state.
    """

    system: DataControlSystem
    environment: Environment = field(default_factory=Environment)
    policy: FiringPolicy = field(default_factory=MaximalStepPolicy)
    strict: bool = True
    fast: bool = True
    hooks: Sequence[SimHook] = ()

    #: Soft bound on each memo table (markings are typically few; this
    #: only guards against pathological unbounded-marking nets).
    _CACHE_LIMIT = 1 << 16

    def __post_init__(self) -> None:
        from .vector import POLICY_KINDS

        self._vector_sim = None  # compiled lane, built on its first run
        self._dp = self.system.datapath
        self._net = self.system.net
        self._reset_run_state()
        self._external = self.system.external_arc_names()
        # guard-port dependencies are marking-independent: freeze them once
        self._guard_ports = {t: self.system.guard_ports(t)
                             for t in self._net.transitions}
        self._engine = TokenGameCache(self._net)
        if self.fast:
            bind = getattr(self.policy, "bind", None)
            if callable(bind):
                bind(self._engine)
        # fast-path memo tables, keyed by frozen marked-place / open-arc sets
        self._arcs_cache: dict[frozenset[str], frozenset[str]] = {}
        self._topo_cache: dict[
            frozenset[str],
            tuple[tuple[str, ...], dict[PortId, tuple[str, ...]]]] = {}
        self._conflict_cache: dict[
            frozenset[str],
            tuple[tuple[_ConflictEntry, ...], frozenset[PortId]]] = {}
        # incremental-evaluation state (valid between consecutive steps)
        self._out_values: dict[PortId, Value] = {}
        self._prev_active: frozenset[str] | None = None
        self._prev_conflicted: frozenset[PortId] = frozenset()
        self._dirty_state: set[PortId] = set()
        # hook dispatch: bind only *overridden* methods so an absent hook
        # costs one falsy check per call site and nothing else
        self._pre_hooks = []
        self._eval_hooks = []
        self._value_hooks = []
        self._game_hooks = []
        self._force_full = False
        for hook in self.hooks:
            if not isinstance(hook, SimHook):
                raise DefinitionError(
                    f"hook {hook!r} does not subclass SimHook")
            cls = type(hook)
            if cls.pre_step is not SimHook.pre_step:
                self._pre_hooks.append(hook.pre_step)
            if cls.post_evaluate is not SimHook.post_evaluate:
                self._eval_hooks.append(hook.post_evaluate)
            if cls.resolve_value is not SimHook.resolve_value:
                self._value_hooks.append(hook.resolve_value)
            if cls.post_token_game is not SimHook.post_token_game:
                self._game_hooks.append(hook.post_token_game)
            if getattr(hook, "perturbs_values", False):
                self._force_full = True
        self._port_taps = self._force_full and bool(self._value_hooks)
        # exact type: a policy subclass may override ``choose`` arbitrarily
        self._compiled = (self.fast and not self.hooks
                          and type(self.policy) in POLICY_KINDS)
        # run-local state mirrored onto the instance so hooks and
        # checkpoint() can observe it mid-run
        self._current_step = 0
        self._current_marking = self._net.initial_marking()
        self._current_activations: dict[str, _Activation] = {}
        self._arc_overrides: tuple[frozenset[str], frozenset[str]] | None = None
        self.current_trace: Trace | None = None
        self._reset_run_stats()

    def _reset_run_state(self) -> None:
        """Put the run state back at M0: the initial sequential state
        (SEQ ports from vertex init; INPUT 'out' ports and OUTPUT 'snk'
        record ports undefined), no events emitted, no activation
        opened."""
        self._state: dict[PortId, Value] = {}
        for vertex in self._dp.vertices.values():
            for port in vertex.out_ports:
                op = vertex.operation(port)
                if op.kind in (OpKind.SEQ, OpKind.INPUT, OpKind.OUTPUT):
                    self._state[PortId(vertex.name, port)] = vertex.initial_value(port)
        self._event_index: dict[str, int] = {}
        self._activation_counter = 0

    def _reset_run_stats(self) -> None:
        self._hits = {"active_arcs": 0, "com_order": 0, "conflicts": 0}
        self._misses = {"active_arcs": 0, "com_order": 0, "conflicts": 0}
        self._port_evals = 0
        self._dirty_evals = 0
        self._full_passes = 0
        self._incremental_passes = 0

    # ------------------------------------------------------------------
    # combinational phase
    # ------------------------------------------------------------------
    def _active_arcs(self, marked: frozenset[str]) -> frozenset[str]:
        """Open arcs (``C(S)`` for every marked ``S``), memoized."""
        if self.fast:
            cached = self._arcs_cache.get(marked)
            if cached is not None:
                self._hits["active_arcs"] += 1
                return cached
            self._misses["active_arcs"] += 1
        active: set[str] = set()
        for place in marked:
            active.update(self.system.control_arcs(place))
        result = frozenset(active)
        if self.fast and len(self._arcs_cache) < self._CACHE_LIMIT:
            self._arcs_cache[marked] = result
        return result

    def _conflict_analysis(self, active: frozenset[str]
                           ) -> tuple[tuple[_ConflictEntry, ...],
                                      frozenset[PortId]]:
        """Input ports driven by more than one distinct active source."""
        drivers: dict[PortId, set[PortId]] = {}
        for name in active:
            arc = self._dp.arc(name)
            drivers.setdefault(arc.target, set()).add(arc.source)
        entries = tuple(
            (port, f"input port {port} driven by {sorted(map(str, sources))}")
            for port, sources in sorted(drivers.items(),
                                        key=lambda item: str(item[0]))
            if len(sources) > 1
        )
        return entries, frozenset(port for port, _ in entries)

    def _drive_conflicts(self, active: frozenset[str], step: int,
                         trace: Trace) -> frozenset[PortId]:
        """Record this step's drive conflicts; return the conflicted ports."""
        if self.fast:
            cached = self._conflict_cache.get(active)
            if cached is None:
                self._misses["conflicts"] += 1
                cached = self._conflict_analysis(active)
                if len(self._conflict_cache) < self._CACHE_LIMIT:
                    self._conflict_cache[active] = cached
            else:
                self._hits["conflicts"] += 1
        else:
            cached = self._conflict_analysis(active)
        entries, conflicted = cached
        for _port, detail in entries:
            record = ConflictRecord(step, "drive", detail)
            trace.conflicts.append(record)
            if self.strict:
                raise ExecutionError(record.detail)
        return conflicted

    def _topo_order(self, active: frozenset[str]) -> list[str]:
        """Topological COM order, with combinational loops reported as a
        runtime fault (they can only close at runtime through an injected
        arc glitch — statically looping systems fail validation long
        before simulation)."""
        try:
            return topological_com_order(self._dp, active)
        except ValidationError as error:
            raise RuntimeFaultError(
                f"combinational loop closed at step {self._current_step}: "
                f"{error}",
                step=self._current_step, kind="comb_loop") from error

    def _com_topology(self, active: frozenset[str]
                      ) -> tuple[tuple[tuple[str, ...],
                                       dict[PortId, tuple[str, ...]]], bool]:
        """Restricted topological COM order + consumer adjacency, memoized.

        Returns ``((order, consumers), cache_hit)``.  ``consumers`` maps a
        source port to the COM vertices it feeds through *active* arcs —
        the edge relation dirty-set propagation walks.
        """
        cached = self._topo_cache.get(active)
        if cached is not None:
            self._hits["com_order"] += 1
            return cached, True
        self._misses["com_order"] += 1
        order = tuple(self._topo_order(active))
        com = set(order)
        fanout: dict[PortId, list[str]] = {}
        for name in active:
            arc = self._dp.arc(name)
            if arc.target.vertex in com:
                fanout.setdefault(arc.source, []).append(arc.target.vertex)
        result = (order, {src: tuple(dsts) for src, dsts in fanout.items()})
        if len(self._topo_cache) < self._CACHE_LIMIT:
            self._topo_cache[active] = result
        return result, False

    def _full_pass(self, active: frozenset[str], conflicted: frozenset[PortId],
                   order: tuple[str, ...] | list[str]
                   ) -> tuple[dict[PortId, Value], dict[PortId, Value]]:
        """Evaluate every COM vertex from scratch (the reference pass)."""
        out_values: dict[PortId, Value] = dict(self._state)
        in_values: dict[PortId, Value] = {}
        taps = self._port_taps
        if taps:
            # value-perturbing hooks tap every port value, state included
            for port in list(out_values):
                out_values[port] = self._tap_port(port, out_values[port])

        def resolve(port: PortId) -> Value:
            if port in in_values:
                return in_values[port]
            if port in conflicted:
                in_values[port] = UNDEF
                return UNDEF
            value: Value = UNDEF
            for arc in self._dp.arcs_into(port):
                if arc.name in active:
                    value = out_values.get(arc.source, UNDEF)
                    break  # conflicts were pre-detected; one active source
            in_values[port] = value
            return value

        for name in order:
            vertex = self._dp.vertex(name)
            args = [resolve(p) for p in vertex.input_ids()]
            for port in vertex.out_ports:
                self._port_evals += 1
                pid = PortId(name, port)
                value = vertex.operation(port).evaluate(*args)
                if taps:
                    value = self._tap_port(pid, value)
                out_values[pid] = value
        return out_values, in_values

    def _tap_port(self, port: PortId, value: Value) -> Value:
        """Apply every value hook's port tap, in hook order."""
        for resolve in self._value_hooks:
            value = resolve(self, self._current_step, "port", port, value)
        return value

    def _incremental_pass(self, active: frozenset[str],
                          conflicted: frozenset[PortId],
                          order: tuple[str, ...],
                          consumers: dict[PortId, tuple[str, ...]]
                          ) -> tuple[dict[PortId, Value], dict[PortId, Value]]:
        """Re-evaluate only the dirty cone of the persistent value map.

        A vertex is dirty when (a) a state port it consumes changed value
        since the last step, (b) an arc into it flipped open/closed, or
        (c) its drive-conflict status flipped; dirtiness then propagates
        along active arcs, which the cached topological order visits in
        dependency order.  Every untouched port keeps its value from the
        previous fixpoint — by construction that value is exactly what a
        full pass would recompute.
        """
        out_values = self._out_values
        assert self._prev_active is not None
        dirty: set[str] = set()
        for port in self._dirty_state:
            out_values[port] = self._state[port]
            dirty.update(consumers.get(port, ()))
        for name in active.symmetric_difference(self._prev_active):
            target = self._dp.arc(name).target.vertex
            if self._dp.vertex(target).is_combinational:
                dirty.add(target)
        for port in conflicted.symmetric_difference(self._prev_conflicted):
            if self._dp.vertex(port.vertex).is_combinational:
                dirty.add(port.vertex)
        in_values: dict[PortId, Value] = {}

        def resolve(port: PortId) -> Value:
            if port in in_values:
                return in_values[port]
            if port in conflicted:
                in_values[port] = UNDEF
                return UNDEF
            value: Value = UNDEF
            for arc in self._dp.arcs_into(port):
                if arc.name in active:
                    value = out_values.get(arc.source, UNDEF)
                    break
            in_values[port] = value
            return value

        for name in order:
            if name not in dirty:
                continue
            vertex = self._dp.vertex(name)
            args = [resolve(p) for p in vertex.input_ids()]
            for port in vertex.out_ports:
                self._port_evals += 1
                self._dirty_evals += 1
                pid = PortId(name, port)
                new = vertex.operation(port).evaluate(*args)
                if out_values.get(pid, _UNSET) != new:
                    out_values[pid] = new
                    dirty.update(consumers.get(pid, ()))
        return out_values, in_values

    def _evaluate(self, active: frozenset[str], conflicted: frozenset[PortId]
                  ) -> tuple[dict[PortId, Value], dict[PortId, Value]]:
        """Compute the combinational fixpoint.

        Returns ``(out_values, in_values)``: the value present at every
        output port and at every input port under the current marking.
        """
        if not self.fast:
            self._full_passes += 1
            return self._full_pass(active, conflicted,
                                   self._topo_order(active))
        (order, consumers), topo_hit = self._com_topology(active)
        if topo_hit and self._prev_active is not None and not self._force_full:
            self._incremental_passes += 1
            out_values, in_values = self._incremental_pass(
                active, conflicted, order, consumers)
        else:
            # cache miss (or first step): fall back to the full pass,
            # re-basing the persistent value map from the state dict
            self._full_passes += 1
            out_values, in_values = self._full_pass(active, conflicted, order)
            self._out_values = out_values
        self._prev_active = active
        self._prev_conflicted = conflicted
        self._dirty_state.clear()
        return out_values, in_values

    # ------------------------------------------------------------------
    # control phase helpers
    # ------------------------------------------------------------------
    def _guard_eval(self, out_values: dict[PortId, Value]):
        guard_ports = self._guard_ports
        value_hooks = self._value_hooks

        if not value_hooks:
            def evaluate(transition: str) -> bool:
                ports = guard_ports[transition]
                if not ports:
                    return True
                return any(truthy(out_values.get(p, UNDEF)) for p in ports)
            return evaluate

        def evaluate(transition: str) -> bool:
            ports = guard_ports[transition]
            value = (True if not ports
                     else any(truthy(out_values.get(p, UNDEF)) for p in ports))
            for resolve in value_hooks:
                value = bool(resolve(self, self._current_step, "guard",
                                     transition, value))
            return value
        return evaluate

    def _record_choice_conflicts(self, marking: Marking, guard_eval,
                                 step: int, trace: Trace) -> None:
        """Dynamic Definition 3.2(3) check: competing fireable transitions."""
        if self.fast:
            enabled_set = set(self._engine.enabled(marking))

            def enabled(t: str) -> bool:
                return t in enabled_set
        else:
            def enabled(t: str) -> bool:
                return is_enabled(self._net, marking, t)
        # sorted: frozenset iteration order is hash-dependent, and with
        # several conflicted places in one step the record order (and the
        # conflict strict mode raises first) must not vary across runs
        for place in sorted(marking.marked_places()):
            if marking[place] >= 2:
                continue
            fireable = [
                t for t in self._net.postset(place)
                if enabled(t) and guard_eval(t)
            ]
            if len(fireable) > 1:
                trace.conflicts.append(ConflictRecord(
                    step, "choice",
                    f"transitions {sorted(fireable)} compete for the token "
                    f"in place {place!r}",
                ))

    def _start_activations(self, places: list[str], step: int,
                           activations: dict[str, _Activation]) -> None:
        """Open activations and draw environment values for input reads."""
        draw: set[str] = set()
        for place in places:
            self._activation_counter += 1
            activations[place] = _Activation(self._activation_counter, place, step)
            for arc_name in self.system.control_arcs(place):
                source = self._dp.arc(arc_name).source
                if self._dp.vertex(source.vertex).is_input_vertex:
                    draw.add(source.vertex)
        for vertex in sorted(draw):
            port = PortId(vertex, self._dp.vertex(vertex).out_ports[0])
            value = self.environment.draw(vertex)
            if self.fast and self._state.get(port, UNDEF) != value:
                self._dirty_state.add(port)
            self._state[port] = value

    def _complete_activation(self, place: str, step: int,
                             activation: _Activation,
                             out_values: dict[PortId, Value],
                             in_values_resolve,
                             latch_plan: dict[PortId, tuple[Value, str]] | None,
                             trace: Trace) -> None:
        """Emit events and plan latches for a departing control state.

        ``latch_plan=None`` emits events only — used when flushing the
        activations still open at quiescence, whose tokens never depart
        and whose registers therefore never commit.
        """
        arcs = self.system.control_arcs(place)
        # external events (Definition 3.4)
        for arc_name in sorted(arcs & self._external):
            arc = self._dp.arc(arc_name)
            value = out_values.get(arc.source, UNDEF)
            index = self._event_index.get(arc_name, 0)
            self._event_index[arc_name] = index + 1
            trace.events.append(ExternalEvent(
                arc=arc_name, value=value, index=index, state=place,
                activation=activation.ident, start=activation.start, end=step,
            ))
        # latch plan (Definition 3.1(9))
        if latch_plan is None:
            return
        for arc_name in sorted(arcs):
            arc = self._dp.arc(arc_name)
            vertex = self._dp.vertex(arc.target.vertex)
            if not vertex.is_sequential:
                continue
            incoming = in_values_resolve(arc.target)
            for port_name in vertex.out_ports:
                op = vertex.operation(port_name)
                if op.kind not in (OpKind.SEQ, OpKind.OUTPUT):
                    continue
                port = PortId(vertex.name, port_name)
                old = self._state.get(port, UNDEF)
                if op.kind is OpKind.OUTPUT:
                    new = incoming
                elif op.func is None:  # plain register
                    new = incoming if incoming is not UNDEF else old
                else:  # stateful function, e.g. accumulator
                    computed = op.evaluate(old, incoming)
                    new = computed if computed is not UNDEF else old
                if port in latch_plan and latch_plan[port][0] != new:
                    record = ConflictRecord(
                        step, "latch",
                        f"port {port} latched by {latch_plan[port][1]!r} and "
                        f"{place!r} in the same step",
                    )
                    trace.conflicts.append(record)
                    if self.strict:
                        raise ExecutionError(record.detail)
                latch_plan[port] = (new, place)
                trace.latches.append(LatchRecord(step, port, old, new, place))

    # ------------------------------------------------------------------
    # hook and checkpoint plumbing
    # ------------------------------------------------------------------
    def state_value(self, port: PortId) -> Value:
        """Current sequential-state value of a port (UNDEF if stateless)."""
        return self._state.get(port, UNDEF)

    def poke_state(self, port: PortId, value: Value) -> None:
        """Overwrite one sequential state value (SEU-style perturbation).

        Only ports that carry state (SEQ registers, input pads, output
        records) may be poked; the change is flagged dirty so the
        incremental fast path re-evaluates its combinational cone.
        """
        if port not in self._state:
            raise DefinitionError(
                f"port {port} holds no sequential state; only SEQ/INPUT/"
                f"OUTPUT ports can be poked")
        if self.fast and self._state[port] != value:
            self._dirty_state.add(port)
        self._state[port] = value

    def _apply_pre_hooks(self, step: int, marking: Marking,
                         activations: dict[str, _Activation]) -> Marking:
        """Run every pre-step hook; apply marking/arc perturbations."""
        opens: set[str] = set()
        closes: set[str] = set()
        for hook in self._pre_hooks:
            perturbation = hook(self, step, marking)
            if perturbation is None:
                continue
            if (perturbation.marking is not None
                    and perturbation.marking != marking):
                marking = perturbation.marking
                self._reconcile_activations(marking, step, activations)
                self._current_marking = marking
            opens |= perturbation.open_arcs
            closes |= perturbation.close_arcs
        self._arc_overrides = ((frozenset(opens), frozenset(closes))
                               if opens or closes else None)
        return marking

    def _reconcile_activations(self, marking: Marking, step: int,
                               activations: dict[str, _Activation]) -> None:
        """Re-align open activations after a marking perturbation.

        A place that lost its token has its activation dropped *without*
        completing it — the events and latches it would have produced are
        lost, which is exactly the injected fault's damage.  A place that
        gained a token out of thin air opens a fresh activation (drawing
        environment values for any input reads it controls).
        """
        for place in list(activations):
            if marking[place] <= 0:
                del activations[place]
        added = sorted(place for place in marking.marked_places()
                       if place not in activations)
        if added:
            self._start_activations(added, step, activations)

    def _run_vector(self, max_steps: int, on_limit: str,
                    from_checkpoint: Checkpoint | None) -> Trace:
        """Run on the compiled scalar lane (a one-lane vector batch)."""
        from .vector import Lane, VectorSimulator
        if self._vector_sim is None:
            self._vector_sim = VectorSimulator(self.system,
                                               strict=self.strict)
        result = self._vector_sim.run(
            [Lane(self.environment, self.policy)], max_steps=max_steps,
            on_limit=on_limit,
            from_checkpoint=(None if from_checkpoint is None
                             else (from_checkpoint,)))
        return result.trace(0)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the complete mutable run state (see :class:`Checkpoint`).

        Valid at any step boundary: from inside a ``pre_step`` hook
        (capturing the state the step will start from) or after
        :meth:`run` returned with ``on_limit="return"`` (capturing the
        state the next run would continue from).  After a run on the
        compiled lane the snapshot is that lane's; either engine resumes
        from either engine's snapshots.
        """
        if self._vector_sim is not None:  # the compiled lane ran
            return self._vector_sim.checkpoint()[0]
        rng = getattr(self.policy, "_rng", None)
        return Checkpoint(
            step=self._current_step,
            marking=self._current_marking,
            state=dict(self._state),
            activations=tuple(sorted(
                (a.place, a.ident, a.start)
                for a in self._current_activations.values())),
            activation_counter=self._activation_counter,
            event_index=dict(self._event_index),
            env_cursors=self.environment.cursors(),
            rng_state=rng.getstate() if rng is not None else None,
        )

    def _restore(self, checkpoint: Checkpoint
                 ) -> tuple[Marking, dict[str, _Activation], int]:
        """Load a checkpoint into this simulator's mutable state."""
        self._state = dict(checkpoint.state)
        self._event_index = dict(checkpoint.event_index)
        self._activation_counter = checkpoint.activation_counter
        self.environment.restore_cursors(checkpoint.env_cursors)
        if checkpoint.rng_state is not None:
            rng = getattr(self.policy, "_rng", None)
            if rng is not None:
                rng.setstate(checkpoint.rng_state)
        activations = {
            place: _Activation(ident, place, start)
            for place, ident, start in checkpoint.activations
        }
        return checkpoint.marking, activations, checkpoint.step

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, *, max_steps: int = 10_000, on_limit: str = "raise",
            from_checkpoint: Checkpoint | None = None) -> Trace:
        """Execute until termination, deadlock, or the step budget.

        ``on_limit`` — ``"raise"`` (default) raises
        :class:`~repro.errors.ExecutionError` when ``max_steps`` is
        reached; ``"return"`` returns the partial trace instead (with
        neither ``terminated`` nor ``deadlocked`` set).  Both arguments
        are validated eagerly — an unknown ``on_limit`` or a
        non-positive ``max_steps`` raises :class:`ValueError` before any
        stepping happens.  The returned trace carries a fresh
        :class:`~repro.semantics.profile.SimMetrics` for this run.

        ``from_checkpoint`` resumes a run from a
        :meth:`checkpoint` snapshot instead of the initial marking; the
        step counter continues from the snapshot (``max_steps`` stays an
        *absolute* budget), and the continuation trace extends the
        original run exactly.
        """
        if on_limit not in ("raise", "return"):
            raise ValueError(
                f"unknown on_limit {on_limit!r}; choose 'raise' or 'return'")
        if max_steps <= 0:
            raise ValueError(
                f"max_steps must be a positive step budget, got {max_steps}")
        if self._compiled:
            return self._run_vector(max_steps, on_limit, from_checkpoint)
        self._reset_run_stats()
        # force a full-pass re-base on the first step of every run
        self._prev_active = None
        self._dirty_state.clear()
        engine_hits0, engine_misses0 = self._engine.hits, self._engine.misses
        wall_start = perf_counter()
        comb_seconds = 0.0
        ctrl_seconds = 0.0
        peak_marked = 0

        trace = Trace()
        if from_checkpoint is not None:
            marking, activations, step = self._restore(from_checkpoint)
        else:
            self._reset_run_state()
            marking = self._net.initial_marking()
            activations = {}
            self._start_activations(sorted(marking.marked_places()), 0,
                                    activations)
            step = 0
        self.current_trace = trace
        self._current_activations = activations

        while step < max_steps:
            self._current_step = step
            self._current_marking = marking
            if self._pre_hooks:
                marking = self._apply_pre_hooks(step, marking, activations)
            if marking.is_empty():
                trace.terminated = True
                break
            marked = marking.marked_places()
            if len(marked) > peak_marked:
                peak_marked = len(marked)
            phase_start = perf_counter()
            active = self._active_arcs(marked)
            if self._arc_overrides is not None:
                opens, closes = self._arc_overrides
                active = frozenset((active | opens) - closes)
            conflicted = self._drive_conflicts(active, step, trace)
            out_values, in_values = self._evaluate(active, conflicted)
            if self._eval_hooks:
                for observe in self._eval_hooks:
                    observe(self, step, active, out_values)
            comb_seconds += perf_counter() - phase_start
            phase_start = perf_counter()

            def resolve(port: PortId, _iv=in_values, _act=active,
                        _ov=out_values, _cf=conflicted) -> Value:
                if port in _iv:
                    return _iv[port]
                if port in _cf:
                    return UNDEF
                for arc in self._dp.arcs_into(port):
                    if arc.name in _act:
                        return _ov.get(arc.source, UNDEF)
                return UNDEF

            guard_eval = self._guard_eval(out_values)
            self._record_choice_conflicts(marking, guard_eval, step, trace)
            if self.strict and any(c.kind == "choice" and c.step == step
                                   for c in trace.conflicts):
                bad = next(c for c in trace.conflicts
                           if c.kind == "choice" and c.step == step)
                raise ExecutionError(bad.detail)

            chosen = self.policy.choose(self._net, marking, guard_eval)
            if self._game_hooks:
                for observe in self._game_hooks:
                    observe(self, step, marking, chosen)
            if not chosen:
                # quiescent with tokens: deadlock; flush open activations
                for place in sorted(marking.marked_places()):
                    activation = activations.pop(place, None)
                    if activation is not None:
                        self._complete_activation(
                            place, step, activation, out_values, resolve,
                            None, trace,
                        )
                trace.deadlocked = True
                ctrl_seconds += perf_counter() - phase_start
                break

            consumed: list[str] = []
            for transition in chosen:
                consumed.extend(self._net.preset(transition))
            latch_plan: dict[PortId, tuple[Value, str]] = {}
            for place in sorted(set(consumed)):
                activation = activations.pop(place, None)
                if activation is None:  # pragma: no cover - defensive
                    raise ExecutionError(
                        f"token leaves place {place!r} with no activation open"
                    )
                self._complete_activation(place, step, activation, out_values,
                                          resolve, latch_plan, trace)
            for port, (value, _state) in latch_plan.items():
                if self.fast and self._state.get(port, UNDEF) != value:
                    self._dirty_state.add(port)
                self._state[port] = value

            marking = fire_step(self._net, marking, chosen, guard_eval)
            trace.steps.append(list(chosen))
            produced = sorted(
                p for p in marking.marked_places() if p not in activations
            )
            self._start_activations(produced, step + 1, activations)
            ctrl_seconds += perf_counter() - phase_start
            step += 1
        else:
            if on_limit == "raise":
                raise ExecutionError(
                    f"simulation did not finish within {max_steps} steps"
                )

        self._current_step = step
        self._current_marking = marking
        trace.step_count = step
        trace.final_marking = marking
        trace.final_state = dict(self._state)
        trace.metrics = SimMetrics(
            fast_path=self.fast,
            steps=step,
            firings=trace.num_firings,
            port_evaluations=self._port_evals,
            dirty_evaluations=self._dirty_evals,
            full_passes=self._full_passes,
            incremental_passes=self._incremental_passes,
            peak_marked_places=peak_marked,
            combinational_seconds=comb_seconds,
            control_seconds=ctrl_seconds,
            wall_seconds=perf_counter() - wall_start,
            cache_hits=dict(self._hits,
                            token_game=self._engine.hits - engine_hits0),
            cache_misses=dict(self._misses,
                              token_game=self._engine.misses - engine_misses0),
        )
        return trace


class _Unset:
    """Sentinel distinct from every value, including UNDEF."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()


def simulate(system: DataControlSystem,
             environment: Environment | None = None, *,
             policy: FiringPolicy | None = None,
             max_steps: int = 10_000,
             strict: bool = True,
             fast: bool = True,
             on_limit: str = "raise",
             hooks: Sequence[SimHook] = ()) -> Trace:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        system,
        environment if environment is not None else Environment(),
        policy if policy is not None else MaximalStepPolicy(),
        strict,
        fast,
        hooks,
    ).run(max_steps=max_steps, on_limit=on_limit)
