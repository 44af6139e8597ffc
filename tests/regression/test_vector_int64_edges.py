"""Pinned counterexamples: numpy-engine int64 edges (review of PR 6).

Shrunk from differential sweeps against the interpreter:

* mixed-sign ``mod``/``div``: the vectorised remainder was adjusted in
  the wrong direction, so ``-7 mod 2`` came out ``3`` instead of ``-1``;
* ``add`` at exactly ``2**62``: the overflow guard used ``>``, so
  ``2**62 + 2**62`` wrapped silently to INT64_MIN;
* ``np.abs(INT64_MIN)`` wraps to itself, so magnitude guards built on
  it let ``neg``/``abs``/``div`` of INT64_MIN wrap silently;
* ``div`` above ``2**53``: the interpreter's ``int(a / b)`` is
  float-rounded, so the engine must fall back to the interpreter's own
  value function rather than computing the exact quotient.

Every case runs >= 8 lanes so :class:`VectorSimulator` selects the
numpy engine, and asserts byte-identical traces against the interpreter
on every lane — a lane whose values cannot be held in the 64-bit
register file included: it reruns on the scalar engine (the module
contract: exact, never wrapped, never refused).
"""

from __future__ import annotations

import pytest

from repro.core import DataControlSystem
from repro.designs import ZOO
from repro.datapath import (
    DataPath,
    accumulator,
    input_pad,
    operator,
    output_pad,
    register,
)
from repro.petri import PetriNet, chain
from repro.semantics import (
    Environment,
    Lane,
    SeededMaximalPolicy,
    Simulator,
    VectorSimulator,
    simulate,
    traces_equivalent,
)

INT64_MIN = -(1 << 63)


def binop_system(op_name: str) -> DataControlSystem:
    """read (latch x, y) → emit (combinational op → output pad)."""
    dp = DataPath(name=f"{op_name}_edge")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(input_pad("y"))
    dp.add_vertex(register("rx"))
    dp.add_vertex(register("ry"))
    dp.add_vertex(operator("f", op_name))
    dp.add_vertex(output_pad("out"))
    dp.connect("x.out", "rx.d", name="a_x")
    dp.connect("y.out", "ry.d", name="a_y")
    dp.connect("rx.q", "f.l", name="a_l")
    dp.connect("ry.q", "f.r", name="a_r")
    dp.connect("f.o", "out.in", name="a_o")
    net = PetriNet(name=f"{op_name}_edge")
    net.add_place("s_read", marked=True)
    net.add_place("s_emit")
    chain(net, ["s_read", "s_emit"])
    net.add_transition("t_end")
    net.add_arc("s_emit", "t_end")
    system = DataControlSystem(dp, net, name=f"{op_name}_edge")
    system.set_control("s_read", ["a_x", "a_y"])
    system.set_control("s_emit", ["a_l", "a_r", "a_o"])
    return system


def unop_system(op_name: str) -> DataControlSystem:
    dp = DataPath(name=f"{op_name}_edge")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(register("rx"))
    dp.add_vertex(operator("f", op_name))
    dp.add_vertex(output_pad("out"))
    dp.connect("x.out", "rx.d", name="a_x")
    dp.connect("rx.q", "f.i", name="a_i")
    dp.connect("f.o", "out.in", name="a_o")
    net = PetriNet(name=f"{op_name}_edge")
    net.add_place("s_read", marked=True)
    net.add_place("s_emit")
    chain(net, ["s_read", "s_emit"])
    net.add_transition("t_end")
    net.add_arc("s_emit", "t_end")
    system = DataControlSystem(dp, net, name=f"{op_name}_edge")
    system.set_control("s_read", ["a_x"])
    system.set_control("s_emit", ["a_i", "a_o"])
    return system


def _assert_every_lane_exact(system, sequences, **run_kwargs):
    """Every lane, boundary lanes included, equals the reference
    interpreter's trace; returns the batch result."""
    assert len(sequences) >= 8, "need >= 8 lanes to pin the numpy engine"
    result = VectorSimulator(system).run(
        [Lane(Environment(seq)) for seq in sequences], **run_kwargs)
    for i, seq in enumerate(sequences):
        assert result.error(i) is None, f"lane {i} failed"
        assert result.trace(i) == simulate(system, Environment(seq),
                                           fast=False), f"lane {i} diverged"
    return result


MIXED_SIGN_PAIRS = [
    (-7, 2), (7, -2), (-7, -2), (7, 2),
    (-1, 3), (1, -3), (-9, 9), (5, -3),
    (0, -4), (-8, 2), (123456789, -1000), (-(1 << 31), 7),
]


@pytest.mark.parametrize("op_name", ["mod", "div"])
def test_mixed_sign_divmod_numpy_parity(op_name):
    system = binop_system(op_name)
    _assert_every_lane_exact(
        system, [dict(x=[a], y=[b]) for a, b in MIXED_SIGN_PAIRS])


def test_div_above_float_exact_bound_falls_back_to_interpreter_value():
    """(2**60 - 1) / -2: ``int(a / b)`` rounds away from the exact
    truncated quotient — traces must carry the interpreter's value."""
    pairs = [((1 << 60) - 1, -2), (-(1 << 60) + 3, 2),
             ((1 << 60) - 1, -3), ((1 << 53) + 1, -2),
             (-(1 << 53), 3), ((1 << 62) - 1, -7),
             (INT64_MIN, -1), (INT64_MIN + 1, -1)]
    # mod(INT64_MIN, -1) == 0 and div(INT64_MIN + 1, -1) == INT64_MAX
    # are storable, so they must round-trip exactly, not error.
    _assert_every_lane_exact(
        binop_system("mod"), [dict(x=[a], y=[b]) for a, b in pairs])


def test_add_just_below_bound_numpy_parity():
    """2**62 - 1 operands: the largest magnitudes the fast path keeps."""
    top = (1 << 62) - 1
    pairs = [(top, -top), (-top, top), (top, 0), (0, -top),
             (top, -1), (-top, 1), (top // 2, top // 2), (-top, -1)]
    _assert_every_lane_exact(
        binop_system("add"), [dict(x=[a], y=[b]) for a, b in pairs])


def test_add_at_bound_is_exact_not_wrapped():
    """2**62 + 2**62 == 2**63 does not fit int64: every lane must carry
    the interpreter's bignum, never a value wrapped to INT64_MIN."""
    _assert_every_lane_exact(binop_system("add"),
                             [dict(x=[1 << 62], y=[1 << 62])] * 8)


@pytest.mark.parametrize("op_name", ["neg", "abs"])
def test_unary_int64_min_is_exact_not_wrapped(op_name):
    """|INT64_MIN| == 2**63 does not fit; np.abs-based guards wrapped."""
    _assert_every_lane_exact(unop_system(op_name), [dict(x=[INT64_MIN])] * 8)


def test_unary_near_int64_min_numpy_parity():
    values = [INT64_MIN + 1, -(1 << 62), (1 << 62) - 1, -1, 0, 1,
              INT64_MIN + 2, (1 << 63) - 1]
    for op_name in ("neg", "abs"):
        _assert_every_lane_exact(
            unop_system(op_name), [dict(x=[v]) for v in values])


def test_div_int64_min_by_minus_one_is_exact():
    """INT64_MIN / -1 == 2**63: the quotient must be exact, not wrapped
    to INT64_MIN itself."""
    _assert_every_lane_exact(binop_system("div"),
                             [dict(x=[INT64_MIN], y=[-1])] * 8)


# ---------------------------------------------------------------------------
# lane isolation: one lane leaving int64 reruns alone, siblings stay numpy
# ---------------------------------------------------------------------------
def accumulator_system() -> DataControlSystem:
    """Accumulate two input draws (``acc += x`` twice), then emit."""
    dp = DataPath(name="acc_edge")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(accumulator("acc"))
    dp.add_vertex(output_pad("out"))
    dp.connect("x.out", "acc.d", name="a_x")
    dp.connect("acc.q", "out.in", name="a_o")
    net = PetriNet(name="acc_edge")
    net.add_place("s_add1", marked=True)
    net.add_place("s_add2")
    net.add_place("s_emit")
    chain(net, ["s_add1", "s_add2", "s_emit"])
    net.add_transition("t_end")
    net.add_arc("s_emit", "t_end")
    system = DataControlSystem(dp, net, name="acc_edge")
    system.set_control("s_add1", ["a_x"])
    system.set_control("s_add2", ["a_x"])
    system.set_control("s_emit", ["a_o"])
    return system


def test_tape_overflow_reruns_only_its_lane_exactly():
    """isqrt's ``mid * mid`` on n = 2**62 + 5 leaves int64 in one lane;
    that lane reruns exactly and the other lanes of the same plan group
    run to completion."""
    system = ZOO["isqrt"].build()
    sequences = [{"n_in": [n]} for n in (0, 1, 2, 15, 16, 133, 1000,
                                         99_999, 10**9)]
    sequences.insert(4, {"n_in": [2**62 + 5]})
    _assert_every_lane_exact(system, sequences, capture_errors=True)


def test_accumulator_overflow_reruns_only_its_lane_exactly():
    """``acc`` latching 2 * (2**62 + 1) leaves int64 in one lane; that
    lane must carry the interpreter's bignum, its siblings unaffected."""
    sequences = [{"x": [v, v]} for v in (0, 1, -1, 7, 2**40, -2**40,
                                         2**61, -2**61)]
    sequences.insert(3, {"x": [2**62 + 1, 2**62 + 1]})
    _assert_every_lane_exact(accumulator_system(), sequences,
                             capture_errors=True)


@pytest.mark.parametrize("x", [[1 << 62, 1 << 62], [INT64_MIN, -1]])
def test_accumulator_at_bound_is_exact_not_wrapped(x):
    """``acc`` guarded with ``> 2**62`` on ``np.abs``: 2**62 + 2**62 and
    INT64_MIN - 1 wrapped silently; they must be exact bignums."""
    _assert_every_lane_exact(accumulator_system(), [{"x": list(x)}] * 8)


# ---------------------------------------------------------------------------
# demotion: a numpy lane that leaves int64 reruns exactly on the scalar engine
# ---------------------------------------------------------------------------
def wide_register_system() -> DataControlSystem:
    """Emit a register initialised past int64, then read into it."""
    dp = DataPath(name="wide_init")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(register("r", init=2**70))
    dp.add_vertex(output_pad("out"))
    dp.connect("r.q", "out.in", name="a_o")
    dp.connect("x.out", "r.d", name="a_x")
    net = PetriNet(name="wide_init")
    net.add_place("s_emit", marked=True)
    net.add_place("s_read")
    chain(net, ["s_emit", "s_read"])
    net.add_transition("t_end")
    net.add_arc("s_read", "t_end")
    system = DataControlSystem(dp, net, name="wide_init")
    system.set_control("s_emit", ["a_o"])
    system.set_control("s_read", ["a_x"])
    return system


def test_register_init_past_int64_stays_inside_capture_errors():
    """The initial register image was stored before any lane could fail,
    so ``2**70`` raised out of ``run`` despite ``capture_errors=True``."""
    result = _assert_every_lane_exact(
        wide_register_system(), [{"x": [k]} for k in range(8)],
        capture_errors=True)
    assert result.trace(0).events[0].value == 2**70


def test_draw_past_int64_on_one_lane_of_nine():
    """An environment draw the register file cannot hold demotes only
    the lane that drew it."""
    sequences = [{"x": [v, 1]} for v in (0, 1, -1, 7, 2**40, -2**40,
                                         2**61, -2**61)]
    sequences.insert(5, {"x": [2**70, 1]})
    _assert_every_lane_exact(accumulator_system(), sequences,
                             capture_errors=True)


def test_seeded_boundary_lane_restores_its_rng():
    """Each step's seeded choice between two transitions consumes the
    lane's policy RNG before ``acc`` leaves int64; the rerun must start
    from the pre-run RNG state to make the interpreter's choices."""
    system = accumulator_system()
    system.net.add_transition("t_alt")
    system.net.add_arc("s_add1", "t_alt")
    system.net.add_arc("t_alt", "s_add2")
    wide = [2**62 + 1, 2**62 + 1]
    lanes = [([v, v], seed) for seed, v in enumerate((0, 1, -1, 7, 9))]
    lanes += [(wide, seed) for seed in range(5, 9)]
    result = VectorSimulator(system, strict=False).run(
        [Lane(Environment({"x": x}), SeededMaximalPolicy(seed))
         for x, seed in lanes])
    for i, (x, seed) in enumerate(lanes):
        ref = simulate(system, Environment({"x": x}), strict=False,
                       policy=SeededMaximalPolicy(seed), fast=False)
        assert result.trace(i) == ref, f"lane {i} diverged"


def test_demoted_lane_checkpoint_resumes_to_the_reference():
    system = ZOO["isqrt"].build()
    ns = [0, 1, 2, 15, 2**62 + 5, 16, 133, 1000]
    budget = 100
    vsim = VectorSimulator(system)
    vsim.run([Lane(Environment({"n_in": [n]})) for n in ns],
             max_steps=budget, on_limit="return")
    lane_cp = vsim.checkpoint()[4]
    assert lane_cp.step == budget
    got = Simulator(system, Environment({"n_in": [2**62 + 5]})).run(
        max_steps=10_000, from_checkpoint=lane_cp)
    interp = Simulator(system, Environment({"n_in": [2**62 + 5]}),
                       fast=False)
    interp.run(max_steps=budget, on_limit="return")
    ref = interp.run(max_steps=10_000, from_checkpoint=interp.checkpoint())
    assert traces_equivalent(got, ref)
    whole = simulate(system, Environment({"n_in": [2**62 + 5]}),
                     fast=False)
    assert got.final_state == whole.final_state
    assert got.step_count == whole.step_count


def test_boundary_lane_returns_without_capture_errors():
    """A lane past int64 is not an error: ``run`` must return."""
    sequences = [{"n_in": [n]} for n in (0, 1, 2, 15, 16, 133, 1000,
                                         2**62 + 5)]
    _assert_every_lane_exact(ZOO["isqrt"].build(), sequences)
