"""Op-level exactness: every numpy vector handler vs ``Operation.evaluate``.

The byte-identity contract of :mod:`repro.semantics.vector` bottoms out
in ``_VECTOR_HANDLERS``: each handler, driven through the compiled tape
instruction (so the ``_Fallback`` → exact-Python path is included),
must agree with the interpreter's value function on every lane.  The
grids below sweep signed, mixed-sign and int64-boundary operands plus
UNDEF, and assert per lane that

* a defined interpreter result that fits in 64 bits comes back
  identical,
* an UNDEF interpreter result comes back undefined,
* a result that cannot be *stored* in 64 bits is flagged for demotion
  (the engine reruns that lane on the scalar engine) and never wrapped.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.datapath.operations import get_operation
from repro.semantics.values import UNDEF
from repro.semantics.vector import (
    _INT64_MAX,
    _INT64_MIN,
    _VECTOR_HANDLERS,
    _vector_instruction,
)

#: Signed and boundary operands: zero neighbourhoods, the mul bound
#: (2**31), the div float-rounding bound (2**53), the add bound (2**62)
#: and the int64 limits — each straddled from both sides — plus UNDEF.
BOUNDARY = [
    0, 1, -1, 2, -2, 3, -3, 7, -7, 10, -13, 63, -64, 1000,
    (1 << 31) - 1, 1 << 31, -(1 << 31) - 1,
    (1 << 53) - 1, (1 << 53) + 1, -(1 << 53),
    (1 << 60) - 1, -(1 << 60) + 3,
    (1 << 62) - 1, 1 << 62, -(1 << 62),
    _INT64_MAX, _INT64_MIN, _INT64_MIN + 1,
    UNDEF,
]


#: Shift amounts for ``shl``: a 2**62 shift count would make even the
#: expected Python bignum astronomical, so straddle the interesting
#: bounds (sign, the 30-bit fast-path bound, the word width) instead.
SHIFT_AMOUNTS = [UNDEF, -64, -1, 0, 1, 5, 29, 30, 31, 62, 63, 64, 100]


def _lanes_for(op):
    if op.arity == 1:
        return [(v,) for v in BOUNDARY]
    if op.name == "shl":
        return list(itertools.product(BOUNDARY, SHIFT_AMOUNTS))
    if op.arity == 2:
        return list(itertools.product(BOUNDARY, BOUNDARY))
    assert op.arity == 3  # mux
    pairs = list(zip(BOUNDARY, reversed(BOUNDARY)))
    return [(s, a, b) for s in (0, 1, -5, UNDEF) for a, b in pairs]


def _run_instruction(op, lanes):
    """Drive one compiled numpy tape entry over explicit operand lanes:
    ``(values, defined, demoted lane positions)``."""
    arity = op.arity
    n = len(lanes)
    values = np.zeros((arity + 1, n), dtype=np.int64)
    defined = np.zeros((arity + 1, n), dtype=bool)
    for k in range(arity):
        for j, lane in enumerate(lanes):
            if lane[k] is not UNDEF:
                values[k, j] = lane[k]
                defined[k, j] = True
    instr = _vector_instruction(op, arity, tuple(range(arity)))
    demoted = set()
    instr(values, defined, np.arange(n), demoted)
    return values[arity], defined[arity], demoted


def _storable(value):
    return value is UNDEF or _INT64_MIN <= value <= _INT64_MAX


def _assert_lanes_match(op, lanes):
    expected = [op.evaluate(*lane) for lane in lanes]
    in_range = [(lane, exp) for lane, exp in zip(lanes, expected)
                if _storable(exp)]
    vals, defs, demoted = _run_instruction(
        op, [lane for lane, _ in in_range])
    assert not demoted, f"{op.name}: storable lanes {sorted(demoted)} demoted"
    for j, (lane, exp) in enumerate(in_range):
        if exp is UNDEF:
            assert not defs[j], f"{op.name}{lane}: expected UNDEF"
        else:
            assert defs[j], f"{op.name}{lane}: unexpectedly UNDEF"
            assert int(vals[j]) == exp, (
                f"{op.name}{lane}: got {int(vals[j])}, want {exp}")
    return [lane for lane, exp in zip(lanes, expected)
            if not _storable(exp)]


@pytest.mark.parametrize("name", sorted(_VECTOR_HANDLERS))
def test_handler_matches_interpreter_on_boundary_grid(name):
    op = get_operation(name)
    overflowing = _assert_lanes_match(op, _lanes_for(op))
    if not overflowing:
        return
    # a result too wide for the register file is flagged, never wrapped
    _vals, defs, demoted = _run_instruction(op, overflowing)
    assert demoted == set(range(len(overflowing)))
    assert not defs.any()


@pytest.mark.parametrize("name", ["div", "mod"])
def test_divmod_mixed_sign_sweep(name):
    """Dense deterministic sweep of the pure-vector (no fallback) path."""
    op = get_operation(name)
    rng = np.random.default_rng(0xD17)
    small = list(zip(rng.integers(-1000, 1001, size=400).tolist(),
                     rng.integers(-9, 10, size=400).tolist()))
    wide = list(zip(rng.integers(-(1 << 52), 1 << 52, size=200).tolist(),
                    rng.integers(-(1 << 52), 1 << 52, size=200).tolist()))
    leftover = _assert_lanes_match(op, small + wide)
    assert not leftover  # div/mod of in-range operands always fits


def test_div_float_rounding_quirk_is_pinned():
    """The interpreter's ``int(a / b)`` is float-rounded; above 2**53 it
    can differ from exact truncation, and the vector backend must
    reproduce the interpreter's value, not the mathematical one."""
    a, b = (1 << 60) - 1, -2
    exact_trunc = -(a // 2)
    op = get_operation("div")
    assert op.evaluate(a, b) != exact_trunc  # the quirk is real
    vals, defs, _ = _run_instruction(op, [(a, b)])
    assert defs[0] and int(vals[0]) == op.evaluate(a, b)
