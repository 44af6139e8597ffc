"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402

WORKLOADS = [w["name"] for w in run.load_benchmark()["workloads"]]


def tiny(name, **kwargs):
    """One pass over the pool, no extra set-up processes."""
    return run.measure(name, 1, 0.0, kwargs.pop("trace", False),
                       min_passes=1, setup_repeats=0, **kwargs)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_named_metric_with_its_unit(name):
    benchmark = run.load_benchmark()
    record, result, _spans = tiny(name, trace=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for section, values in (("end_to_end", record["end_to_end"]),
                            ("per_layer", result["metrics"])):
        assert list(values) == [m["name"] for m in benchmark[section]]
        for metric in benchmark[section]:
            entry = values[metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    for metric in benchmark["end_to_end"]:
        assert record["end_to_end"][metric["name"]]["value"] > 0
    assert 0 <= record["ops"]["error_rate"] <= 1
    assert record["trace"]["children_cover_parent"]


def _swap_first_two(references):
    keys = list(references)
    references[keys[0]] = references[keys[1]]


def _flip_verdict(references):
    key = next(iter(references))
    entry = references[key]
    references[key] = dict(
        entry, verdict="silent" if entry["verdict"] != "silent" else "masked")


def _outputs_differ(references):
    references[0] = {"outputs_equal": False, "sim_steps": 1}


CORRUPTIONS = {
    "single-sim": _swap_first_two,
    "batch-sim": _swap_first_two,
    "fault-campaign": _flip_verdict,
    "synth-verify": _outputs_differ,
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_reference_counts_as_failed_op(name):
    record, result, _spans = tiny(
        name, corrupt=lambda w: CORRUPTIONS[name](w.references))
    assert result["failed"] >= 1
    assert not result["correct"]
    assert "x" in record["ops"]["results"]


_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import run
record, _, _ = run.measure({name!r}, 5, 0.0, False, min_passes=1,
                        setup_repeats=0)
print(json.dumps([record["inputs_digest"], record["exact"]]))
"""


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_inputs_and_statistics_across_hash_seeds(name):
    code = _PROBE.format(src=os.path.join(os.path.dirname(HERE), "src"),
                         here=HERE, name=name)
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
