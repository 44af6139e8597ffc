"""Flag any difference in the exact statistics of two benchmark runs.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Takes two run records written by ``run.py`` (``perfbench/results/``) for
the same workload and seed, and compares their inputs digest and their
exact simulated statistics (steps, events, lane steps, verdict counts,
moves, cost, truncated verdicts), which a change that only speeds up the
program must leave identical.  Exits 1 when any of them differ.
"""

import json
import sys


def differences(before: dict, after: dict) -> list[str]:
    found = []
    for key in ("workload", "seed", "inputs_digest"):
        if before.get(key) != after.get(key):
            found.append(f"{key}: {before.get(key)!r} -> {after.get(key)!r}")
    exact_before = before.get("exact", {})
    exact_after = after.get("exact", {})
    for key in sorted(set(exact_before) | set(exact_after)):
        if exact_before.get(key) != exact_after.get(key):
            found.append(f"exact.{key}: {exact_before.get(key)!r} -> "
                         f"{exact_after.get(key)!r}")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    found = differences(*records)
    for line in found:
        print(line)
    if not found:
        print("exact statistics identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
