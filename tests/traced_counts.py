#!/usr/bin/env python3
"""The exact traced counts of the three benchmark workloads, against their
golden file.

    python3 tests/traced_counts.py           # compare with tests/golden/traced_counts.json
    python3 tests/traced_counts.py --write   # rewrite the golden file

Run from the repository root.  For each workload and seeds 1-3 it runs
``perfbench/run.py --seconds 1 --trace 1``, a fixed seeded list of ops, and
keeps what no timing can move: the ops attempted and failed, every metric
whose name ends in ``.calls``, ``flow.z_points`` and ``cli.output_bytes``.
A change that moves one of them rewrites the file and says why.
"""
import argparse
import json
import subprocess
import sys

GOLDEN = "tests/golden/traced_counts.json"
WORKLOADS = ("cycles", "band", "trajectory")
SEEDS = (1, 2, 3)


def counts(workload: str, seed: int) -> dict:
    """The counts of one traced run, read from its result JSON."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    kept = {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in ("flow.z_points", "cli.output_bytes")}
    return {"attempted": result["attempted"], "failed": result["failed"], **kept}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    got = {f"{w}-seed{s}": counts(w, s) for w in WORKLOADS for s in SEEDS}
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    moved = [f"{run} {name}: {want.get(run, {}).get(name)!r} -> {got.get(run, {}).get(name)!r}"
             for run in sorted(want.keys() | got.keys())
             for name in sorted(want.get(run, {}).keys() | got.get(run, {}).keys())
             if want.get(run, {}).get(name) != got.get(run, {}).get(name)]
    print("\n".join(moved) or f"{len(got)} traced runs match {GOLDEN}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
