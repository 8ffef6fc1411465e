"""Run the benchmark in alternating pairs from two source trees, write the
runs as a root ``BENCH_<label>.json`` and print each metric's verdict.

    python3 tools/bench_pairs.py --parent ../parent --change . --label onepass \\
        --workload m2-cap --seeds 941-950

Pair i (counted from 1) runs the parent first when i is odd and the change
first when it is even. Each side runs ``bench/run.py --workload W --seed S
--trace 0`` from the root of its own tree, for the benchmark's own run length.
The end-to-end metrics and their bounds are read from the change tree's
``BENCHMARK.json``. An existing output file keeps its runs and gets the new
ones, so the workloads can be run one at a time. For each workload and
metric the script prints the pairs the change won (ties count for neither),
both medians, the gap between them and the parent's interquartile distance,
then what they show, the first that holds of:

- "change runs failed": a change run exited non-zero or was not correct, or
  the change's runs failed more operations than the parent's;
- "unresolved": the parent's interquartile distance exceeds the metric's
  bound times its median, and the runs of the two sides overlap;
- "too few pairs to claim a gain": fewer than ten pairs;
- "gain shown" if the change wins at least nine pairs in ten and its median
  is better by more than the parent's interquartile distance, else "no gain
  shown".

A regression is flagged as well when the change's median is worse than the
parent's by more than the metric's bound.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ORDER = (
    "alternating: parent first at odd pair positions (1-based), change first at even ones; "
    "see first. Each side runs from its own copy of the tree"
)
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of each side"
COMMAND = "python3 bench/run.py --workload W --seed S --trace 0"


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run from ``tree``: its exit code and the JSON
    object on the last line of its output (empty if there is none)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {"exit": proc.returncode, **result}


def _record(result: dict, seed: int, first: str, metrics: dict) -> dict:
    """A run as the file keeps it: metric values flattened, None if missing."""
    values = result.get("metrics", {})
    return {
        "seed": seed,
        "first": first,
        "exit": result["exit"],
        "correct": result.get("correct", False),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        **{name: values.get(name, {}).get("value") for name in metrics},
    }


def run_pairs(trees: dict, workload: str, seeds: list[int], metrics: dict, runner=bench_run, start: int = 1) -> dict:
    """The runs of one pair per seed, as {side: [record, ...]}; ``start`` is
    the position of the first pair, which sets which side runs first."""
    rounds: dict = {side: [] for side in SIDES}
    for pos, seed in enumerate(seeds, start):
        first = SIDES[(pos - 1) % 2]
        for side in (first, SIDES[1 - SIDES.index(first)]):
            rounds[side].append(_record(runner(trees[side], workload, seed), seed, first, metrics))
            print(f"{workload} seed {seed} {side}: " + json.dumps(rounds[side][-1]), file=sys.stderr)
    return rounds


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(rounds: dict, metrics: dict) -> dict:
    """Per workload and metric: each side's median and quartiles, the pairs
    in which the change was strictly better, and whether every change run
    was better, or every one worse, than every parent run. A run without
    the metric's value is left out of both."""
    summary: dict = {}
    for workload, sides in rounds.items():
        summary[workload] = {}
        for name, spec in metrics.items():
            pairs = [(p[name], c[name]) for p, c in zip(sides["parent"], sides["change"])
                     if p[name] is not None and c[name] is not None]
            if not pairs:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            parents, changes = [sign * p for p, _ in pairs], [sign * c for _, c in pairs]
            summary[workload][name] = {
                "parent": _stats([p for p, _ in pairs]),
                "change": _stats([c for _, c in pairs]),
                "change_better_pairs": sum(c < p for p, c in zip(parents, changes)),
                "separated": max(changes) < min(parents) or min(changes) > max(parents),
            }
    return summary


def _failed(rounds: dict) -> bool:
    """Whether a change run exited non-zero or was not correct, or the
    change's runs failed more operations than the parent's."""
    change = rounds["change"]
    if any(r["exit"] != 0 or not r["correct"] for r in change):
        return True
    return sum(r["failed"] or 0 for r in change) > sum(r["failed"] or 0 for r in rounds["parent"])


def verdicts(rounds: dict, summary: dict, metrics: dict) -> list[str]:
    """One line per workload and metric: wins, medians, gap, parent IQR and
    what they show (see the module's docstring)."""
    lines = []
    for workload, per_metric in summary.items():
        failed = _failed(rounds[workload])
        for name, s in per_metric.items():
            spec, parent, change = metrics[name], s["parent"], s["change"]
            runs, wins = parent["runs"], s["change_better_pairs"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            gain = sign * (parent["median"] - change["median"])
            iqr = parent["q3"] - parent["q1"]
            if failed:
                shown = "change runs failed"
            elif iqr > spec["bound"] * parent["median"] and not s["separated"]:
                shown = f"unresolved: the parent's IQR exceeds its bound of {spec['bound']:.0%}"
            elif runs < 10:
                shown = "too few pairs to claim a gain"
            else:
                shown = "gain shown" if wins >= 0.9 * runs and gain > iqr else "no gain shown"
            if -gain > spec["bound"] * parent["median"]:
                shown += f"; worse beyond its bound of {spec['bound']:.0%}"
            rel = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
            lines.append(
                f"{workload} {name}: change better in {wins} of {runs} pairs; median {parent['median']:.6g} -> "
                f"{change['median']:.6g} ({rel:+.1%}); gap {abs(gain):.3g} vs parent IQR {iqr:.3g}: {shown}"
            )
    return lines


def _seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a comma-separated list."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None, runner=bench_run) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent's source tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the change's source tree")
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="A-B or a comma-separated list; one pair each")
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<label>.json in the change tree)")
    ap.add_argument("--what", help="what the change does")
    ap.add_argument("--claim", help='the gain claimed (default "none")')
    ap.add_argument("--note")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = args.out or args.change / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {"rounds": {}}
    doc.update(
        label=args.label,
        command=COMMAND,
        machine=f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, Python {platform.python_version()}, "
        "BLAS pinned to one thread by bench/run.py",
        order=ORDER,
        quartiles=QUARTILES,
    )
    # Text not given is kept from the file.
    for key, default in (("what", ""), ("claim", "none"), ("note", "")):
        given = getattr(args, key)
        doc[key] = given if given is not None else doc.get(key, default)
    old = doc["rounds"].setdefault(args.workload, {side: [] for side in SIDES})
    new = run_pairs({"parent": args.parent, "change": args.change}, args.workload, args.seeds, metrics, runner,
                    start=len(old["parent"]) + 1)
    for side in SIDES:
        old[side] += new[side]
    doc["summary"] = summarize(doc["rounds"], metrics)
    keys = ("label", "what", "command", "machine", "order", "quartiles", "claim", "rounds", "summary", "note")
    out.write_text(json.dumps({key: doc[key] for key in keys}, indent=1) + "\n")
    print("\n".join(verdicts(doc["rounds"], doc["summary"], metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
