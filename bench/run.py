"""Benchmark of the qcipher library: one workload per process, timed through
the public functions of its modules, with every output checked against the
benchmark's own reference computation.

    python3 bench/run.py --workload block --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload wire --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a source tree: it imports ``qcipher`` from ``src/``
and writes only under ``bench/out/``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread, as the workloads are timed single-threaded; set before numpy is
# imported here or in a set-up child, which inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("block", "m2-cap", "wire", "probe")
SETUP_SAMPLES = 7


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0, help="operation time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke run")
    ap.add_argument("--smoke", action="store_true", help="every workload and check at tiny sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


def _self_argv(args, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def _setup_samples(args, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of the workload's
    set-up (imports, key, inputs), once per child process."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(_self_argv(args, "--setup-only"), stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up child exited {proc.returncode} after {line!r}")
    return samples


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome) -> float:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return outcome.seconds


def run_ops(wl, seconds: float, tally: Tally, min_ops: int = 1) -> list[float]:
    """Whole operations until their timed part adds up to ``seconds`` and
    there are at least ``min_ops``; stops at the first failed check."""
    times: list[float] = []
    while not times or (not tally.problems and (len(times) < min_ops or sum(times) < seconds)):
        times.append(tally.add(wl.op()))
    return times


def _tail(times: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    pct = max(p for p in range(100) if n - math.ceil(p * n / 100) >= 10)
    value = sorted(times)[max(math.ceil(pct * n / 100) - 1, 0)]
    return f"op_p{pct}_s {value:.6f} ({n} operations)"


def _width_calls(width: int) -> None:
    """The gate kernels' public calls at the workload's register width."""
    import qcipher.statevector as sv

    state = sv.basis_state(width, "10" * (width // 2) + "1" * (width % 2))
    for q in (1, (width + 1) // 2, width):
        sv.apply_single(state, q, 0.7)
    for c, t in ((1, width), (width, 1), ((width + 1) // 2, (width + 1) // 2 + 1)):
        sv.apply_cnot(state, c, t)


def traced(args, wl, workdir: Path, tally: Tally) -> dict:
    """Untraced and traced operations for half the time each, then the
    tracemalloc pass, then the cover pass; returns the per-layer metrics."""
    import spans
    from workloads import cover

    untraced = run_ops(wl, args.seconds / 2, tally)
    rec = spans.Recorder()
    with rec.patched():
        rec.pass_name = "op"
        traced_times = run_ops(wl, args.seconds / 2, tally)
        _width_calls(wl.width())
    with rec.patched(alloc=True):
        rec.pass_name = "alloc-op"
        tally.add(wl.op())
        rec.pass_name = "alloc-cover"
        cover(workdir)
    with rec.patched():
        rec.pass_name = "cover"
        cover(workdir)
    metrics = rec.metrics()
    base, with_spans = statistics.median(untraced), statistics.median(traced_times)
    overhead = {
        "untraced_op_p50_s": base,
        "traced_op_p50_s": with_spans,
        "overhead_s": with_spans - base,
        "overhead_share": (with_spans - base) / base,
        "untraced_ops": len(untraced),
        "traced_ops": len(traced_times),
    }
    print("tracing overhead: " + json.dumps(overhead), file=sys.stderr)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    rec.write(path, {"workload": args.workload, "seed": args.seed, "spans": len(rec.spans), **overhead})
    print(f"wrote {path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    return metrics


def measure(args) -> int:
    if not (ROOT / "src" / "qcipher" / "__init__.py").is_file():
        print(f"error: no qcipher source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.tiny, workdir)
        if args.setup_only:
            wl.setup(args.seed)
            print("ready", flush=True)
            return 0
        samples = _setup_samples(args, 2 if args.tiny else SETUP_SAMPLES) if not args.trace else []
        wl.setup(args.seed)
        tally = Tally()
        if args.trace:
            metrics = traced(args, wl, workdir, tally)
        else:
            times = run_ops(wl, args.seconds, tally, wl.min_ops)
            if len(times) >= 40:
                print(_tail(times))
            metrics = {
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


def smoke() -> int:
    """Every workload, untraced and traced, at tiny sizes; exit 1 if any
    check fails or any run breaks."""
    bad = 0
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "1",
                    "--seconds", "0.5", "--trace", trace, "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False}
            ok = proc.returncode == 0 and result["correct"]
            bad += not ok
            problems = [l for l in proc.stderr.splitlines() if l.startswith("check failed")]
            detail = "" if ok else " " + (problems or proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{name:7} trace {trace}: {'ok' if ok else 'FAIL'}"
                  f" attempted {result.get('attempted')} failed {result.get('failed')}{detail}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.smoke:
        return smoke()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
