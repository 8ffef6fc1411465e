"""End-to-end smoke run of the benchmark: every workload and output check at
tiny sizes, each in its own interpreter (about 13 s). It reads ``bench/``
and writes only its ignored ``bench/out/`` directory."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_every_workload_correct_with_no_failed_operation():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == 8, proc.stdout
    for line in lines:
        assert re.fullmatch(r"\S+\s+trace [01]: ok attempted \d+ failed 0", line), line
