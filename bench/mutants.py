"""Mutation check of the benchmark's output checks.

For each mutant, copies ``src/`` and ``bench/`` into DEST/<mutant>, breaks
the program in one known way, runs the smoke benchmark there and prints which
workloads' checks caught it. The unmutated copy must pass.

    python3 bench/mutants.py DEST
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file, text, replacement); each text occurs exactly once.
MUTANTS = {
    "none": None,
    "drop-last-key-cnot": ("src/qcipher/keyschedule.py", "    return gates\n", "    return gates[:-1]\n"),
    "reverse-mode2-pairing": ("src/qcipher/modes.py", "base_t + pairing[q - 1]", "base_t + pairing[n - q]"),
    "cut-json-digit": ("src/qcipher/statevector.py", "{z.real:.17g}, {z.imag:.17g}", "{z.real:.16g}, {z.imag:.16g}"),
    "collision-cubes": ("src/qcipher/adversary.py", "np.abs(s.amps) ** 4", "np.abs(s.amps) ** 3"),
    "probe-skips-last-angle": ("src/qcipher/analysis.py", "    for j in range(k.n):\n        for alt",
                               "    for j in range(k.n - 1):\n        for alt"),
    "one-copy-short": ("src/qcipher/adversary.py", "        for _ in range(r):\n", "        for _ in range(r - 1):\n"),
    "brute-force-exact": ("src/qcipher/adversary.py", ">= 1.0 - 1e-9", "> 1.0"),
}


def run(dest: Path, name: str) -> list[str]:
    tree = dest / name
    shutil.rmtree(tree, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    if MUTANTS[name]:
        rel, old, new = MUTANTS[name]
        path = tree / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: expected one occurrence of {old!r} in {rel}")
        path.write_text(text.replace(old, new))
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=tree,
                          capture_output=True, text=True, timeout=600)
    return proc.stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    dest = Path(argv[0]).resolve()
    bad = 0
    for name in MUTANTS:
        lines = run(dest, name)
        failed = [line for line in lines if "FAIL" in line]
        ok = not failed if name == "none" else bool(failed)
        bad += not ok
        print(f"{name}: {'as expected' if ok else 'NOT CAUGHT' if name != 'none' else 'BROKEN'}")
        for line in failed:
            print(f"    {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
