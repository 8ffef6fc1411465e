"""tools/bench_pairs.py on canned results from a fake runner: the pair
order, the file it writes and the verdicts it prints, with no benchmark
run."""

import importlib.util
import json
import statistics
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

KEYS = ["label", "what", "command", "machine", "order", "quartiles", "claim", "rounds", "summary", "note"]
PARENT_OPS = {seed: 0.080 + 0.001 * (seed % 3) for seed in range(1, 13)}
# The change wins every pair but the tenth; its set-up is 50 % slower.
CHANGE_OPS = {**{seed: 0.066 for seed in range(1, 13)}, 10: 0.09}


def _trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    metrics = [{"name": name, "better": "lower", "bound": bound}
               for name, bound in (("op_p50_s", 0.25), ("peak_rss_mb", 0.15), ("setup_s", 0.25))]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    return parent, change


def _fake(calls, parent_ops=PARENT_OPS, change_ops=CHANGE_OPS, change_run=None):
    def run(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        op, setup = (parent_ops[seed], 0.2) if tree.name == "parent" else (change_ops[seed], 0.3)
        values = {"op_p50_s": op, "peak_rss_mb": 168.0, "setup_s": setup}
        metrics = {name: {"value": v} for name, v in values.items()}
        result = {"exit": 0, "correct": True, "attempted": 200, "failed": 0, "metrics": metrics}
        if tree.name == "change" and change_run:
            result.update(change_run.get(seed, {}))
        return result

    return run


def test_pairs_alternate_and_the_file_holds_every_run(tmp_path, capsys):
    parent, change = _trees(tmp_path)
    calls = []
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t", "--workload", "m2-cap"]
    assert bench_pairs.main(argv + ["--seeds", "1-10", "--claim", "op_p50_s falls"], runner=_fake(calls)) == 0
    # Parent first in odd pairs, change first in even ones.
    assert [(side, seed) for side, _, seed in calls[:6]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)
    ]
    assert {workload for _, workload, _ in calls} == {"m2-cap"}
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert list(doc) == KEYS
    assert doc["claim"] == "op_p50_s falls"
    assert doc["command"] == "python3 bench/run.py --workload W --seed S --trace 0"
    first = doc["rounds"]["m2-cap"]["change"][1]
    assert first == {"seed": 2, "first": "change", "exit": 0, "correct": True, "attempted": 200, "failed": 0,
                     "op_p50_s": 0.066, "peak_rss_mb": 168.0, "setup_s": 0.3}
    op = doc["summary"]["m2-cap"]["op_p50_s"]
    parent_ops = [PARENT_OPS[seed] for seed in range(1, 11)]
    q1, median, q3 = statistics.quantiles(parent_ops, n=4, method="inclusive")
    assert op["parent"] == {"median": median, "q1": q1, "q3": q3, "runs": 10}
    assert op["change"]["median"] == 0.066
    assert op["change_better_pairs"] == 9
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("m2-cap op_p50_s: change better in 9 of 10 pairs; median 0.081 -> 0.066 (-18.5%)")
    assert lines[0].endswith(": gain shown")
    assert lines[1].startswith("m2-cap peak_rss_mb: change better in 0 of 10 pairs")
    assert lines[1].endswith(": no gain shown")
    assert lines[2].endswith(": no gain shown; worse beyond its bound of 25%")

    # A second call adds its pairs, numbered on from the first call's, and
    # keeps the claim.
    calls.clear()
    assert bench_pairs.main(argv + ["--seeds", "11,12"], runner=_fake(calls)) == 0
    order = [(side, seed) for side, _, seed in calls]
    assert order == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12)]
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert doc["claim"] == "op_p50_s falls"
    assert [r["seed"] for r in doc["rounds"]["m2-cap"]["parent"]] == list(range(1, 13))
    assert doc["summary"]["m2-cap"]["op_p50_s"]["change_better_pairs"] == 11


def test_too_few_pairs_claim_nothing(tmp_path, capsys):
    parent, change = _trees(tmp_path)
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t", "--workload", "block", "--seeds", "1-3"]
    assert bench_pairs.main(argv, runner=_fake([])) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(": too few pairs to claim a gain")


def _verdict(tmp_path, capsys, **fake):
    """The first verdict line of ten fresh pairs."""
    root = tmp_path / str(len(list(tmp_path.iterdir())))
    root.mkdir()
    parent, change = _trees(root)
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t", "--workload", "m2-cap", "--seeds", "1-10"]
    assert bench_pairs.main(argv, runner=_fake([], **fake)) == 0
    return capsys.readouterr().out.splitlines()[0]


def test_a_failing_change_run_shows_no_gain(tmp_path, capsys):
    # The change wins 9 of 10 pairs by more than the parent's IQR, as above,
    # but one of its runs exited 1, or was wrong, or its runs failed more
    # operations than the parent's.
    for bad in ({"exit": 1}, {"correct": False}, {"failed": 1}):
        line = _verdict(tmp_path, capsys, change_run={4: bad})
        assert "change better in 9 of 10 pairs" in line
        assert line.endswith(": change runs failed"), (bad, line)


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    # Parent quartiles 0.06 and 0.12: an IQR of 0.06 against 25 % of a
    # 0.09 median.
    wide = {seed: (0.06, 0.12)[seed % 2] for seed in range(1, 11)}
    line = _verdict(tmp_path, capsys, parent_ops=wide)
    assert line.endswith(": unresolved: the parent's IQR exceeds its bound of 25%"), line
    # Unless every change run beats every parent run.
    line = _verdict(tmp_path, capsys, parent_ops=wide, change_ops={seed: 0.05 for seed in range(1, 11)})
    assert line.endswith(": no gain shown"), line
