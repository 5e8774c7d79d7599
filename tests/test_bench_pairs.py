"""The summary of tools/bench_pairs.py on made-up run results: medians,
quartiles, pairs won and each run's outcome, and the copy of a working tree
that its change side runs in.  No benchmark runs here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "workflow_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def result(workflow, rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {"workflow_ref_s": {"value": workflow, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def pairs():
    parent = [0.50, 0.46, 0.48, 0.44, 0.45]
    change = [0.30, 0.46, 0.27, 0.50, 0.28]     # wins 3, ties 1, loses 1
    return [{"seed": 7 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": result(p, 10.0), "change": result(c, 10.0 + i - 2,
                                                         failed=int(i == 4))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_medians_and_quartiles():
    summary = bench_pairs.summarize(pairs(), METRICS)["metrics"]["workflow_ref_s"]
    assert summary["parent"] == pytest.approx({"median": 0.46, "q1": 0.45,
                                               "q3": 0.48})
    assert summary["change"] == pytest.approx({"median": 0.30, "q1": 0.28,
                                               "q3": 0.46})
    assert (summary["unit"], summary["better"], summary["pairs"]) == ("s", "lower", 5)


def test_ties_count_for_neither_side():
    metrics = bench_pairs.summarize(pairs(), METRICS)["metrics"]
    assert metrics["workflow_ref_s"]["change_won"] == 3
    # higher is better: the change reads 8, 9, 10, 11, 12 against 10
    assert metrics["rate"]["change_won"] == 2


def test_each_run_keeps_its_outcome():
    runs = bench_pairs.summarize(pairs(), METRICS)["runs"]
    assert [run["seed"] for run in runs] == [7, 8, 9, 10, 11]
    assert [run["first"] for run in runs] == ["parent", "change"] * 2 + ["parent"]
    assert runs[4]["change"] == {"correct": True, "attempted": 12, "failed": 1}
    assert runs[0]["parent"] == {"correct": True, "attempted": 12, "failed": 0}


def test_single_pair_has_no_spread():
    summary = bench_pairs.summarize(pairs()[:1], METRICS)["metrics"]["workflow_ref_s"]
    assert summary["parent"] == {"median": 0.50, "q1": 0.50, "q3": 0.50}
    assert summary["change_won"] == 1


def test_change_side_is_the_working_trees_files(tmp_path):
    # tracked files as edited on disk and new files git would add are
    # copied; ignored files, git's own and a tracked file deleted on disk are not
    tree, into = tmp_path / "tree", tmp_path / "copy"
    (tree / "pkg" / "__pycache__").mkdir(parents=True)
    files = {".gitignore": "__pycache__/\nout/\n", "pkg/a.py": "A = 1\n",
             "pkg/gone.py": "", "pkg/__pycache__/a.pyc": "x", "top.txt": "t"}
    for name, text in files.items():
        (tree / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=tree, check=True)
    subprocess.run(["git", "add", ".gitignore", "pkg", "top.txt"], cwd=tree, check=True)
    (tree / "pkg" / "a.py").write_text("A = 2\n")
    (tree / "pkg" / "gone.py").unlink()
    (tree / "new.py").write_text("B = 3\n")
    (tree / "out").mkdir()
    (tree / "out" / "run.json").write_text("{}")
    bench_pairs.snapshot(into, root=tree)
    copied = sorted(str(path.relative_to(into)) for path in into.rglob("*")
                    if path.is_file())
    assert copied == [".gitignore", "new.py", "pkg/a.py", "top.txt"]
    assert (into / "pkg" / "a.py").read_text() == "A = 2\n"
