"""The comparison and report of tools/same_answers.py on made-up results:
identical entries, numbers that moved, text that changed, entries on one
side only, and which differences fail the run.  No tree is collected here."""

import importlib.util
import math
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))
_SPEC = importlib.util.spec_from_file_location("same_answers",
                                               _TOOLS / "same_answers.py")
same_answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_answers)

IDENTICAL = same_answers.IDENTICAL


def parent():
    return {"cli/fit": {"exit": 0, "stdout": "omega_q = 1694.2 +- 35.1 Hz\n",
                        "output": None},
            "fit/18nT/Delta=0": [{"omega_q_hz": 1700.0, "nfev": 12,
                                  "sigma_b_err_nt": math.nan}],
            "wigner/3j-6j": [0.5, -0.25, 0.0]}


def test_the_same_results_are_identical():
    verdicts = same_answers.compare(parent(), parent())
    assert verdicts == dict.fromkeys(parent(), IDENTICAL)
    assert same_answers.unexpected(verdicts, []) == []


def test_a_moved_number_gives_its_relative_difference():
    change = parent()
    change["wigner/3j-6j"] = [0.5, -0.25 * (1 + 2e-16), 0.0]
    change["fit/18nT/Delta=0"][0]["omega_q_hz"] = 1700.0 * (1 + 3e-9)
    verdicts = same_answers.compare(parent(), change)
    assert verdicts["wigner/3j-6j"] == "largest relative difference 2.22e-16"
    assert verdicts["fit/18nT/Delta=0"] == "largest relative difference 3e-09"
    assert verdicts["cli/fit"] == IDENTICAL


def test_a_zero_that_changes_sign_differs():
    # -0.0 == 0.0 as floats, yet they print as -0 and 0 and hold other bits
    assert same_answers.relative(-0.0, 0.0) == same_answers.relative(0.0, -0.0) == 2.0
    assert same_answers.relative(-0.0, -0.0) == same_answers.relative(0.0, 0.0) == 0.0
    change = parent()
    change["wigner/3j-6j"] = [0.5, -0.25 * (1 + 2e-16), -0.0]
    change["cli/fit"]["stdout"] = "omega_q = -0 +- 35.1 Hz\n"
    before = {**parent(), "cli/fit": {**parent()["cli/fit"],
                                      "stdout": "omega_q = 0 +- 35.1 Hz\n"}}
    verdicts = same_answers.compare(before, change)
    assert verdicts["wigner/3j-6j"] == "largest relative difference 2"
    assert verdicts["cli/fit"] == "largest relative difference 2"
    assert same_answers.unexpected(verdicts, []) == ["cli/fit", "wigner/3j-6j"]


def test_numbers_in_text_are_compared_as_numbers():
    change = parent()
    change["cli/fit"]["stdout"] = "omega_q = 1694.3 +- 35.1 Hz\n"
    verdict = same_answers.compare(parent(), change)["cli/fit"]
    assert verdict == f"largest relative difference {0.1 / 1694.3:.3g}"


def test_changed_text_is_shown_where_it_differs():
    change = parent()
    change["cli/fit"]["stdout"] = "omega_Q = 1694.2 +- 35.1 Hz\n"
    change["fit/18nT/Delta=0"][0]["nfev"] = None
    verdicts = same_answers.compare(parent(), change)
    assert verdicts["cli/fit"].startswith("text differs: ")
    assert "omega_q" in verdicts["cli/fit"] and "omega_Q" in verdicts["cli/fit"]
    assert "null" in verdicts["fit/18nT/Delta=0"]


def test_an_entry_on_one_side_only_differs():
    change = parent()
    del change["wigner/3j-6j"]
    change["demo/07_new"] = {"exit": 0, "stdout": ""}
    verdicts = same_answers.compare(parent(), change)
    assert list(verdicts) == [*parent(), "demo/07_new"]
    assert verdicts["wigner/3j-6j"] == "only in the parent"
    assert verdicts["demo/07_new"] == "only in this tree"


def test_only_differences_not_expected_fail_the_run():
    change = parent()
    change["wigner/3j-6j"][0] = 0.75
    change["cli/fit"]["exit"] = 2
    verdicts = same_answers.compare(parent(), change)
    assert same_answers.unexpected(verdicts, []) == ["cli/fit", "wigner/3j-6j"]
    assert same_answers.unexpected(verdicts, ["wigner/3j-6j"]) == ["cli/fit"]
    assert same_answers.unexpected(verdicts, ["cli/fit", "wigner/3j-6j"]) == []


def test_demo_timings_are_removed():
    out = "    0.00       0.20     4.76e-07   (0.8 ms)\n  total (12 ms)\n"
    assert same_answers.scrub(out) == (
        "    0.00       0.20     4.76e-07   (ms)\n  total (ms)\n")


def test_readme_command_lines_are_joined_and_stripped_of_comments():
    readme = ("```sh\n# a comment\ntrapquad fit --data scan.csv \\\n"
              "    --tau 1.2e-3   # trailing\npython3 demos/01.py\n```\n"
              "```python\ntrapquad = 1\n```\n")
    assert same_answers.readme_commands(readme) == [
        ["fit", "--data", "scan.csv", "--tau", "1.2e-3"]]
