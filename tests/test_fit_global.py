"""A slice of tools/fit_study.py's global study, default_rng(0): a fit that
finds the global optimum ends with chi^2 no larger than at the truth, both
on the dense average.  ROADMAP item 3 is the fault these cases pin: from
800 nT at tau = pi/(0.25 omega_q) the seed picks omega_q on the noiseless
model and sigma_B on the 25-node rule, and the fit ends at 3.4-3.5 times the
true omega_q at exit 0, 2 uT included, whose truth lies past the 3073-node
cap.  Item 3 turns the expected failures into passes."""

import pytest

from fit_study import run_case

ITEM_3 = "ROADMAP item 3: the fit ends at a wrong local optimum"
# an error raised on the way, rather than the failed check, is no expected failure
WRONG_OPTIMUM = pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_3)


@pytest.mark.parametrize("sigma_nt", [
    300,
    pytest.param(800, marks=WRONG_OPTIMUM),
    pytest.param(1200, marks=WRONG_OPTIMUM),
])
def test_fit_ends_no_higher_than_the_truth(sigma_nt):
    case = run_case(sigma_nt, 0)
    assert case["exit"] == 0
    assert case["chi2_fit"] <= case["chi2_truth"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=ITEM_3 + ", and exits 0 where 3 is due")
def test_past_the_node_cap_is_a_numerical_failure():
    # QuadratureConvergenceError or FitError: the CLI's exit 3
    assert run_case(2000, 0)["exit"] == 3
