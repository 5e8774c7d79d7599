import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))   # fit_study

from trapquad.coupling import LevelSpec


@pytest.fixture
def ba_d52() -> LevelSpec:
    """138Ba+ D_5/2: I = 0, J = 5/2, measured Theta."""
    return LevelSpec(
        nuclear_spin=0, electronic_j=2.5, theta_e_a02=3.229,
        label="Ba+ D5/2",
    )


@pytest.fixture
def lu_3d2_bare() -> LevelSpec:
    """176Lu+ 3D2 without hyperfine energies (coupling-only tests)."""
    return LevelSpec(
        nuclear_spin=7, electronic_j=2, theta_e_a02=-1.77, label="Lu+ 3D2",
    )
