import pytest

from gamowkit import ResonancePole


@pytest.fixture
def pole():
    """E_R = 1, Gamma = 0.2: the CLI's default resonance, written out apart from the package."""
    return ResonancePole(1.0, 0.2)
