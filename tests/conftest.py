import numpy as np
import pytest
from hypothesis import settings

# no property test has a per-example deadline: its timing depends on the
# machine and its load, not on the code under test
settings.register_profile("qdilemma", deadline=None, print_blob=True)
settings.load_profile("qdilemma")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
