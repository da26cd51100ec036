import pytest
from hypothesis import settings

import pencils.projective

# Every property test is derandomized with a fixed example budget, so
# tier-1 runs the same examples each time.
settings.register_profile("exact", derandomize=True, database=None, max_examples=40,
                          deadline=None)
settings.load_profile("exact")


@pytest.fixture
def object_dtype(monkeypatch):
    """Every exact_dtype call picks object arrays of Python ints, so the
    kernels run the path that large coefficients take."""
    monkeypatch.setattr(pencils.projective, "_INT64_BOUND", 0)
