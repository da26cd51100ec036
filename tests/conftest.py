import pytest

import pencils.projective


@pytest.fixture
def object_dtype(monkeypatch):
    """Every exact_dtype call picks object arrays of Python ints, so the
    kernels run the path that large coefficients take."""
    monkeypatch.setattr(pencils.projective, "_INT64_BOUND", 0)
