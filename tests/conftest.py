from collections import Counter

import pytest
from hypothesis import settings

import pencils.projective
import pencils.serialize

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


@pytest.fixture
def bulk_reads(monkeypatch):
    """A Counter of the texts that serialize.loads read in bulk ("bulk") and
    of the ones its bulk path sent back to json.loads ("fallback")."""
    reads, bulk = Counter(), pencils.serialize._bulk

    def counting(data):
        tree = bulk(data)
        reads["bulk" if tree is not None else "fallback"] += 1
        return tree

    monkeypatch.setattr(pencils.serialize, "_bulk", counting)
    return reads
