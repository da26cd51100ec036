"""Exact computation of the points lying on at least one line of every pencil.

Candidates come from pairwise meets of the two smallest pencils, so the
cost is O(s1*s2*(m-2)) sorted lookups rather than quadratic in the total
line count.  One array kernel does the work: the meets of a block of
first-pencil lines with all second-pencil lines are row-wise cross
products of the pencils' line rows; each other pencil is probed by joining
its centre to every surviving meet, canonicalising the joins and testing
them with projective._member against the pencil's rows, keyed once on
two columns (see _line_test).  Each pencil is asked by a row lookup whether
it holds the join of the seed centres.  The surviving meets stay
canonical rows, deduplicated and sorted in one pass; ProjPoint objects are
built only for excluded centres and when a caller reads ``points``.

Everything is exact integer arithmetic.  The arrays are int64 when a bound
computed in Python ints (see _kernel_dtype) keeps every entry below 2^62,
and object arrays of Python ints otherwise; the code path is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import PencilConfig
from .errors import PreconditionError
from .projective import (
    ProjPoint,
    _distinct_rows,
    _member,
    _pair_keys,
    canonical_rows,
    cross_rows,
    exact_dtype,
    int_rows,
    row_triples,
)

__all__ = ["RichPointReport", "rich_points"]

# First-pencil lines per block of seed meets: temporaries hold
# _MEET_BLOCK * s2 rows at a time.
_MEET_BLOCK = 32


@dataclass(frozen=True, eq=False)
class RichPointReport:
    """The exact rich-point set of a configuration, with bookkeeping: the
    points are ``rows``, a sorted (k, 3) array of distinct canonical
    triples."""

    rows: np.ndarray
    pencil_sizes: tuple
    config_label: str
    # centres that met the richness test for every other pencil; excluded
    # from points (a centre lies on all of its own lines trivially)
    excluded_centres: tuple = field(default_factory=tuple)

    @property
    def points(self) -> frozenset:
        """The rich points as ProjPoints, built on each access."""
        return frozenset(ProjPoint(*t) for t in row_triples(self.rows))

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def infinite_count(self) -> int:
        return int(np.count_nonzero(self.rows[:, 2] == 0))

    def __repr__(self):
        return (f"RichPointReport({self.config_label!r}, count={self.count}, "
                f"infinite={self.infinite_count}, "
                f"excluded={len(self.excluded_centres)})")


def _kernel_dtype(pencils):
    """int64 when 2C*max(2M^2, C) < 2^62 (M the largest |line coefficient|, C
    the largest |centre coordinate|): a meet entry is at most 2M^2, a probe
    join cross(centre, meet) 4CM^2 and the join of two centres 2C^2."""
    m = max((int(np.abs(pc.rows).max()) for pc in pencils if pc.size), default=0)
    c = max(abs(v) for pc in pencils for v in pc.centre.coords)
    return exact_dtype(2 * c * max(2 * m * m, c))


def _line_test(pc):
    """Membership in the pencil's lines for canonical rows of lines l through
    its centre c.  k must be the last nonzero coordinate of c: l_k c_k is
    -(sum of l_i c_i, i < k), so l_k depends only on the coefficients before
    it, l is fixed by the pair left when column k is dropped, and the pairs
    of the sorted rows strictly increase; so do their keys, which _member
    needs sorted.  Each query row is one _member lookup."""
    k = max(i for i, v in enumerate(pc.centre.coords) if v)
    keyed = _pair_keys(*np.delete(pc.rows, k, axis=1).T)
    return lambda rows: _member(*np.delete(rows, k, axis=1).T, keyed)


def rich_points(config: PencilConfig) -> RichPointReport:
    """All points lying on at least one line from every pencil.

    Pencil centres are never reported as rich points; centres that would
    otherwise qualify are listed in excluded_centres.  Points at infinity
    are ordinary members of the result.
    """
    if config.m < 2:
        raise PreconditionError("richness needs at least 2 pencils")
    by_size = sorted(config.pencils, key=lambda pc: pc.size)
    first, second, rest = by_size[0], by_size[1], by_size[2:]
    dtype = _kernel_dtype(config.pencils)
    centres = int_rows((pc.centre.coords for pc in by_size), dtype)
    probes = [(centre, _line_test(pc)) for centre, pc in zip(centres[2:, None], rest)]
    found = [np.empty((0, 3), dtype=dtype)]

    def sift(meets):
        """Add the canonical meets that lie on a line of every rest pencil.
        A meet equal to a rest centre passes that centre's own probe (the
        join is zero); centres are split off after all meets are sifted."""
        for centre, on_pencil in probes:
            joins = cross_rows(centre, meets)
            keep = (joins == 0).all(axis=1)
            live = ~keep
            keep[live] = on_pencil(canonical_rows(joins[live]))
            meets = meets[keep]
        found.append(canonical_rows(meets))

    # Distinct centres share at most one line, their join.  If both seeds hold
    # it, its points show up only as meets with a pencil not holding it.
    shared = canonical_rows(cross_rows(centres[0], centres[1:2]))[0]
    holds = [(pc.rows == shared).all(axis=1).any() for pc in by_size]
    if holds[0] and holds[1]:
        host = next((pc for pc, held in zip(rest, holds[2:]) if not held), None)
        if host is None:
            raise ValueError(f"line {tuple(shared.tolist())} belongs to every pencil; "
                             f"every point on it is rich, so the rich set is infinite")
        sift(cross_rows(shared, host.rows.astype(dtype)))

    first_rows, second_rows = first.rows.astype(dtype), second.rows.astype(dtype)
    for lo in range(0, len(first_rows), _MEET_BLOCK):
        block = first_rows[lo:lo + _MEET_BLOCK, None, :]
        meets = cross_rows(block, second_rows[None, :, :]).reshape(-1, 3)
        # a zero row is the meet of a line shared by both seed pencils
        sift(meets[(meets != 0).any(axis=1)])

    # a found centre met a first- and a second-pencil line and passed every
    # other probe, so it is on a line of every other pencil
    rows = _distinct_rows(np.concatenate(found))
    is_centre = (rows[:, None] == centres).all(axis=2).any(axis=1)
    return RichPointReport(
        rows=rows[~is_centre],
        pencil_sizes=tuple(pc.size for pc in config.pencils),
        config_label=config.label,
        excluded_centres=tuple(ProjPoint(*t) for t in row_triples(rows[is_centre])),
    )
