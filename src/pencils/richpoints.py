"""Exact computation of the points lying on at least one line of every pencil.

Candidates are the meets u x v of a line u of the smallest pencil with a
line v of the second smallest, so the cost is O(s1*s2*(m-2)) sorted
lookups rather than quadratic in the total line count.  One array kernel
does the work.  A point p is on a line of the pencil centred at c when the
join c x p is one of its lines, and for p = u x v that join is
(c.v)u - (c.u)v: each other pencil is probed on two columns of it, formed
from the dot products of the seed lines with c (over a block of u and all
of v at the first probe, over the surviving pairs after it) and tested by
projective._member against the pencil's rows, keyed once, both in
projective's normal form (see _line_test).  Meets are formed only for the
pairs that pass every probe.  Each pencil is asked by a row lookup whether
it holds the join of the seed centres.  The surviving meets are canonical
rows, sorted and deduplicated on their tuple keys; ProjPoint objects are
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
    _keys,
    _member,
    _normalise,
    canonical_rows,
    cross_rows,
    exact_dtype,
    int_rows,
    row_triples,
)

__all__ = ["RichPointReport", "rich_points"]

# First-pencil lines per block of seed pairs: the first probe's temporaries
# hold _MEET_BLOCK * s2 join entries at a time.
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
    join c x (u x v) = (c.v)u - (c.u)v is cross(centre, meet), so at most
    4CM^2, each product (c.u)v_i at most 3CM^2, and the join of two centres
    2C^2."""
    m = max((int(np.abs(pc.rows).max()) for pc in pencils if pc.size), default=0)
    c = max(abs(v) for pc in pencils for v in pc.centre.coords)
    return exact_dtype(2 * c * max(2 * m * m, c))


def _line_test(pc):
    """The two columns kept of a join l = c x p of the pencil's centre c with
    a point p, and a test on those two columns of joins: whether p is on one
    of the pencil's lines.  The dropped column k is the last nonzero
    coordinate of c: l_k c_k is -(sum of l_i c_i, i < k), so a line through
    c is fixed by its kept pair, which is zero only for the zero join, p = c,
    and such a p passes.  Pairs are compared by _member after _normalise, on
    the pencil's kept pairs keyed once.  Column k is never the first nonzero
    entry of a line through c, so on a canonical row only the gcd step acts;
    but that gcd divides c_k, so when |c_k| > 1 the normalised pairs can
    leave row order, and the keys are sorted."""
    k = max(i for i, v in enumerate(pc.centre.coords) if v)
    kept = [i for i in range(3) if i != k]
    keyed = _keys(_normalise(*pc.rows[:, kept].T))
    keyed[0].sort()
    return kept, lambda a, b: _member(_normalise(a, b), keyed) | ((a == 0) & (b == 0))


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
    probes = [(centre, *_line_test(pc)) for centre, pc in zip(centres[2:], rest)]
    found = [np.empty((0, 3), dtype=dtype)]

    def sift(u, v):
        """Add the canonical meets u[i] x v[j] that lie on a line of every
        probed pencil, formed only for the (i, j) that pass every probe.  A
        zero meet (u = v, a line both seeds hold) passes every probe and is
        dropped; a meet equal to a probed centre passes that centre's own
        probe, and centres are split off after all meets are sifted."""
        dots = [(u @ centre, v @ centre) for centre, _, _ in probes]
        for lo in range(0, len(u), _MEET_BLOCK):
            ii, jj = np.arange(lo, min(lo + _MEET_BLOCK, len(u)))[:, None], np.arange(len(v))
            for (cu, cv), (_, kept, on_pencil) in zip(dots, probes):
                keep = on_pencil(*(cv[jj] * u[ii, col] - cu[ii] * v[jj, col] for col in kept))
                ii, jj = (w[keep] for w in np.broadcast_arrays(ii, jj))
            meets = cross_rows(u[ii], v[jj]).reshape(-1, 3)
            found.append(canonical_rows(meets[(meets != 0).any(axis=1)]))

    # Distinct centres share at most one line, their join.  If both seeds hold
    # it, its points show up only as meets with a pencil not holding it.
    shared = canonical_rows(cross_rows(centres[0], centres[1:2]))[0]
    holds = [(pc.rows == shared).all(axis=1).any() for pc in by_size]
    if holds[0] and holds[1]:
        host = next((pc for pc, held in zip(rest, holds[2:]) if not held), None)
        if host is None:
            raise ValueError(f"line {tuple(shared.tolist())} belongs to every pencil; "
                             f"every point on it is rich, so the rich set is infinite")
        sift(shared[None], host.rows.astype(dtype))
    sift(first.rows.astype(dtype), second.rows.astype(dtype))

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
