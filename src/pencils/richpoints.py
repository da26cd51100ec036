"""Exact computation of the points lying on at least one line of every pencil.

Candidates are the meets u x v of a line u of the smallest pencil with a
line v of the second smallest, so the cost is O(s1*s2*(m-2)) table and
sorted lookups rather than quadratic in the total line count.  One array
kernel does the work.  A point p is on a line of the pencil centred at c
when the join c x p is one of its lines, and for p = u x v that join is
(c.v)u - (c.u)v: each other pencil is probed on two columns of it in two
stages, a residue stage mod Q = 65521 that refuses no member and an exact
stage by projective._member that is the one verdict (see _line_test for
both and why).  The residue stage of every probe runs before any exact
stage, so the exact columns are formed only for the pairs that passed
every residue stage.  Meets are formed only for the pairs that pass every
probe.  Each pencil is asked by a row lookup whether it holds the join of
the seed centres.  The surviving meets of all blocks become one set of
canonical rows by projective._row_set; ProjPoint objects are built only for
excluded centres and when a caller reads ``points``.

Everything is exact integer arithmetic.  The arrays are int64 when a bound
computed in Python ints (see _kernel_dtype) keeps every entry below 2^62,
and object arrays of Python ints otherwise; the code path is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .constructions import PencilConfig
from .errors import PreconditionError
from .projective import (
    ProjPoint,
    _height,
    _keys,
    _member,
    _normalise,
    _row_set,
    cross_rows,
    exact_dtype,
    row_triples,
)

__all__ = ["RichPointReport", "rich_points"]

# First-pencil lines per block of seed pairs: the first residue stage's
# temporaries hold _MEET_BLOCK * s2 residue entries at a time.
_MEET_BLOCK = 32

# The residue stage's prime and a primitive root of it.  Q + 1 < 2^16 slots
# make a 64 KB table per probed pencil; 131071 and 262139 filtered more pairs
# but were no faster at the benchmark's sizes.
_Q, _ROOT = 65521, 17


def _reduce(a):
    """a mod Q, in place, for an int64 array a; numpy divides by a scalar
    several times faster than it takes a remainder."""
    q = a // _Q
    q *= _Q
    a -= q
    return a


@cache
def _inverses():
    """x^-1 mod Q for x = 0..Q-1 as int32, 0 for x = 0, built at first use:
    (g^k)^-1 = g^(Q-1-k) for the powers of the primitive root g, formed by
    doubling: the powers g^0..g^(t-1) times g^t are the powers g^t..g^(2t-1)."""
    powers = np.ones(1, np.int64)
    while len(powers) < _Q - 1:
        powers = np.concatenate((powers, _reduce(powers * (int(powers[-1]) * _ROOT % _Q))))
    powers = powers[:_Q - 1]
    inv = np.zeros(_Q, np.int32)
    inv[powers] = np.concatenate(([1], powers[:0:-1]))
    return inv


def _slots(a, b):
    """The points (a : b) of pairs of int64 arrays, reduced mod Q in place,
    on the projective line over F_Q, as slots 0..Q: a/b mod Q, or Q where
    b = 0.  a = b = 0, which is no point, gets the slot Q too."""
    _reduce(a)
    _reduce(b)
    slot = _reduce(a * _inverses().take(b))
    slot[b == 0] = _Q
    return slot


def _pairs(keep, ii, jj):
    """The (i, j) of a set of pairs where keep holds: ii and jj are a
    column and a row (a block of pairs, keep of their broadcast shape) or
    flat, like keep.  Flat indices and a division by a scalar are several
    times faster than boolean indexing."""
    keep = np.flatnonzero(keep)
    if ii.ndim == 1:
        return ii.take(keep), jj.take(keep)
    rows, cols = np.divmod(keep, len(jj))
    return ii.take(rows), jj.take(cols)


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
    2C^2.  M is read by projective._height."""
    m = _height(*(pc.rows for pc in pencils))
    c = max(abs(v) for pc in pencils for v in pc.centre.coords)
    return exact_dtype(2 * c * max(2 * m * m, c))


def _line_test(pc):
    """The two columns kept of a join l = c x p of the pencil's centre c with
    a point p, and a test on those two columns of joins in two stages:
    whether p is on one of the pencil's lines.  The dropped column k is the
    last nonzero coordinate of c: l_k c_k is -(sum of l_i c_i, i < k), so a
    line through c is fixed by its kept pair, which is zero only for the
    zero join, p = c, and such a p passes both stages.

    The residue stage takes int64 arrays congruent to the two columns mod Q
    (sift forms them from c.u, c.v and the kept columns of u and v, each
    reduced mod Q, so every entry is below Q^2) and passes the pairs whose
    slot, their point (a : b) of the projective line over F_Q (see _slots),
    is the slot of one of the pencil's kept pairs, and the pairs that are
    0 mod Q.  It refuses no member.  The pencil's kept pairs are in normal
    form, so coprime, so none is 0 mod Q and each has a slot.  A member's
    kept pair is lam*(p, q) for one of them, (p, q), and an integer lam;
    when Q does not divide lam it is the same point over F_Q as (p, q), so
    it has the marked slot, and when Q divides lam it is 0 mod Q.  So the
    exact stage, which runs on the pairs that pass, is the one verdict: it
    compares them by _member after _normalise with the pencil's kept pairs,
    keyed once.  Column k is never the first nonzero entry of a line
    through c, so on a canonical row only the gcd step acts; but that gcd
    divides c_k, so when |c_k| > 1 the normalised pairs can leave row order,
    and the keys are sorted."""
    k = max(i for i, v in enumerate(pc.centre.coords) if v)
    kept = [i for i in range(3) if i != k]
    pairs = _normalise(*pc.rows[:, kept].T)
    keyed = _keys(pairs)
    keyed[0].sort()
    held = np.zeros(_Q + 1, dtype=bool)
    held[_slots(*((col % _Q).astype(np.int64) for col in pairs))] = True

    def passes(a, b):
        return held.take(_slots(a, b)) | ((a == 0) & (b == 0))

    def on_pencil(a, b):
        return _member(_normalise(a, b), keyed) | ((a == 0) & (b == 0))

    return kept, passes, on_pencil


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
    centres = np.array([pc.centre.coords for pc in by_size], dtype)
    probes = [(centre, *_line_test(pc)) for centre, pc in zip(centres[2:], rest)]
    found = [np.empty((0, 3), dtype=dtype)]

    def sift(u, v):
        """Add the raw meets u[i] x v[j] that lie on a line of every
        probed pencil, formed only for the (i, j) that pass every probe.  A
        zero meet (u = v, a line both seeds hold) passes every probe and is
        dropped; a meet equal to a probed centre passes that centre's own
        probe, and centres are split off after all meets are sifted.  The
        pairs of a block of u go through one list of stages, the residue
        stage of every probe and then the exact stage of every probe (see
        _line_test).  Each stage is its test and six per-line arrays, c.u,
        c.v and the kept columns of u and v, exact or reduced mod Q once per
        call (object arrays too), and forms the join's kept pair
        cv*u_col - cu*v_col only for the pairs that passed every stage
        before it."""
        exact = [(on_pencil, (u @ c, v @ c, *u[:, kept].T, *v[:, kept].T))
                 for c, kept, _, on_pencil in probes]
        stages = [(passes, [(w % _Q).astype(np.int64) for w in cols])
                  for (_, _, passes, _), (_, cols) in zip(probes, exact)] + exact
        for lo in range(0, len(u), _MEET_BLOCK):
            ii, jj = np.arange(lo, min(lo + _MEET_BLOCK, len(u)))[:, None], np.arange(len(v))
            for test, (cu, cv, u0, u1, v0, v1) in stages:
                cu, cv = cu[ii], cv[jj]
                ii, jj = _pairs(test(cv * u0[ii] - cu * v0[jj], cv * u1[ii] - cu * v1[jj]),
                                ii, jj)
            meets = cross_rows(u[ii], v[jj]).reshape(-1, 3)
            found.append(meets[(meets != 0).any(axis=1)])

    # Distinct centres share at most one line, their join.  If both seeds hold
    # it, its points show up only as meets with a pencil not holding it.
    shared = _row_set(cross_rows(centres[0], centres[1:2]))[0]
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
    rows = _row_set(np.concatenate(found))
    keyed = _keys(centres.T)
    keyed[0].sort()
    is_centre = _member(rows.T, keyed)
    return RichPointReport(
        rows=rows[~is_centre],
        pencil_sizes=config.sizes(),
        config_label=config.label,
        excluded_centres=tuple(ProjPoint(*t) for t in row_triples(rows[is_centre])),
    )
