"""Exact computation of the points lying on at least one line of every pencil.

Candidates are the meets u x v of a line u of the smallest pencil with a
line v of the second smallest, so the cost is O(s1*s2*(m-2)) table
lookups rather than quadratic in the total line count.  One array kernel
does the work.  A point p is on a line of the pencil centred at c when
the join c x p is one of its lines, and for p = u x v that join is
(c.v)u - (c.u)v: each other pencil is probed on two columns of it, its
kept pair, in two stages (see _line_test for both and why).  Each call
takes one prime Q off a fixed ladder, the least at least _SLACK times
its largest probed pencil (see _LADDER), so the residue stage keeps
filtering as the pencils grow.  Each of the pencil's lines has a slot,
its kept pair's point of the projective line over F_Q, with 0 and
infinity both slot 0 (see _slots), and a table of Q entries per probe
names the first line of each slot.  The residue stage refuses no member:
it works on per-line charts, each seed line's two columns divided by its
dot product with c, mod Q, so a pair costs two subtractions and one
lookup, and it passes the pairs whose slot names a line, and slot 0,
which is always open.  The exact stage is the one verdict: it reads the
slot of the join's exact kept pair and passes the pair when one
cross-multiplication puts it on a line of that slot; no pair is divided
by a gcd.  The first probe's residue stage runs on blocks of seed pairs;
the pairs that pass it are gathered and go through every other stage at
once, the residue stage of every probe before any exact stage, so the
exact columns are formed only for the pairs that passed every residue
stage.  Meets are formed only for the pairs that pass every probe.  Each
pencil is asked by a row lookup whether it holds the join of the seed
centres.  The surviving meets become one set of canonical rows by
projective._row_set; ProjPoint objects are built only for excluded
centres and when a caller reads ``points``.

Everything is exact integer arithmetic.  The arrays are int64 when a bound
computed in Python ints (see _kernel_dtype) keeps every entry and product
below 2^62, and object arrays of Python ints otherwise; the code path is
the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constructions import PencilConfig
from .errors import PreconditionError
from .projective import (
    ProjPoint,
    _canonical,
    _height,
    _row_set,
    cross_rows,
    exact_dtype,
    row_triples,
)

__all__ = ["RichPointReport", "rich_points"]

# First-pencil lines per block of seed pairs: the first residue stage runs
# on _MEET_BLOCK * s2 pairs at a time, and the later stages on the pairs
# that passed it once they number as many, so every stage's temporaries
# hold on the order of _MEET_BLOCK * s2 entries.
_MEET_BLOCK = 32

# The residue stage's primes Q, each with a primitive root.  A probed
# pencil of s lines names at most s + 1 of the Q slots, so a pair off it
# passes the residue stage with a chance of about s/Q, and each probe holds
# a table of Q entries.  A rich_points call takes the least prime at least
# _SLACK times its largest probed pencil, or the last.  Every residue
# product is below 2Q^2 < 2^41, so int64 holds it on the whole ladder.  At
# the benchmark's sizes 16381 held less memory than 65521 and was faster
# than 4093; a slack of 4 takes farey-shift n = 4^7 to 262139 and 4^8 to
# 1048573, where 4^8 ran four times faster than at 65521.  4194301 was
# slower than 1048573 at 4^7 and at m-pencil m=10 n=4096 and n=16384, so
# 1048573 also serves every probe of more than 262143 lines.
_LADDER = ((16381, 2), (65521, 17), (262139, 2), (1048573, 2))
_SLACK = 4


def _reduce(a, prime):
    """a mod prime, in place, for an int64 array a; numpy divides by a
    scalar several times faster than it takes a remainder."""
    q = a // prime
    q *= prime
    a -= q
    return a


@lru_cache(maxsize=1)
def _inverses(prime):
    """(x mod Q)^-1 mod Q for x = 0..2Q-1 as int32, 0 where Q divides x, and
    then 0 for x = 2Q..5Q-1, for a ladder prime Q: (g^k)^-1 = g^(Q-1-k) for
    the powers of Q's primitive root g on the ladder, formed by doubling:
    the powers g^0..g^(t-1) times g^t are the powers g^t..g^(2t-1).  The
    inverses are held twice over so that a difference of residues shifted
    by Q indexes the table as it is, and a difference with the sentinel 3Q
    or -Q of a line without a chart (see _line_test) lands on the zeros,
    which are never written, so they take no memory until read.  The table
    of the last prime used is kept: its written part, 8Q bytes, is 0.13 MB
    at 16381 and 8.4 MB at 1048573, which a process that ran one large
    config would otherwise hold while it runs small ones.  Building it
    again costs 0.3 ms at 16381 and 15-30 ms at 1048573."""
    powers, root = np.ones(1, np.int64), dict(_LADDER)[prime]
    while len(powers) < prime - 1:
        step = int(powers[-1]) * root % prime
        powers = np.concatenate((powers, _reduce(powers * step, prime)))
    powers = powers[:prime - 1]
    inv = np.zeros((5, prime), np.int32)
    inv[:2, powers] = np.concatenate(([1], powers[:0:-1])).astype(np.int32)
    return inv.ravel()


def _slots(a, b, prime):
    """The slot a * b^-1 mod Q of each pair of integer arrays (a, b), int64
    or object, as int64, for a ladder prime Q; 0 where a or b is 0 mod Q.  A
    nonzero pair that Q divides is slotted as the pair divided by Q, as
    often as Q divides it, which is exact and leaves it the same projective
    point.  So every nonzero multiple of a pair has its slot.  A seed line
    w's chart on a probed centre c is _slots(w_i, c.w), _slots(w_j, c.w)."""
    ra, rb = ((w - w // prime * prime).astype(np.int64, copy=False) for w in (a, b))
    slot = _reduce(ra * _inverses(prime).take(rb), prime)
    deep = np.flatnonzero(((ra | rb) == 0) & ((a != 0) | (b != 0)))
    if len(deep):
        slot[deep] = _slots(a[deep] // prime, b[deep] // prime, prime)
    return slot


def _pairs(keep, ii, jj):
    """The (i, j) of a set of pairs where keep holds: ii and jj are a
    column and a row (a block of pairs, keep of their broadcast shape) or
    flat, like keep.  Flat indices and a division by a scalar are several
    times faster than boolean indexing."""
    keep = np.flatnonzero(keep)
    rows, cols = (keep, keep) if ii.ndim == 1 else np.divmod(keep, len(jj))
    return ii.take(rows), jj.take(cols)


def _is_row(rows, row):
    """Where a (k, 3) array holds one row, compared column by column: numpy
    reduces along rows of three several times slower."""
    return (rows[:, 0] == row[0]) & (rows[:, 1] == row[1]) & (rows[:, 2] == row[2])


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
    """int64 when 2C*max(2M^3, C) < 2^62 (M the largest |line coefficient|, C
    the largest |centre coordinate|): a meet entry is at most 2M^2, a probe
    join c x (u x v) = (c.v)u - (c.u)v is cross(centre, meet), so at most
    4CM^2, each product (c.u)v_i at most 3CM^2, the exact stage's product
    of a join entry and a line's at most 4CM^3, and the join of two centres
    2C^2.  M is read by projective._height."""
    m = _height(*(pc.rows for pc in pencils))
    c = max(abs(v) for pc in pencils for v in pc.centre.coords)
    return exact_dtype(2 * c * max(2 * m**3, c))


def _line_test(pc, prime):
    """A test whether a meet p = u x v of a seed line u and a seed line v is
    on one of the pencil's lines, in two stages, with its slots taken over
    F_Q for the ladder prime Q = prime: a function of the two seeds' line
    arrays that returns them, each a function of (i, j) index arrays (see
    _pairs) giving the pairs that pass.  p is on a line of the pencil when
    the join of its centre c with p, l = (c.v)u - (c.u)v, is one.
    The dropped column k is the last nonzero coordinate of c: l_k c_k is
    -(sum of l_i c_i, i < k), so a line through c is fixed by its kept pair
    up to scale, and that pair is zero only for the zero join, p = c or
    u = v, which is on every line.  The pencil must hold a line when a pair
    reaches the exact stage; rich_points probes only pencils at least as
    large as both seeds, so an empty one only when no pair is sifted.

    The pencil's lines are ordered by the slot of their kept pairs (p, q)
    (see _slots) and held with a copy of the first one in front.  A table
    of Q entries names, for slot 0 and each slot of a line, the place where
    the lines of that slot start in that order (line 0 for slot 0 with no
    line), and holds 0 for every other slot; ``more`` marks the lines that
    have another of their slot after them.

    The residue stage refuses no member.  A seed line w has a chart, its
    kept pair divided by c.w mod Q, when Q does not divide c.w.  When u and
    v both have one, l's kept pair is (c.u)(c.v), a unit mod Q, times the
    difference (a, b) of their charts, so the two are the same point of the
    projective line over F_Q, or both 0 mod Q.  The difference's slot is
    a * b^-1 mod Q, read off the inverse table, which holds 0 at 0, so it is
    0 where a or b is 0 mod Q.  A line without a chart has the sentinel 3Q
    (u) or -Q (v) for b, so each of its pairs reads a 0 past the inverses
    and takes slot 0.  The stage passes the pairs whose slot the table
    names.  A member's kept pair is lam*(p, q) for the coprime kept pair
    (p, q) of its line and an integer lam; when Q divides neither lam nor q
    it is the same point over F_Q as (p, q), so it has that slot, and
    otherwise its second entry is 0 mod Q, so its slot is 0.

    So the exact stage, which runs on the pairs that pass, is the one
    verdict.  It forms l's exact kept pair (x, y), reads its slot, and
    passes it when x*q = y*p for one of the lines (p, q) of that slot, from
    the one the table names on while ``more`` holds: then (x, y) is a
    multiple of (p, q), l is that line or zero, and a pair on a line of
    another slot, or the copy in front, is on a line too.  The test does not
    depend on scale, so no pair is divided by its gcd.  A member's (x, y) is
    lam times its line's coprime pair, and the line's kept pair that pair
    times a divisor of c_k, so both have the coprime pair's slot."""
    c = np.array(pc.centre.coords, object)
    kept = [i for i in range(3) if i != np.flatnonzero(c)[-1]]
    slots = _slots(*pc.rows[:, kept].T, prime)
    order = np.argsort(slots)
    slots, (p, q) = slots[order], pc.rows[:, kept].T.take(np.r_[order[:1], order], axis=1)
    more = np.concatenate(([False], slots[1:] == slots[:-1], [False]))
    first = np.zeros(prime, np.min_scalar_type(len(slots)))
    first[np.r_[0, slots]] = np.searchsorted(slots, np.r_[0, slots]) + 1

    def stages(u, v):
        (cu, u0, u1), (cv, v0, v1) = ((w @ c.astype(w.dtype), *w[:, kept].T) for w in (u, v))
        au, bu = _slots(u0, cu, prime), _slots(u1, cu, prime) + prime
        av, bv = _slots(v0, cv, prime), _slots(v1, cv, prime)
        bu[cu % prime == 0], bv[cv % prime == 0] = 3 * prime, -prime
        inv = _inverses(prime)

        def residue(ii, jj):
            return first.take(_reduce((au[ii] - av[jj]) * inv.take(bu[ii] - bv[jj]), prime)) != 0

        def exact(ii, jj):
            a, b = cu[ii], cv[jj]
            x, y = b * u0[ii] - a * v0[jj], b * u1[ii] - a * v1[jj]
            line, todo = first.take(_slots(x, y, prime)), np.arange(len(x))
            hit = np.zeros(len(x), bool)
            while len(todo):
                hit[todo] = x[todo] * q.take(line[todo]) == y[todo] * p.take(line[todo])
                todo = todo[~hit[todo] & more.take(line[todo])]
                line[todo] += 1
            return hit

        return residue, exact

    return stages


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
    top = _SLACK * max((pc.size for pc in rest), default=0)
    prime = next((q for q, _ in _LADDER if q >= top), _LADDER[-1][0])
    tests = [_line_test(pc, prime) for pc in rest]
    found = [np.empty((0, 3), dtype=dtype)]

    def sift(u, v):
        """Add the raw meets u[i] x v[j] that lie on a line of every
        probed pencil, formed only for the (i, j) that pass every probe.  A
        zero meet (u = v, a line both seeds hold) has a zero join, on slot 0
        and the zero pair, so it passes every probe and is dropped; a meet
        equal to a probed centre passes that centre's own probe, and centres
        are split off after all meets are sifted.  The stages are the
        residue stage of every probe and then the exact stage of every probe
        (see _line_test), each run on the pairs that passed every stage
        before it.  The first runs on each block of _MEET_BLOCK lines of u
        against all of v; its survivors are held until they number one
        block's pairs, or u ends, and then go through the other stages and
        their meets are formed, all on flat indices.  With no probe each
        block's meets are formed as one broadcast."""
        stages = [stage for kind in zip(*(test(u, v) for test in tests)) for stage in kind]
        batch, size = [], 0
        for lo in range(0, len(u), _MEET_BLOCK):
            ii, jj = np.arange(lo, min(lo + _MEET_BLOCK, len(u)))[:, None], np.arange(len(v))
            if stages:
                ii, jj = _pairs(stages[0](ii, jj), ii, jj)
            batch.append((ii, jj))
            size += np.broadcast(ii, jj).size
            if size < _MEET_BLOCK * len(v) and lo + _MEET_BLOCK < len(u):
                continue
            ii, jj = map(np.concatenate, zip(*batch))
            batch, size = [], 0
            for stage in stages[1:]:
                ii, jj = _pairs(stage(ii, jj), ii, jj)
            meets = cross_rows(u[ii], v[jj]).reshape(-1, 3)
            found.append(meets[(meets != 0).any(axis=1)])

    # Distinct centres share at most one line, their join.  If both seeds hold
    # it, its points show up only as meets with a pencil not holding it.
    shared = np.array(_canonical(*cross_rows(centres[0], centres[1]).tolist()), dtype)
    holds = [_is_row(pc.rows, shared).any() for pc in by_size]
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
    is_centre = np.logical_or.reduce([_is_row(rows, centre) for centre in centres])
    return RichPointReport(
        rows=rows[~is_centre],
        pencil_sizes=config.sizes(),
        config_label=config.label,
        excluded_centres=tuple(ProjPoint(*t) for t in row_triples(rows[is_centre])),
    )
