"""Exact computation of the points lying on at least one line of every pencil.

Candidates come from pairwise meets of the two smallest pencils, so the
cost is O(s1*s2*(m-2)) hash tests rather than quadratic in the total line
count.  One array kernel does the work: the meets of a block of
first-pencil lines with all second-pencil lines are row-wise cross
products; each other pencil is probed by joining its centre to every
surviving meet, canonicalising the joins and looking them up in the
pencil's set of line triples.  ProjPoint objects are built only for the
points that survive.

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


@dataclass(frozen=True)
class RichPointReport:
    """The exact rich-point set of a configuration, with bookkeeping."""

    points: frozenset
    pencil_sizes: tuple
    config_label: str
    # centres that met the richness test for every other pencil; excluded
    # from points (a centre lies on all of its own lines trivially)
    excluded_centres: tuple = field(default_factory=tuple)

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def infinite_count(self) -> int:
        return sum(p.is_infinite for p in self.points)

    def sorted_points(self) -> list[ProjPoint]:
        return sorted(self.points)

    def __repr__(self):
        return (f"RichPointReport({self.config_label!r}, count={self.count}, "
                f"infinite={self.infinite_count}, "
                f"excluded={len(self.excluded_centres)})")


def _kernel_dtype(pencils):
    """int64 when 4*C*M^2 < 2^62, with M the largest |line coefficient| and
    C the largest |centre coordinate|: a meet entry is at most 2M^2 and a
    probe entry, cross(centre, meet), at most 4CM^2."""
    coeffs = [v for pc in pencils for l in pc.lines for v in l.coeffs] or [0]
    m = max(max(coeffs), -min(coeffs))
    c = max(abs(v) for pc in pencils for v in pc.centre.coords)
    return exact_dtype(4 * c * m * m)


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
    # A line shared by the two seed pencils witnesses both at once; points
    # on it only show up as meets with a pencil NOT containing that line.
    hosts = []
    for shared in first.lines & second.lines:
        host = next((pc for pc in rest if shared not in pc.lines), None)
        if host is None:
            raise ValueError(
                f"line {shared} belongs to every pencil; every point on it "
                f"is rich, so the rich set is infinite"
            )
        hosts.append((shared, host))

    dtype = _kernel_dtype(config.pencils)
    probes = [(int_rows([pc.centre.coords], dtype), {l.coeffs for l in pc.lines})
              for pc in rest]
    found = set()

    def sift(meets):
        """Add the canonical meets that lie on a line of every rest pencil.
        A meet equal to a rest centre passes that centre's own probe (the
        join is zero); centres are split off after all meets are sifted."""
        for centre, lines in probes:
            joins = cross_rows(centre, meets)
            keep = (joins == 0).all(axis=1)
            live = ~keep
            keep[live] = np.fromiter(
                map(lines.__contains__, row_triples(canonical_rows(joins[live]))),
                dtype=bool, count=np.count_nonzero(live))
            meets = meets[keep]
        found.update(row_triples(canonical_rows(meets)))

    first_rows = int_rows((l.coeffs for l in first.lines), dtype)
    second_rows = int_rows((l.coeffs for l in second.lines), dtype)
    for lo in range(0, len(first_rows), _MEET_BLOCK):
        block = first_rows[lo:lo + _MEET_BLOCK, None, :]
        meets = cross_rows(block, second_rows[None, :, :]).reshape(-1, 3)
        # a zero row is the meet of a line shared by both seed pencils
        sift(meets[(meets != 0).any(axis=1)])
    for shared, host in hosts:
        sift(cross_rows(int_rows([shared.coeffs], dtype),
                        int_rows((l.coeffs for l in host.lines), dtype)))

    # a found centre met a first- and a second-pencil line and passed every
    # other probe, so it is on a line of every other pencil
    centres = {pc.centre.coords for pc in config.pencils}
    return RichPointReport(
        points=frozenset(ProjPoint(*t) for t in found - centres),
        pencil_sizes=tuple(pc.size for pc in config.pencils),
        config_label=config.label,
        excluded_centres=tuple(sorted(ProjPoint(*t) for t in found & centres)),
    )
