"""Point-line incidence instances built from a graph and two affine centres,
their exact incidence counts, and the verification of the counting chain
(edge witnesses, incidence lower bound, integer Cauchy-Schwarz).

For centres (x1, y1), (x2, y2) the points are the cartesian product of the
two shifted ratio sets (A - x1)/_G(B - y1) and (A - x2)/_G(B - y2); the
lines, one per pair (b1, b2) in B x B, have equation
(b1 - y1) x - (b2 - y2) y + (x1 - x2) = 0.

An instance shifts each ground set once per centre, to A - x and B - y;
a zero numerator of B - y means y lies in B, which the lemma refuses.  It
reduces each edge's ratio (a - x)/(b - y) once.  The count, a join on
exact mixed-radix keys of (num, den) tuples, and the witness check, an
array membership, read those reduced arrays through projective's tuple
kernels, int64 below exact_dtype's bound, else Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .graphs import BipartiteGraph, neighbourhood_square_sum
from .graphs import _edge_ratios, _shifted
from .projective import _affine_image, _distinct, _exact, _height, _keys, _member, exact_dtype

__all__ = [
    "LemmaChainReport",
    "build_lemma_instance",
    "count_incidences",
    "szemeredi_trotter_ok",
    "verify_lemma_chain",
]


class _Instance(NamedTuple):
    """The lemma's instance after any swap, made only by build_lemma_instance.
    Per centre (x, y): B - y as _shifted's (num, den, height), each edge's
    (a - x)/(b - y) and their distinct values R, sorted, as (num, den)
    arrays.  The points R1 x R2 and the lines l_{b1,b2} stay implicit."""

    graph: BipartiteGraph
    swapped: bool
    centre1: tuple
    right1: tuple
    edges1: tuple
    ratio1: tuple
    centre2: tuple
    right2: tuple
    edges2: tuple
    ratio2: tuple


def build_lemma_instance(graph: BipartiteGraph, centre1, centre2) -> _Instance:
    """Instance for two affine centres over an edge set.

    Requires distinct centres and shifts that miss the denominator ground
    set.  When the centres share their first coordinate the two plane
    coordinates swap roles (the graph is transposed), after which the first
    coordinates always differ and all |B|^2 lines are pairwise distinct.
    """
    c1, c2 = ((_exact(x, Fraction), _exact(y, Fraction)) for x, y in (centre1, centre2))
    if c1 == c2:
        raise PreconditionError(f"centres coincide at {c1}")
    swapped = c1[0] == c2[0]
    if swapped:
        graph = graph.transpose()
        c1 = (c1[1], c1[0])
        c2 = (c2[1], c2[0])
    # x1 != x2 makes (b1, b2) -> line injective
    assert c1[0] != c2[0]

    def side(x, y):
        right = _shifted(graph.right, -y)
        if (right[0] == 0).any():
            raise PreconditionError(f"shift {y} lies in the denominator ground set")
        edges = _edge_ratios(graph, _shifted(graph.left, -x), right)
        return (x, y), right, edges, _distinct(_keys(edges), edges[0].dtype)

    return _Instance(graph, swapped, *side(*c1), *side(*c2))


def count_incidences(inst: _Instance) -> int:
    """Exact |{(p, l) : p on l}| for the instance, as one integer-key join.

    (r1, r2) lies on l_{b1,b2} iff (b1 - y1) r1 + (x1 - x2) = (b2 - y2) r2,
    so I = sum over t of N1(t) N2(t), N1(t) counting the (b1, r1) in B x R1
    with left side t and N2(t) the (b2, r2) in B x R2 with right side t.
    Both sides are reduced (num, den) outer products of the instance's B - y
    and R, O(|B| (|R1| + |R2|)); every entry is at most 2 H_u H_r H_s
    (heights of b - y, the ratios and x1 - x2), so they are int64 below
    2^62 and Python ints otherwise.  Both sides are keyed by _keys in one
    shared box, one (lo, hi) per column, so each t is one exact key; N1 N2
    is summed in Python ints.
    """
    if not len(inst.ratio1[0]):  # no edges; the dtype bound below needs a ratio
        return 0
    shift = inst.centre1[0] - inst.centre2[0]
    (un, ud, hu), (vn, vd, hv) = inst.right1, inst.right2
    hr = _height(*inst.ratio1, *inst.ratio2)
    dtype = exact_dtype(2 * max(hu, hv) * hr * max(abs(shift.numerator), shift.denominator))
    t1 = _affine_image(un, ud, *inst.ratio1, shift, dtype)
    t2 = _affine_image(vn, vd, *inst.ratio2, Fraction(0), dtype)
    box = tuple((int(min(map(np.min, col))), int(max(map(np.max, col)))) for col in zip(t1, t2))
    # each side's keys are freed once np.unique has read them
    k1, c1 = np.unique(_keys(t1, box)[0], return_counts=True)
    del t1
    k2, c2 = np.unique(_keys(t2, box)[0], return_counts=True)
    del t2
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    return sum(a * b for a, b in zip(c1[i1].tolist(), c2[i2].tolist()))


def szemeredi_trotter_ok(incidences: int, n_points: int, n_lines: int) -> bool:
    """Exact check of I <= 4*((P*L)^(2/3) + P + L).

    Cubing both sides keeps the comparison in the integers:
    I - 4(P + L) <= 4 (PL)^(2/3)  <=>  (I - 4(P+L))^3 <= 64 (PL)^2.
    """
    incidences, n_points, n_lines = map(_exact, (incidences, n_points, n_lines))
    slack = incidences - 4 * (n_points + n_lines)
    if slack <= 0:
        return True
    return slack ** 3 <= 64 * (n_points * n_lines) ** 2


@dataclass(frozen=True)
class LemmaChainReport:
    """Exact quantities and verdicts for one instance's counting chain."""

    swapped: bool
    edge_count: int
    left_size: int
    right_size: int
    ratio_sizes: tuple
    point_count: int
    line_count: int
    neighbourhood_square_sum: int
    incidence_count: int
    # every edge's r1 lies in R1 and its r2 in R2, so each (a, b1, b2)
    # with b1, b2 in N(a) witnesses an incidence
    witness_ok: bool
    incidence_lower_ok: bool
    cauchy_schwarz_ok: bool
    szemeredi_trotter_sane: bool
    # advisory: (|R1| + |R2|) * n^(7/4) / |E|^(3/2) with n = max(|A|, |B|);
    # the chain's tail inequality has unspecified constants, so this is
    # recorded, never asserted
    constant_ratio: float | None

    @property
    def all_ok(self) -> bool:
        return (self.witness_ok and self.incidence_lower_ok
                and self.cauchy_schwarz_ok and self.szemeredi_trotter_sane)


def _witness_identity_holds(inst: _Instance) -> bool:
    """Per edge (a, b): the instance's r1 = (a - x1)/(b - y1) is in R1 and its
    r2 = (a - x2)/(b - y2) in R2, as reduced integer pairs.  The identity
    (b1 - y1) r1 - (b2 - y2) r2 + (x1 - x2) = 0 for b1, b2 in N(a) needs no
    check of its own: (b - y1) r1 = a - x1 and (b - y2) r2 = a - x2
    exactly, so it holds by algebra, and only the memberships can fail."""
    sides = ((inst.edges1, inst.ratio1), (inst.edges2, inst.ratio2))
    return all(_member(edges, _keys(ratio)).all() for edges, ratio in sides)


def verify_lemma_chain(graph: BipartiteGraph, centre1, centre2) -> LemmaChainReport:
    """Build the instance and check every exact step of its counting chain.

    Verdicts: every edge's r1 lies in R1 and its r2 in R2, so each
    (a, b1, b2) with b1, b2 in N(a) puts the point (r1(b1), r2(b2)) on the
    line l_{b1,b2}; I(P, L) >= sum over a of |N(a)|^2; the integer
    Cauchy-Schwarz bound |A| * sum >= |E|^2; and the slack incidence
    sanity bound.
    """
    inst = build_lemma_instance(graph, centre1, centre2)
    g = inst.graph
    edges = g.edge_count
    nss = neighbourhood_square_sum(g)
    incidences = count_incidences(inst)
    sizes = (len(inst.ratio1[0]), len(inst.ratio2[0]))
    points, lines = sizes[0] * sizes[1], len(g.right) ** 2
    if edges > 0:
        scale = max(len(g.left), len(g.right))
        ratio = sum(sizes) * scale ** 1.75 / edges ** 1.5
    else:
        ratio = None
    return LemmaChainReport(
        swapped=inst.swapped,
        edge_count=edges,
        left_size=len(g.left),
        right_size=len(g.right),
        ratio_sizes=sizes,
        point_count=points,
        line_count=lines,
        neighbourhood_square_sum=nss,
        incidence_count=incidences,
        witness_ok=_witness_identity_holds(inst),
        incidence_lower_ok=incidences >= nss,
        cauchy_schwarz_ok=len(g.left) * nss >= edges * edges,
        szemeredi_trotter_sane=szemeredi_trotter_ok(incidences, points, lines),
        constant_ratio=ratio,
    )
