"""Independent brute-force oracles.

Everything here is written from the raw definitions with its own helpers
(no imports from the package), so the main implementation can be checked
against code that shares none of its internals.  Keep these slow and
obvious: triple loops, full enumeration, no shortcuts.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


def farey_shift_enumeration(n):
    """Enumerate the divisibility-graph construction at exponent 0.

    A = { i/j in lowest terms : 1 <= i <= s, s//2 <= j <= s }, s = isqrt(n),
    B = { 1/l : 1 <= l <= n }, edges (i/j, 1/l) whenever j divides l.
    Returns (A_set, B_set, edge_list) with A as Fraction values.
    """
    s = isqrt(n)
    j_lo = max(1, s // 2)
    a_set = set()
    for j in range(j_lo, s + 1):
        for i in range(1, s + 1):
            if gcd(i, j) == 1:
                a_set.add(Fraction(i, j))
    b_set = {Fraction(1, l) for l in range(1, n + 1)}
    edges = []
    for j in range(j_lo, s + 1):
        for i in range(1, s + 1):
            if gcd(i, j) != 1:
                continue
            for l in range(1, n + 1):
                if l % j == 0:
                    edges.append((Fraction(i, j), Fraction(1, l)))
    return a_set, b_set, edges


def symmetric_enumeration(n):
    """Enumerate the same-denominator coprime construction.

    A = { i/j in lowest terms : 1 <= i, j <= isqrt(n) }, edges
    (i/j, k/j) with both numerators coprime to the shared denominator.
    """
    s = isqrt(n)
    a_set = set()
    edges = []
    for j in range(1, s + 1):
        nums = [i for i in range(1, s + 1) if gcd(i, j) == 1]
        for i in nums:
            a_set.add(Fraction(i, j))
        for i in nums:
            for k in nums:
                edges.append((Fraction(i, j), Fraction(k, j)))
    return a_set, edges


def multiplication_table_bruteforce(n):
    """|{a*b : 1 <= a, b <= n}| by enumerating all n^2 products."""
    return len({a * b for a in range(1, n + 1) for b in range(1, n + 1)})


# --- projective helpers, duplicated on purpose -------------------------------

def _canon(t):
    x, y, z = t
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    if g == 0:
        raise ValueError("zero triple")
    x, y, z = x // g, y // g, z // g
    for c in (x, y, z):
        if c != 0:
            if c < 0:
                x, y, z = -x, -y, -z
            break
    return (x, y, z)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def join(p, q):
    """The canonical line triple through two distinct homogeneous points."""
    return _canon(_cross(p, q))


def pencil_lines_bruteforce(lines, queries):
    """Whether each query line triple is one of ``lines``: its canonical
    triple looked up in the set of canonical line triples."""
    canonical = {_canon(line) for line in lines}
    return [_canon(query) in canonical for query in queries]


def _on_line(point, line):
    return sum(p * l for p, l in zip(point, line)) == 0


def collinear_bruteforce(points):
    """True iff some three of the homogeneous triples are collinear."""
    for p, q, r in combinations(points, 3):
        det = (p[0] * (q[1] * r[2] - q[2] * r[1])
               - p[1] * (q[0] * r[2] - q[2] * r[0])
               + p[2] * (q[0] * r[1] - q[1] * r[0]))
        if det == 0:
            return True
    return False


def rich_points_bruteforce(pencil_lines):
    """All-pairs rich point oracle.

    ``pencil_lines`` is a list of lists of homogeneous line triples (one
    list per pencil).  Candidates are the meets of every pair of lines
    taken from every pair of pencils; a candidate is rich when each
    pencil has at least one line through it.  Returns the set of
    canonical point triples.
    """
    candidates = set()
    for ia in range(len(pencil_lines)):
        for ib in range(ia + 1, len(pencil_lines)):
            for l1 in pencil_lines[ia]:
                for l2 in pencil_lines[ib]:
                    if _canon(l1) == _canon(l2):
                        continue
                    candidates.add(_canon(_cross(l1, l2)))
    rich = set()
    for cand in candidates:
        if all(any(_on_line(cand, l) for l in lines) for lines in pencil_lines):
            rich.add(cand)
    return rich


def incidence_count_bruteforce(points, lines):
    """I(P, L) by substituting every affine rational point into every line.

    ``points`` are (x, y) Fraction pairs, ``lines`` coefficient triples
    [a, b, c] (integers or Fractions) meaning a*x + b*y + c = 0.
    """
    count = 0
    for (x, y) in points:
        for (a, b, c) in lines:
            if a * x + b * y + c == 0:
                count += 1
    return count


def _as_set(pair):
    """A ratio set held as (numerator, denominator) integer arrays, as a
    frozenset of Fractions."""
    num, den = pair
    return frozenset(map(Fraction, num.tolist(), den.tolist()))


def incidence_count_hashjoin(right, centre1, centre2, ratio1, ratio2):
    """I for the lemma instance with denominators ``right``, affine centres
    (x1, y1), (x2, y2) and ratio sets ``ratio1``, ``ratio2`` (all Fractions),
    as one hash join.

    With x1 != x2, (r1, r2) lies on l_{b1,b2} iff
    (b1 - y1) r1 + (x1 - x2) = (b2 - y2) r2, so I = sum over t of
    N1(t) N2(t), N1 counting the (b1, r1) whose left side is t and N2 the
    (b2, r2) whose right side is t.
    """
    (x1, y1), (x2, y2) = centre1, centre2
    n1 = Counter((b - y1) * r + (x1 - x2) for b in right for r in ratio1)
    n2 = Counter((b - y2) * r for b in right for r in ratio2)
    return sum(c * n2[t] for t, c in n1.items())


def witness_identity_pairwise(left, right, edges, centre1, centre2, ratio1, ratio2):
    """The lemma's witness identity over every pair of neighbours.

    ``left`` and ``right`` are Fraction sequences, ``edges`` (i, j) index
    pairs, the centres (x, y) Fraction pairs.  True iff for every left
    index a and all b1, b2 in N(a), r1 = (a - x1)/(b1 - y1) is in ratio1,
    r2 = (a - x2)/(b2 - y2) is in ratio2 and
    (b1 - y1) r1 - (b2 - y2) r2 + (x1 - x2) = 0.
    """
    (x1, y1), (x2, y2) = centre1, centre2
    neighbours = {}
    for i, j in edges:
        neighbours.setdefault(i, []).append(j)
    for i, columns in neighbours.items():
        a = left[i]
        for j1 in columns:
            for j2 in columns:
                u, v = right[j1] - y1, right[j2] - y2
                r1, r2 = (a - x1) / u, (a - x2) / v
                if r1 not in ratio1 or r2 not in ratio2:
                    return False
                if u * r1 - v * r2 + (x1 - x2) != 0:
                    return False
    return True


def _ln_bracket(n, terms=40):
    """Rationals lo <= ln n <= hi for an int n >= 1: ln n = e ln 2 +
    ln(n / 2^e) with 2^e <= n < 2^(e + 1), and ln x = 2(y + y^3/3 + ...)
    for y = (x - 1)/(x + 1), which is 1/3 for ln 2 and below 1/3 for
    n / 2^e; the terms after the first `terms` add at most
    2 y^(2 terms + 1) / (1 - y^2)."""
    e = n.bit_length() - 1
    lo = hi = Fraction(0)
    for scale, y in ((e, Fraction(1, 3)), (1, Fraction(n - 2**e, n + 2**e))):
        s = 2 * sum(y ** (2 * k + 1) / (2 * k + 1) for k in range(terms))
        lo += scale * s
        hi += scale * (s + 2 * y ** (2 * terms + 1) / (1 - y * y))
    return lo, hi


def log_quotient_floor(n, d, sqrt_numerator=False):
    """floor(n / (ln n)^d), or of sqrt(n) / (ln n)^d, for an int n >= 3 and
    a Fraction d = p/q > 0, in integer and Fraction arithmetic: r is at
    most the quotient iff r^(2q) (ln n)^(2p) <= n^(2q) (n^q for sqrt(n)),
    decided at both ends of _ln_bracket, and r is found by bisection over
    0..n + 1.  Raises ArithmeticError when the bracket cannot decide."""
    p, q = d.numerator, d.denominator
    lo, hi = _ln_bracket(n)
    top = n ** (q if sqrt_numerator else 2 * q)

    def at_most(r):
        if r ** (2 * q) * hi ** (2 * p) <= top:
            return True
        if r ** (2 * q) * lo ** (2 * p) > top:
            return False
        raise ArithmeticError(f"ln {n} bracket too wide for r = {r}")

    a, b = 0, n + 1  # ln n > 1, so the quotient is at most n
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if at_most(mid) else (a, mid)
    return a
