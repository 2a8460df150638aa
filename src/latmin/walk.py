"""The lattice-point walk.

A system is a list of one-sided rows (a, r), each the condition a.x <= r on
the integer points x, a list of pairs (a, r), each |a.x| <= r, and an
integer box: a an integer normal, r an int, and the box los[j] <= x_j <=
his[j] must hold every solution.  ``runs`` walks the solutions depth first
as runs of points that differ only in their last coordinate; it reads each
pair as its two one-sided rows, so it walks one kind of row, and keeps of a
pair only its values a.prefix along each run.  ``enumerate_points`` lists
the points of one-sided rows, and ``integer_system`` writes the integer
points of a full-dimensional polytope as one-sided rows.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, gt, mul, sub


def integer_system(P, mode: str) -> tuple:
    """The system (rows, los, his) of the integer points of a
    full-dimensional polytope P, read off its integer facets and vertices
    over their common L.

    A facet a.x <= c / L holds on integer points iff a.x <= c // L, and
    a.x < c / L, the "interior" ``mode``, iff a.x <= -(-c // L) - 1; each
    facet makes the one-sided row (a, r) for that bound r.  A facet is not
    paired with its opposite: the walk reads a pair as its two one-sided
    rows, and it builds the run's ``values`` for it.  The box is that of
    P's integer vertices over their L, from the least ceiling to the
    greatest floor of each coordinate.
    """
    L, xs = P.integer_vertices
    if mode == "interior":
        rows = [(a, -(-c // L) - 1) for a, c in P.integer_facets]
    else:
        rows = [(a, c // L) for a, c in P.integer_facets]
    cols = list(zip(*xs))
    return rows, [-(-min(col) // L) for col in cols], [max(col) // L for col in cols]


def enumerate_points(rows, los, his) -> list:
    """The integer points of the system of one-sided ``rows`` in the box
    (``los``, ``his``), d >= 1, sorted lexicographically.

    They are read straight off the runs of ``runs`` in one comprehension,
    one tuple per point; the walk's work per run is O(len(rows)) and its
    memory O(d len(rows)), however wide the box.
    """
    return [prefix + (t,) for prefix, lo, hi, _ in runs(rows, los, his)
            for t in range(lo, hi + 1)]


def runs(rows, los, his, pairs=()):
    """The solutions of the system of one-sided ``rows`` a.x <= r and
    ``pairs`` |a.x| <= r in the box (``los``, ``his``), d >= 1, as runs
    (prefix, lo, hi, values), the points prefix + (t,) for lo <= t <= hi,
    in lexicographic order.  ``values`` holds a.prefix for each pair, in
    order, so a.x = values[i] + c t at each point of the run, c the pair's
    last coefficient; it is the empty tuple if there are no pairs.

    A pair (a, r) is read as its two one-sided rows (a, r) and (-a, r), so
    the walk reads one kind of row at every level: first the pairs' + rows,
    then their - rows, then ``rows``.  A prefix of length j carries one
    value per row, its slack s = r - a.prefix less the least value
    sum_{k>j} min(a_k los[k], a_k his[k]) that the later coordinates can add
    over the box.  So a_j x_j <= s bounds x_j from above for a_j > 0 and
    from below for a_j < 0.  ``_interval`` reads a node's interval off its
    slacks in one pass over the rows, and a child's slacks are built by one
    ``map``.

    The last level is folded into its parent, level d - 2: for each x of the
    parent's interval the run is t <= (b - a x) // c over the rows with a
    last coefficient c > 0 and t >= -((b - a x) // -c) over those with
    c < 0, b the parent's slack plus the row's least last value and a its
    parent coefficient.  So a last-level prefix gets no slack list and no
    node.  A pair keeps one job, its value a.prefix, built only for a run
    that is yielded: r less the least last value of the + row, less the
    parent's slack of that row, is a.prefix at the parent, and the run's
    value adds a x.  For d = 1 the parent is a virtual level 0 with the box
    [0, 0] and a zero column, whose x the prefix leaves out.

    A zero coefficient a_j needs no test below the root: the row's slack is
    its parent's less a_{j-1} x, which the parent's bound on x keeps >= 0
    (or its parent's own, if a_{j-1} = 0).  So a row with a zero last
    coefficient cuts x once, through the parent's bound, and at the root one
    test per row, that its least value over the box is within its bound,
    stands for them all.

    The walk is depth first and keeps, per level above the parent, the
    node's slacks and an iterator over its interval: O(d len(rows)) values
    however wide the box.  It is exhaustive and never scans the whole box
    (Fincke-Pohst 1985; Schnorr-Euchner 1994).
    """
    if any(map(gt, los, his)):
        return
    npairs = len(pairs)
    normals = ([a for a, _ in pairs] + [[-c for c in a] for a, _ in pairs]
               + [a for a, _ in rows])
    bounds = [r for _, r in pairs] * 2 + [r for _, r in rows]
    head = len(los) - 1  # the length of a run's prefix
    if not head:
        normals, los, his = [(0, *a) for a in normals], [0, *los], [0, *his]
    d = len(los)
    cols = list(zip(*normals)) if normals else [()] * d
    # least value of a_j x_j over the box, per level j > 0 and normal a
    mins = [None] + [[c * (lo if c > 0 else hi) for c in col]
                     for col, lo, hi in zip(cols[1:], los[1:], his[1:])]
    slack = bounds
    for least in mins[1:]:
        slack = list(map(sub, slack, least))
    lo, hi = _interval(slack, cols[0], los[0], his[0])
    # the last level's rows with c > 0 and with c < 0: (row, its least value
    # there, its parent coefficient a, |c|)
    parent, last, least = cols[-2], cols[-1], mins[-1]
    cap_rows = [(i, least[i], parent[i], c) for i, c in enumerate(last) if c > 0]
    floor_rows = [(i, least[i], parent[i], -c) for i, c in enumerate(last) if c < 0]
    # per pair, r less its + row's least last value, which less the parent's
    # slack of that row is a.prefix there
    pair_base = list(map(sub, bounds[:npairs], least))
    tlo, thi = los[-1], his[-1]
    values = ()
    prefix, path = (), []  # path: (prefix, slacks + next minima, column, x iterator) per level
    while True:
        # the node (prefix, slack) at level len(path) has the interval lo..hi
        if lo <= hi:
            if len(path) < d - 2:
                path.append((prefix, list(map(add, slack, mins[len(path) + 1])),
                             cols[len(path)], iter(range(lo, hi + 1))))
            else:
                caps = [(slack[i] + m, a, c) for i, m, a, c in cap_rows]
                floors = [(slack[i] + m, a, c) for i, m, a, c in floor_rows]
                if npairs:
                    folds = list(zip(map(sub, pair_base, slack), parent))
                for x in range(lo, hi + 1):
                    top, low = thi, -tlo  # low is minus the run's lower bound
                    for b, a, c in caps:
                        t = (b - a * x) // c
                        if t < top:
                            top = t
                    for b, a, c in floors:
                        t = (b - a * x) // c
                        if t < low:
                            low = t
                    if -low <= top:
                        if npairs:
                            values = [u + a * x for u, a in folds]
                        yield prefix + (x,) if head else (), -low, top, values
        while path:
            prefix, base, col, xs = path[-1]
            x = next(xs, None)
            if x is not None:
                prefix, slack = prefix + (x,), list(map(sub, base, map(mul, col, repeat(x))))
                break
            path.pop()
        else:
            return
        j = len(path)
        lo, hi = _interval(slack, cols[j], los[j], his[j])


def _interval(slack, col, lo, hi) -> tuple:
    """The interval of x_j within [lo, hi] that the slacks of a node at level
    j leave for the column a_j, one row at a time; empty if a row with
    a_j = 0 has a negative slack, which happens at the root only."""
    for s, c in zip(slack, col):
        if c > 0:
            t = s // c
            if t < hi:
                hi = t
        elif c:
            t = -(s // -c)
            if t > lo:
                lo = t
        elif s < 0:
            return 0, -1
    return lo, hi
