"""The effective-intersection count of a monomial line: a test oracle
for the global dimension, which no code in the package calls.

On a linearly oriented line with monomial relations, gldim is one more
than the longest effective chain of relation intervals; the tests compare
`global_dimension` and the resolution with that count.
"""

from silted.quivers import _ideal_words


def _line_vertex_order(q):
    """Vertex order along a linearly oriented A-type quiver, or None."""
    if len(q.arrows) != len(q.vertices) - 1:
        return None
    starts = [v for v in q.vertices if not q.in_arrows[v]]
    if len(starts) != 1:
        return None
    order = [starts[0]]
    while q.out_arrows[order[-1]]:
        outs = q.out_arrows[order[-1]]
        if len(outs) != 1:
            return None
        order.append(outs[0].tgt)
    return order if len(order) == len(q.vertices) else None


def effective_intersection_count(qwr):
    """Maximum size N of an effective chain of interval relations.

    Relations on a linearly oriented line are intervals [i, j] in the
    position order.  An effective chain is a subset which, ordered by
    start, has consecutive members intersecting (i < r < j < s) and no
    other intersections among its members.  The caller may then assert
    gldim = N + 1 (checked against resolution-based global dimension in
    the test suite, including chains that skip intermediate relations).
    """
    order = _line_vertex_order(qwr.quiver)
    if order is None:
        raise ValueError("effective_intersection_count needs a linearly oriented line")
    if not all(rel.is_monomial() for rel in qwr.relations):
        raise ValueError("effective_intersection_count needs monomial relations")
    pos = {v: k for k, v in enumerate(order)}
    arrow = qwr.quiver.arrow_by_id
    # on a line a word is its interval, and a subword a subinterval
    minimal = sorted((pos[arrow[w[0]].src], pos[arrow[w[-1]].tgt]) for w in _ideal_words(qwr))
    if not minimal:
        return 0

    def intersects(p, q):
        (i, j), (r, s) = sorted([p, q])
        if (i, j) == (r, s):
            return False
        return i < r < j < s

    best = 0
    m = len(minimal)

    def extend(chain, start):
        nonlocal best
        best = max(best, len(chain))
        for k in range(start, m):
            q = minimal[k]
            if chain:
                if not intersects(chain[-1], q):
                    continue
                if any(intersects(p, q) for p in chain[:-1]):
                    continue
            extend(chain + [q], k + 1)

    extend([], 0)
    return best
