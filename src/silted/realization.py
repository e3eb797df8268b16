"""The realization complex: one explicit 2-term tilting complex per D
orientation, with the checks `silted realization` reports on it.

Nothing here runs in a census or an enumeration, so the CLI imports this
module for its realization command alone, as it imports `formulas` for
count.  `realization_complex` builds the complex from the catalog's tau
and its injectives and presents End(S); the report compares End(S) with
`expected_realization_end` (the linear D_n quiver with one cubic zero
relation) and asks whether its quiver is gradable (`is_gradable`).
"""

from .census import AlgebraSpec, _object_text, get_catalog, naming_failure
from .endo import end_algebra
from .quivers import Path, QuiverWithRelations, are_isomorphic, d_linear_quiver, monomial_relation
from .silting import is_silting, is_two_term_tilting, two_term


def is_gradable(q):
    """True iff a vertex grading exists raising degree by 1 along every arrow
    (equivalently every undirected closed walk has signed degree zero)."""
    deg = {}
    for start in q.vertices:
        if start in deg:
            continue
        deg[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            steps = [(a.tgt, 1) for a in q.out_arrows[v]] + [(a.src, -1) for a in q.in_arrows[v]]
            for w, step in steps:
                if w not in deg:
                    deg[w] = deg[v] + step
                    stack.append(w)
                elif deg[w] != deg[v] + step:
                    return False
    return True


def expected_realization_end(n):
    """The D_n line-with-fork quiver with the single cubic zero relation."""
    q = d_linear_quiver(n)
    return QuiverWithRelations(q, [monomial_relation(Path(5, 1, (4, 3, 1)))])


def realization_complex(orientation, n):
    """The explicit 2-term tilting complex whose heart detects the
    realization-functor failure, with its verification report.

    orientation 'linear': tau^{-1}P(1) + sum_{i>=5} tau^{-1}P(i) + I(2)
    + I(n-1) + the shifted projective P(n)[1].  orientation 'reversed':
    tau^{-2}P(1) + sum_{5<=i<n} tau^{-2}P(i) + tau^{-1}P(n) + P(2)[1]
    + P(n-1)[1] + P(n)[1].
    """
    if n < 5:
        raise ValueError("the realization construction needs n >= 5")
    if orientation == "linear":
        spec = AlgebraSpec("d-linear", n)
        cat = get_catalog(spec)
        mods = [cat.tau_inv(cat.proj(1))]
        mods += [cat.tau_inv(cat.proj(i)) for i in range(5, n + 1)]
        mods += [cat.inj(2), cat.inj(n - 1)]
        s = two_term(mods, [n])
    elif orientation == "reversed":
        spec = AlgebraSpec("d-reversed", n)
        cat = get_catalog(spec)
        t2 = lambda x: cat.tau_inv(cat.tau_inv(x))
        mods = [t2(cat.proj(1))]
        mods += [t2(cat.proj(i)) for i in range(5, n)]
        mods.append(cat.tau_inv(cat.proj(n)))
        s = two_term(mods, [2, n - 1, n])
    else:
        raise ValueError("orientation must be 'linear' or 'reversed'")
    with naming_failure(spec, lambda: _object_text(cat, s)):
        ep = end_algebra(s, cat)
        expected = expected_realization_end(n)
        report = {
            "orientation": orientation,
            "n": n,
            "isSilting": is_silting(s, cat),
            "isTiltingComplex": is_two_term_tilting(s, cat),
            "endMatchesExpected": are_isomorphic(ep.qwr, expected),
            "gradable": is_gradable(ep.qwr.quiver),
            "relationCount": len(ep.qwr.relations),
            "relationLengths": sorted(
                {p.length for r in ep.qwr.relations for _c, p in r.terms}
            ),
            "idealNonzero": bool(ep.qwr.relations),
        }
    report["hypothesesVerified"] = (
        report["isSilting"]
        and report["isTiltingComplex"]
        and report["endMatchesExpected"]
        and report["gradable"]
        and report["idealNonzero"]
        and all(l >= 3 for l in report["relationLengths"])
    )
    return s, ep, report
