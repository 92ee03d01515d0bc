"""Minimization of symmetric submodular set functions by pendent pairs.

The minimizer repeatedly builds an ordering v1, v2, ..., vk of the current
(merged) elements where each next element minimizes

    key(x) = f(W + x) - f(x),      W = union of the elements placed so far.

The last two elements (t, u) form a pendent pair: f(u) is minimal among all
sets separating u from t.  Recording u as a candidate cut and merging t with
u, m-1 times, visits a candidate achieving the global minimum of f over
nonempty proper subsets, with at most m^3 evaluations.

The oracle is a `SymmetricOracle(m, fn)`: the ground-set size `m`,
`eval(X)` with one cache, and a `calls` counter; the ordering keys are
computed here from `eval`.  For a matrix, fn is the mutual-information
function `info.InfoFunction(S).f`.

Float comparisons in the ordering are raw.  For the matrix f, an exact zero
reads exactly 0.0, and two sets whose columns give the same log ratios read
the same value (`InfoFunction.f`), so these ties follow the tie rules below;
other values that are equal in exact arithmetic can still differ in their
last bits.  The recognizers do not use this minimizer: they need the zeros
of f, not its minimum, and read them exactly from `InfoFunction.atoms`.  It
stays the library's general minimizer, for any symmetric submodular function
and for minima above zero.
"""

from __future__ import annotations

from typing import Callable, Sequence


class SymmetricOracle:
    """The minimizer's oracle: a symmetric set function fn on ground set [m].

    `calls` counts every requested evaluation of f (including ones answered
    from a cache), which is what the m^3 budget is asserted against.
    """

    def __init__(self, m: int, fn: Callable[[tuple], float]):
        if m < 1:
            raise ValueError("ground set must be nonempty")
        self.m = m
        self.fn = fn
        self.calls = 0
        self._cache = {}

    def eval(self, X: Sequence[int]) -> float:
        X = tuple(sorted(X))
        self.calls += 1
        got = self._cache.get(X)
        if got is None:
            got = self.fn(X)
            self._cache[X] = got
        return got


def pendent_pair(oracle, elements: Sequence[tuple], start: tuple):
    """Build the key-minimizing ordering from `start`; return its last two elements.

    `elements` are merged elements given as sorted tuples of original
    indices.  Ties in the key minimization break toward the smallest
    representative (first entry).  Guarantee: f(u) equals the minimum of f
    over all sets separating u from t.
    """
    elements = list(elements)
    if len(elements) < 2:
        raise ValueError("need at least 2 elements")
    if start not in elements:
        raise ValueError("start must be one of the elements")
    order = [start]
    base = start
    remaining = [e for e in elements if e != start]
    while remaining:
        keys = [oracle.eval(base + c) - oracle.eval(c) for c in remaining]
        best = min(range(len(remaining)), key=lambda idx: (keys[idx], remaining[idx][0]))
        chosen = remaining.pop(best)
        order.append(chosen)
        base = tuple(sorted(base + chosen))
    return order[-2], order[-1]


def minimize_symmetric_with_candidates(oracle):
    """Full pendent-pair run; returns (argmin, value, all recorded candidates).

    Candidates are the pendent cuts (u's original set, f value), one per
    merge, each canonicalized to the lexicographically smaller of the set
    and its complement.
    """
    m = oracle.m
    if m < 2:
        raise ValueError("need at least 2 elements")
    elements = [(i,) for i in range(m)]
    candidates = []
    while len(elements) > 1:
        start = elements[0]  # smallest representative
        t, u = pendent_pair(oracle, elements, start)
        uc = tuple(i for i in range(m) if i not in u)
        candidates.append((min(u, uc), oracle.eval(u)))
        merged = tuple(sorted(t + u))
        elements = sorted([e for e in elements if e != t and e != u] + [merged])
    best_set, best_val = min(candidates, key=lambda c: (c[1], c[0]))
    return best_set, best_val, candidates


def minimize_symmetric(oracle):
    """Global minimum of a symmetric submodular f over nonempty proper subsets.

    Returns (X, value); deterministic, at most m^3 oracle evaluations.
    """
    X, val, _ = minimize_symmetric_with_candidates(oracle)
    return X, val
