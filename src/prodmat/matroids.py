"""Matroid algebra, hypersimplex slack matrices, and recognition of slack
matrices of 2-level matroid base polytopes.

Matroids whose base polytope is 2-level are exactly the ones obtained from
uniform matroids by 1-sums and 2-sums.  Their non-redundant slack matrices
compose: a 1-sum turns into a column-Cartesian 1-product, a 2-sum glues the
factor slacks along a coherent pair of special rows (an "x_p >= 0" row on
one side, a "y_p <= 1" row on the other) followed by duplicate removal.

The recognizer inverts that construction: hypersimplex leaves are matched
directly, a 1-product is split into one factor per atom of its dependence
graph, the block's distinct column patterns in order of first occurrence,
and a 2-product is split once, along the first special row whose conditional
atoms allow a split that is not a mere relabeling (`_two_product_split`).
Both cut their parts on the per-column keys of the exact checks that proved
the split (`InfoFunction._merge`).  Each side goes to the recursion as an
exact non-redundant slack matrix (its rows, the special row and its
complement, dominated rows dropped), and the glue is passed as the special
row's pattern over the side's columns, so every node verifies its answer
against exactly the matrix it was given.  Only the input is screened
(`_screen`): a part's rows are 0/1, distinct and not constant, as every
column of S cut to the part's rows is one of its columns, and a 2-sum side
that repeats a column once `_facet_rows` drops a row fails every node's
`_matches`.  One split suffices.  A 2-product split of such a slack matrix
is a 2-sum split (Cunningham & Edmonds, "A combinatorial decomposition
theory", Canad. J. Math. 1980); both parts of a 2-sum are minors of the
matroid, and the 2-level class is closed under minors (Grande & Sanyal,
"Theta rank, levelness, and matroid minors", JCTB 2017), so when S is
recognizable both sides of any split are, and a failed split means no split
succeeds.  The search per recursion node therefore takes one split instead
of backtracking over the unions of components.  Each node builds its pair
counts P = E E^T once (`info._pair_counts`): the node's unconditional graph
and the special-row screen of the 2-product split that both recognizers
share (`products._two_product_splits`) both read it.  The screen counts the
triples given every 0/1 row in one batch, and the split merges the atoms
from its components, with q − 1 exact checks for q components when the chain
holds, only for the rows whose graph splits, in order, up to the first that
splits S.  Each node checks its answer exactly, so any returned answer is
correct whatever the argument above: a leaf is re-expanded, and a sum node
runs the builder's own sum step on its parts' matrices and compares the
result with its input.  No subtree is expanded again, since the builder is a
fold of the same two steps and each part's matrix has already been matched
to the part's exact slack.  Each part may be read as U(d,k) or U(d,d-k);
both orientations are tried where a glue row is needed, and a part read as
its dual is the same matrix with complemented bases, because the dual 2-sum
glues along the reversed coherent pair, which produces the same rows.

The builder and the recognizer's checks share one implementation of each
step, on arrays.  A node is a 0/1 slack array (uint8 in the builder, the
part's own `Matrix.array` in the recognizer's checks) plus a boolean
column x element base incidence array B, B[j, e] saying whether element e
lies in the base of column j.  A leaf U(d,k) enumerates its C(d,k) bases in
ascending lexicographic order of their 0/1 vectors.  The sum steps are the
products' constructions: a 1-sum is the 1-product of the slacks and of the
element x column incidences; a 2-sum finds its coherent rows by one
comparison with a column of B, takes the 2-product of the slacks along
them, with each column's part columns (cl, cr), and drops dominated rows
with one product (`_facet_rows`).  The recursion
carries its column bases as incidence arrays and compares row sets as byte
keys; a recognition keeps the array it proved, and the CLI writes it.  A
built slack becomes a Matrix by one cast to int64.  Each expression node sets
its element count, `size`, when it is built (a plain attribute, not a field),
so every walker over an expression takes time linear in it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .info import InfoFunction, group_columns
from .matrix import Matrix, _integer
from .products import _one_product, _two_product, _two_product_splits


class CoherenceError(ValueError):
    """A 2-sum needs a coherent row that the factor slack does not contain."""


class MatroidInputError(ValueError):
    """Input violates the recognizer preconditions (not merely unrecognized)."""


class GuardExceeded(ValueError):
    """Instance too large for exhaustive enumeration or for the slack builder."""


#: most columns of a sum step in `expr_to_slack_with_bases`; each (1sum ... (u 2 1)) level doubles them
_MAX_COLUMNS = 1 << 16
#: most rows x columns of a leaf or sum step: an identity leaf U(d,1) has d
#: columns but d x d entries
_MAX_CELLS = 1 << 24


# ---------------------------------------------------------------------------
# Matroids as explicit base families (desk-scale verification oracle).
# ---------------------------------------------------------------------------


class Matroid:
    """Ground set plus base family; bases are frozensets of element labels."""

    def __init__(self, ground: Sequence, bases: Iterable[frozenset]):
        self.ground = tuple(ground)
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("base family must be nonempty")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("bases must have equal cardinality")
        self.rank = sizes.pop()
        gset = set(self.ground)
        if any(not b <= gset for b in self.bases):
            raise ValueError("base uses an element outside the ground set")

    def is_loop(self, e) -> bool:
        return all(e not in b for b in self.bases)

    def is_coloop(self, e) -> bool:
        return all(e in b for b in self.bases)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and set(self.ground) == set(other.ground)
            and self.bases == other.bases
        )

    def __repr__(self):
        return f"Matroid(|E|={len(self.ground)}, rank={self.rank}, |B|={len(self.bases)})"


def uniform_bases(d: int, k: int) -> Matroid:
    """U_{d,k}: every k-subset of a d-element ground set is a base."""
    if not 0 <= k <= d:
        raise ValueError(f"rank {k} out of range for {d} elements")
    return Matroid(range(d), (frozenset(c) for c in itertools.combinations(range(d), k)))


def dual(M: Matroid) -> Matroid:
    """Complement every base; an involution."""
    g = frozenset(M.ground)
    return Matroid(M.ground, (g - b for b in M.bases))


def one_sum(M1: Matroid, M2: Matroid) -> Matroid:
    """Direct sum: disjoint grounds, bases are all unions."""
    if set(M1.ground) & set(M2.ground):
        raise ValueError("ground sets must be disjoint")
    return Matroid(
        M1.ground + M2.ground, (b1 | b2 for b1 in M1.bases for b2 in M2.bases)
    )


def two_sum(M1: Matroid, M2: Matroid, p) -> Matroid:
    """Glue along the shared element p: bases (B1 | B2) - p with p in exactly one."""
    if set(M1.ground) & set(M2.ground) != {p}:
        raise ValueError("ground sets must intersect exactly in the glue element")
    for M in (M1, M2):
        if M.is_loop(p) or M.is_coloop(p):
            raise ValueError("glue element must be neither a loop nor a coloop")
    bases = set()
    for b1 in M1.bases:
        for b2 in M2.bases:
            if (p in b1) != (p in b2):
                bases.add((b1 | b2) - {p})
    ground = tuple(e for e in M1.ground if e != p) + tuple(e for e in M2.ground if e != p)
    return Matroid(ground, bases)


# ---------------------------------------------------------------------------
# Expression trees over uniform leaves.
# ---------------------------------------------------------------------------


class _Node:
    """An expression node compared, hashed and shown through its text, which
    `expr_to_text` builds in one frame per level, as `parse_expr` reads it;
    the repr is the `parse_expr` call that rebuilds the node."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and expr_to_text(self) == expr_to_text(other)

    def __hash__(self):
        return hash(expr_to_text(self))

    def __repr__(self):
        return f"parse_expr({expr_to_text(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Node):
    d: int
    k: int

    def __post_init__(self):
        if self.d < 2 or not 1 <= self.k <= self.d - 1:
            raise ValueError(f"leaf U({self.d},{self.k}) has a loop or coloop")
        object.__setattr__(self, "size", self.d)


@dataclass(frozen=True, eq=False, repr=False)
class OneSum(_Node):
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("1-sum needs at least two parts")
        object.__setattr__(self, "size", sum(p.size for p in self.parts))


@dataclass(frozen=True, eq=False, repr=False)
class TwoSum(_Node):
    left: "Expr"
    right: "Expr"
    glue_left: int
    glue_right: int

    def __post_init__(self):
        if not 0 <= self.glue_left < self.left.size or not 0 <= self.glue_right < self.right.size:
            raise ValueError("glue element out of range")
        object.__setattr__(self, "size", self.left.size + self.right.size - 2)


Expr = Union[Leaf, OneSum, TwoSum]


def dual_expr(e: Expr) -> Expr:
    """Flip every leaf to its dual; glue labels are unchanged."""
    if isinstance(e, Leaf):
        return Leaf(e.d, e.d - e.k)
    if isinstance(e, OneSum):
        return OneSum(tuple(dual_expr(p) for p in e.parts))
    return TwoSum(dual_expr(e.left), dual_expr(e.right), e.glue_left, e.glue_right)


def expr_to_bases(e: Expr) -> Matroid:
    """Evaluate the expression to an explicit matroid on ground 0..size-1.

    The independent frozenset reference for the builder and the recognizer:
    plain Python over `itertools.combinations`, sharing no code with the
    array steps.  The family is validated once, here at the root.
    """
    return Matroid(range(e.size), _bases(e))


def _bases(e: Expr) -> list:
    """e's distinct bases as frozensets on 0..size-1, each part evaluated once.

    One frame per expression level.  No family repeats a base: a 1-sum's
    unions are of disjoint parts, and a 2-sum's two products differ in how
    many left elements their bases hold.
    """
    if isinstance(e, Leaf):
        return [frozenset(c) for c in itertools.combinations(range(e.d), e.k)]
    if isinstance(e, OneSum):
        bases = [frozenset()]
        offset = 0
        for part in e.parts:
            shifted = [frozenset(x + offset for x in b) for b in _bases(part)]
            bases = [b | c for b in bases for c in shifted]
            offset += part.size
        return bases
    # the left part's elements but the glue come first, then the right part's;
    # each side's bases are relabeled once and sorted by whether they hold the glue
    gl, gr, shift = e.glue_left, e.glue_right, e.left.size - 1
    left = ([], [])  # (without the glue, with it)
    for b in _bases(e.left):
        left[gl in b].append(frozenset(x - (x > gl) for x in b if x != gl))
    right = ([], [])
    for b in _bases(e.right):
        right[gr in b].append(frozenset(shift + y - (y > gr) for y in b if y != gr))
    return [a | b for a in left[1] for b in right[0]] + [a | b for a in left[0] for b in right[1]]


# ---------------------------------------------------------------------------
# Hypersimplex slack matrices S_{d,k}.
# ---------------------------------------------------------------------------


def hypersimplex_slack(d: int, k: int) -> Matrix:
    """Slack matrix of the base polytope of U_{d,k} (`_uniform`'s layout).

    Raises GuardExceeded, before enumerating, when C(d,k) is over
    `_MAX_COLUMNS` or the slack's entries are over `_MAX_CELLS`.
    """
    if d < 2 or not 1 <= k <= d - 1:
        raise ValueError(f"no hypersimplex slack for d={d}, k={k}")
    return expr_to_slack(Leaf(d, k))


@dataclass(frozen=True)
class HypersimplexForm:
    """Recognition witness: size, rank, and per-element (v-row, complement-row).

    For the identity case the complement rows are absent (None).
    """

    d: int
    k: int
    elem_rows: tuple  # per element: (vrow, crow) with crow None in the identity case


def hypersimplex_col_bases(S: Matrix, form: HypersimplexForm) -> list:
    V = S.array[[v for v, _ in form.elem_rows]]
    return [frozenset(np.flatnonzero(c == 1).tolist()) for c in V.T]


def recognize_hypersimplex(S: Matrix) -> Optional[HypersimplexForm]:
    """Match S against some S_{d,k} up to row/column permutation.

    Returns the canonical reading with k <= d-k (the U(d,d-k) reading is the
    same matrix with the sides flipped).  In S_{d,k} an "x_e >= 0" row has
    C(d-1,k-1) = n*k/d ones; it shares C(d-2,k-2) ones with the "x_f >= 0"
    row and C(d-2,k-1) ones with the "x_f <= 1" row of every other element
    f, and the two counts differ for k <= d/2.  So the lighter row a of the first complement pair fixes
    k and every other pair is oriented by its overlap with a.  A valid
    labeling is unique up to swapping every pair, which is valid only when
    k = d/2, where the tie goes to the pair's first row.  The labeling is
    then verified: the chosen-side columns must be all C(d,k) weight-k
    indicators, pairwise distinct.
    """
    if not S.is_zero_one():
        return None
    A, m, n = S.array, S.m, S.n
    ones = A.sum(axis=1).tolist()
    # identity: square permutation matrix of size >= 2
    if m == n and m >= 2 and set(ones) == {1} and (A.sum(axis=0) == 1).all():
        return HypersimplexForm(m, 1, tuple((i, None) for i in A.argmax(axis=0).tolist()))
    if m % 2 or m < 8:
        return None
    d = m // 2
    # rows distinct, and paired with their complements in order of the first
    index = dict(zip(_row_keys(A), range(m)))
    comp = [index.get(key) for key in _row_keys(1 - A)]
    if len(index) != m or None in comp:
        return None
    pairs = [(i, j) for i, j in enumerate(comp) if i < j]
    i, j = pairs[0]
    if 2 * ones[i] > n:
        i, j = j, i
    k, rem = divmod(d * ones[i], n)
    if rem or not 2 <= k <= d - 2 or comb(d, k) != n:
        return None
    shared = comb(d - 2, k - 2)
    overlap = (A @ A[i]).tolist()  # ones shared with row i
    elem = [(i, j)] + [(p, q) if overlap[p] == shared else (q, p) for p, q in pairs[1:]]
    V = A[[v for v, _ in elem]]
    if (V.sum(axis=0) == k).all() and len(set(_row_keys(V.T))) == n:
        return HypersimplexForm(d, k, tuple(elem))
    return None


# ---------------------------------------------------------------------------
# Expression -> slack matrix (with column bases), the builder side.
# ---------------------------------------------------------------------------


def _row_keys(A: np.ndarray) -> list:
    """Each row of a 2-D 0/1 or boolean array as one bytes key, one byte per entry."""
    w = A.shape[1]
    buf = np.ascontiguousarray(A, dtype=np.uint8).tobytes()
    return [buf[i : i + w] for i in range(0, len(buf), w)]


def _base_lists(B: np.ndarray) -> list:
    """The rows of a base incidence array as ascending lists of elements; every
    row holds the same number of ones, as the bases of a matroid do."""
    return np.nonzero(B)[1].reshape(len(B), -1).tolist()


def _base_sets(B: np.ndarray) -> list:
    """The rows of a base incidence array as frozensets of elements."""
    return list(map(frozenset, _base_lists(B)))


def _uniform(d: int, k: int):
    """(uint8 slack, base incidence) of U(d,k), with no column bound.

    For 2 <= k <= d-2 the slack is 2d x C(d,k) with columns (v, 1-v) over
    all weight-k indicator vectors v in ascending lexicographic order (the
    reverse of `itertools.combinations`' order); rows 0..d-1 are the
    "x_e >= 0" rows, rows d..2d-1 the "x_e <= 1" rows.  For k in {1, d-1}
    every column is a vertex of a simplex and the non-redundant slack is the
    d x d identity, column j the base {j} or its complement.
    """
    if k == 1 or k == d - 1:
        eye = np.eye(d, dtype=bool)
        return eye.view(np.uint8), eye if k == 1 else ~eye
    subsets = np.array(list(itertools.combinations(range(d), k))[::-1])
    B = np.zeros((len(subsets), d), dtype=bool)
    B[np.arange(len(subsets))[:, None], subsets] = True
    return np.concatenate((B.T, ~B.T)).view(np.uint8), B


def _facet_rows(A: np.ndarray) -> np.ndarray:
    """The 0/1 array A without every row whose zero set lies inside another
    row's, strictly or as a later copy of it (A itself if none).

    In a slack matrix such rows are the duplicate and valid-but-redundant
    inequalities; gluing and the complement row of a 2-product split side
    can produce them (the complement of a special row need not be
    facet-defining, e.g. the upper-bound row of a simplex element).  Row h's
    ones lie inside row i's exactly when C = A (1 - A)^T has C[h, i] = 0:
    a sum of nonnegative terms, which no rounding takes to 0 unless every
    term is 0.
    """
    F = A.astype(np.float32)
    inside = F @ (1 - F).T == 0  # inside[h, i]: row h's ones lie inside row i's
    h = np.arange(len(A))
    # drop i if some row h lies inside it, unless i lies inside h too and h >= i
    drop = (inside > (inside.T & (h[:, None] >= h))).any(axis=0)
    return A[~drop] if drop.any() else A


def _one_sum(parts: list):
    """The 1-sum step: (slack, base incidence) of a 1-sum from its parts'.

    The slack is the 1-product of the parts' slacks, so a column's index is
    the mixed-radix number of its part columns, part 0 the most significant.
    A column's base is the union of its part columns' bases, each part's
    elements after the previous parts': the 1-product of the parts'
    element x column incidences.
    """
    A, B = parts[0]
    for Ap, Bp in parts[1:]:
        A = _one_product(A, Ap)
        B = np.ascontiguousarray(_one_product(B.T, Bp.T).T)
    return A, B


def _pattern_rows(A: np.ndarray, pattern: np.ndarray) -> tuple:
    """The first row of A equal to the 0/1 pattern and the first equal to its
    complement, each None when there is none."""
    eq = A == pattern
    same, compl = eq.all(axis=1), ~eq.any(axis=1)
    return tuple(int(m.argmax()) if m.any() else None for m in (same, compl))


def _two_sum(e: TwoSum, left: tuple, right: tuple):
    """The 2-sum step: (slack, base incidence) of e from its parts', plus
    each column's left column `cl` and right column `cr`.

    The parts are glued along a coherent pair: the left part's "x_p >= 0" row
    and the right part's "y_p <= 1" row, both located by their pattern over
    the part's columns, or else the reversed pair.  Raises CoherenceError
    when neither pair exists (e.g. a d >= 3 simplex leaf used on the "<= 1"
    side).  The slack is `_two_product` of the parts' slacks along that
    pair, dominated rows dropped (`_facet_rows`).
    """
    (AL, BL), (AR, BR) = left, right
    gl, gr = e.glue_left, e.glue_right
    x_nonneg, x_upper = _pattern_rows(AL, BL[:, gl])
    y_nonneg, y_upper = _pattern_rows(AR, BR[:, gr])
    xrow, yrow = x_nonneg, y_upper
    if xrow is None or yrow is None:
        # reversed coherent pair (x <= 1 with y >= 0): the same columns and rows;
        # needed e.g. when a simplex leaf only carries rows of one kind
        xrow, yrow = x_upper, y_nonneg
        if xrow is None or yrow is None:
            raise CoherenceError(
                f"no coherent row pair for glue elements "
                f"{gl}/{gr} (identity leaf without the needed side)"
            )
    A, cl, cr = _two_product(AL, xrow, AR, yrow)
    L, R = BL[cl], BR[cr]
    B = np.concatenate((L[:, :gl], L[:, gl + 1 :], R[:, :gr], R[:, gr + 1 :]), axis=1)
    return _facet_rows(A), B, cl, cr


def _check_size(m: int, n: int, what: str) -> None:
    if n > _MAX_COLUMNS:
        # a count of bases can have more digits than Python converts to a string
        count = n if n.bit_length() <= 64 else f"at least 2**{n.bit_length() - 1}"
        raise GuardExceeded(f"{what} would have {count} columns, more than the bound of {_MAX_COLUMNS}")
    if m * n > _MAX_CELLS:
        raise GuardExceeded(f"{what} would have {m} x {n} entries, more than the bound of {_MAX_CELLS}")


def _build(e: Expr):
    """(uint8 slack, base incidence) of e: `_uniform` at the leaves, folded
    with `_one_sum` and `_two_sum`.

    A leaf or sum step with more than `_MAX_COLUMNS` columns, one per base,
    or more than `_MAX_CELLS` entries raises GuardExceeded before it is
    built; a step's columns come from the C(d,k) of a leaf or from its
    parts' incidence arrays, its rows from d or from its parts' rows (before
    a 2-sum drops dominated rows).
    """
    if isinstance(e, Leaf):
        what = f"U({e.d},{e.k})"
        if e.k in (1, e.d - 1):  # `_uniform`'s layout: the d x d identity
            _check_size(e.d, e.d, what)
        elif e.d > _MAX_COLUMNS:  # C(d,k) > d; refused before computing C(d,k), which takes seconds
            raise GuardExceeded(f"{what} would have at least {e.d} columns, more than the bound of {_MAX_COLUMNS}")
        else:
            _check_size(2 * e.d, comb(e.d, e.k), what)
        return _uniform(e.d, e.k)
    if isinstance(e, OneSum):
        parts = [_build(p) for p in e.parts]
        _check_size(sum(len(A) for A, _ in parts), prod(len(B) for _, B in parts), "a sum")
        return _one_sum(parts)
    left, right = _build(e.left), _build(e.right)
    (AL, BL), (AR, BR) = left, right
    # a base of the 2-sum holds the glue element on exactly one side
    kl, kr = int(BL[:, e.glue_left].sum()), int(BR[:, e.glue_right].sum())
    _check_size(len(AL) + len(AR) - 1, kl * (len(BR) - kr) + (len(BL) - kl) * kr, "a sum")
    return _two_sum(e, left, right)[:2]


def expr_to_slack_with_bases(e: Expr):
    """Build the non-redundant slack matrix of B(expr) plus column -> base map.

    The fold (`_build`) runs on arrays: each node is a uint8 slack array and
    a boolean column x element base incidence array B, where B[j, e] says
    whether element e lies in the base of column j.  Leaves are hypersimplex
    slacks (`_uniform`), and the sum steps are `_one_sum` and `_two_sum`.
    The slack becomes a Matrix by one cast to int64, and B one frozenset per
    column.  A leaf or sum step with more than `_MAX_COLUMNS` columns or
    `_MAX_CELLS` entries raises GuardExceeded before it is built.
    """
    A, B = _build(e)
    return Matrix(A.astype(np.int64)), _base_sets(B)


def expr_to_slack(e: Expr) -> Matrix:
    """The slack matrix of `expr_to_slack_with_bases`, without the column bases."""
    return Matrix(_build(e)[0].astype(np.int64))


# ---------------------------------------------------------------------------
# Expression text format.
#   (u d k)                uniform leaf
#   (1sum e1 e2 ...)       1-sum, n-ary
#   (2sum e1 e2)           2-sum, glues auto-assigned deterministically
#                          (last element of e1, first element of e2)
#   (2sum [gl gr] e1 e2)   2-sum with explicit glue elements
# ---------------------------------------------------------------------------


def expr_to_text(e: Expr) -> str:
    if isinstance(e, Leaf):
        return f"(u {e.d} {e.k})"
    if isinstance(e, OneSum):
        texts = []
        for p in e.parts:  # a loop, not a generator: one frame per level
            texts.append(expr_to_text(p))
        return "(1sum " + " ".join(texts) + ")"
    auto = e.glue_left == e.left.size - 1 and e.glue_right == 0
    inner = f"{expr_to_text(e.left)} {expr_to_text(e.right)}"
    if auto:
        return f"(2sum {inner})"
    return f"(2sum [{e.glue_left} {e.glue_right}] {inner})"


def parse_expr(text: str) -> Expr:
    tokens = re.findall(r"[()\[\]]|[^\s()\[\]]+", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        return tok

    def parse_node() -> Expr:
        take("(")
        head = take()
        if head == "u":
            d = _integer(take())
            k = _integer(take())
            take(")")
            return Leaf(d, k)
        if head == "1sum":
            parts = []
            while peek() != ")":
                parts.append(parse_node())
            take(")")
            return OneSum(tuple(parts))
        if head == "2sum":
            gl = gr = None
            if peek() == "[":
                take("[")
                gl = _integer(take())
                gr = _integer(take())
                take("]")
            left = parse_node()
            right = parse_node()
            take(")")
            if gl is None:
                gl, gr = left.size - 1, 0
            return TwoSum(left, right, gl, gr)
        raise ValueError(f"unknown node type {head!r}")

    node = parse_node()
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return node


# ---------------------------------------------------------------------------
# Recognition of slack matrices of 2-level matroid base polytopes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays
class MatroidRecognition:
    """Recovered expression plus the column -> base correspondence.

    `bases` is the read-only boolean column x element incidence array that
    the recognition proved: bases[j, e] says whether element e, of ground
    0..size-1, lies in the base of input column j.
    """

    expr: Expr
    bases: np.ndarray

    @property
    def size(self) -> int:
        return self.expr.size

    def matroid(self) -> Matroid:
        return expr_to_bases(self.expr)

    def row_provenance(self, S: Matrix) -> list:
        """Classify each input row as an element row or a derived (cut) row."""
        B = self.bases.T  # B[e, j]: e in column j's base
        tags = {}
        for e, (nonneg, upper) in enumerate(zip(_row_keys(B), _row_keys(~B))):
            tags.setdefault(nonneg, ("nonneg", e))
            tags.setdefault(upper, ("upper", e))
        A, other = S.array, ("other", None)
        zero_one = ((A == 0) | (A == 1)).all(axis=1).tolist()
        return [tags.get(key, other) if ok else other for key, ok in zip(_row_keys(A == 1), zero_one)]


def _screen(S: Matrix) -> Optional[str]:
    """Why S cannot be a non-redundant 2-level slack matrix, or None."""
    if not S.is_zero_one():
        return "entries must be 0/1"
    A = S.array
    constant = np.flatnonzero(A.min(axis=1) == A.max(axis=1))
    if len(constant):
        return f"row {constant[0]} is constant"
    if len(set(_row_keys(A))) != S.m:
        return "rows must be distinct"
    if len(set(_row_keys(A.T))) != S.n:
        return "columns must be distinct"
    return None


def _matches(S: Matrix, R: np.ndarray, cols: np.ndarray) -> bool:
    """S is the 0/1 array R with R's column cols[j] as its column j and its
    rows in any order; `cols`, column indices of R, must be a permutation of
    them.  The row sets are compared as byte keys."""
    n = S.n
    if len(cols) != n or R.shape[1] != n or np.bincount(cols, minlength=n).max() != 1:
        return False
    return set(_row_keys(R[:, cols])) == set(_row_keys(S.array))


def _reexpands(S: Matrix, expr: Expr, B: np.ndarray) -> bool:
    """S is exactly expr's non-redundant slack matrix, its column j being the
    slack's column with base B[j] (a row of a base incidence array).

    A leaf is built without the column bound: S already has its columns."""
    try:
        R, RB = _uniform(expr.d, expr.k) if isinstance(expr, Leaf) else _build(expr)
    except ValueError:
        return False
    pos = dict(zip(_row_keys(RB), range(len(RB))))
    cols = [pos.get(key) for key in _row_keys(B)]
    return None not in cols and _matches(S, R, np.array(cols))


def _verify_candidate(S: Matrix, expr: Expr, col_bases: Sequence[frozenset]) -> bool:
    """Re-expand the expression and compare with S through the base matching:
    S must be exactly the expression's non-redundant slack matrix, its column
    j having the base col_bases[j]."""
    ground = range(expr.size)
    B = np.zeros((len(col_bases), len(ground)), dtype=bool)
    for j, b in enumerate(col_bases):
        if not all(x in ground for x in b):
            return False
        B[j, list(b)] = True
    return _reexpands(S, expr, B)


def _glue_options(expr: Expr, B: np.ndarray, pattern: tuple, side: str):
    """Ways to read `pattern` as a coherent glue row of the child, in order.

    Yields (expr', B', element): either the child as returned or its dual,
    whichever makes the pattern an "x_e >= 0" row (side "nonneg") or an
    "x_e <= 1" row (side "upper"); B is the child's base incidence array."""
    eq = B == np.array(pattern, dtype=bool)[:, None]
    direct, compl = eq.all(axis=0), ~eq.any(axis=0)
    as_is, as_dual = (direct, compl) if side == "nonneg" else (compl, direct)
    out = []
    for e in np.flatnonzero(as_is | as_dual).tolist():
        if as_is[e]:
            out.append((expr, B, e))
        if as_dual[e]:
            out.append((dual_expr(expr), ~B, e))
    return out


def _two_product_split(S: Matrix):
    """The 2-product split that the recursion takes of a matrix, or None.

    The special row r is the first row whose conditional atoms still number
    two or more without the row equal to 1 - r, a singleton atom that alone
    on one side would only relabel S through a two-column factor: the rows
    and atoms are those of `products._two_product_splits` with the twin
    rows left out of each graph.  The S1 side is the union of the atoms
    after the first; the first atom and the row 1 - r form the S2 side.
    S1 is cut on the b-side keys of the chain's check of the first atom
    against the rest, S2 on its a-side keys: r determines the row 1 - r.
    Returns one (factor, glue pattern, column map) per side (`_split_side`);
    each factor is an exact non-redundant slack matrix when S is one.
    """
    # in distinct 0/1 rows, 1 - r is the one other row with the codes of r
    ids = {}
    key = np.array([ids.setdefault(k, len(ids)) for k in _row_keys(S.codes)])
    for r, atoms, splits in _two_product_splits(S, key[:, None] == key):
        X = tuple(sorted(itertools.chain.from_iterable(atoms[1:])))
        Xc = tuple(i for i in range(S.m) if i != r and i not in X)
        order = np.argsort(S.array[r], kind="stable")
        return _split_side(S, X, r, order, splits[0][1]), _split_side(S, Xc, r, order, splits[0][0])
    return None


def _split_side(S: Matrix, rows: tuple, r: int, order: np.ndarray, keys: np.ndarray):
    """One side of a 2-product split: (factor, glue pattern, column map).

    The factor holds `rows`, then the special row r, then its complement,
    on the first column of each distinct keys[j], column j's pattern over
    `rows` and r, in `order`: the r = 0 columns, then the r = 1 columns.
    Duplicate and dominated rows are dropped, so the factor is an exact
    non-redundant slack matrix: every facet row survives, because a facet's
    zero set is maximal.  The special row may be among the dropped, so the
    glue is returned as its pattern over the factor's columns.  The column
    map sends each column of S to its factor column; both are arrays.
    """
    inv, _, first = group_columns(keys[order][None])
    F = S.array.take(rows + (r, r), axis=0).take(order[first], axis=1)
    F[-1] = 1 - F[-1]
    colmap = np.empty_like(inv)
    colmap[order] = inv
    return Matrix(_facet_rows(F)), F[-2], colmap


def _recognize_rec(S: Matrix):
    """(expr, B) such that S is expr's exact slack up to row order, column j
    having the base B[j] (a boolean column x element incidence array); or
    None.  S is 0/1 with distinct rows, none constant, and may repeat a
    column only as a part (module docstring).  Every check runs the
    builder's own array steps on the matrices at hand."""
    form = recognize_hypersimplex(S)
    if form is not None:
        leaf = Leaf(form.d, form.k)
        B = S.array[[v for v, _ in form.elem_rows]].T.astype(bool)
        return (leaf, B) if _reexpands(S, leaf, B) else None

    F = InfoFunction(S)
    atoms, splits = F._merge(F.components())
    if len(atoms) >= 2:
        kids = []
        cols = np.zeros(S.n, dtype=np.int64)
        # a block's factor is its distinct patterns in first-occurrence order,
        # keyed by the a side of its check, the last block by the last b side
        for block, keys in zip(atoms, [c[0] for c in splits] + [splits[-1][1]]):
            inv, _, first = group_columns(keys[None])
            factor = S.submatrix(block, first)
            sub = _recognize_rec(factor)
            if sub is None:
                return None
            kids.append((sub[0], factor.array, sub[1]))
            cols = cols * factor.n + inv
        expr = OneSum(tuple(k[0] for k in kids))
        R, RB = _one_sum([k[1:] for k in kids])
        # Fails only when S repeats a column: S's distinct columns are the
        # 1-product of the blocks' distinct patterns.  It guards that cols
        # follows _one_sum's mixed-radix column order, part 0 most significant.
        return (expr, RB[cols]) if _matches(S, R, cols) else None

    split = _two_product_split(S)
    if split is None:
        return None
    (S1p, glue1, colmap1), (S2p, glue2, colmap2) = split
    left = _recognize_rec(S1p)
    right = None if left is None else _recognize_rec(S2p)
    if right is None:
        return None
    A1, A2 = S1p.array, S2p.array
    pair = colmap1 * S2p.n + colmap2  # each column's (left, right) pair
    # a part read as its dual is the same matrix with complemented bases
    for exprL, BL, gl in _glue_options(left[0], left[1], glue1, "nonneg"):
        for exprR, BR, gr in _glue_options(right[0], right[1], glue2, "upper"):
            expr = TwoSum(exprL, exprR, gl, gr)
            try:
                R, RB, cl, cr = _two_sum(expr, (A1, BL), (A2, BR))
            except CoherenceError:
                continue
            index = np.full(S1p.n * S2p.n, -1)
            index[cl * S2p.n + cr] = np.arange(len(cl))
            cols = index[pair]
            if (cols >= 0).all() and _matches(S, R, cols):
                return expr, RB[cols]
    return None


def recognize_2level_matroid_slack(S: Matrix) -> Optional[MatroidRecognition]:
    """Decide whether S is the non-redundant slack matrix of a 2-level matroid
    base polytope; if so return the expression over uniform leaves.

    Precondition violations (non-0/1 entries, constant rows, duplicate rows
    or columns) raise MatroidInputError; an unrecognized but well-formed
    input returns None.  The answer keeps the recursion's base incidence
    array, made read-only.
    """
    reason = _screen(S)
    if reason is not None:
        raise MatroidInputError(reason)
    res = _recognize_rec(S)
    if res is None:
        return None
    expr, B = res
    B.flags.writeable = False
    return MatroidRecognition(expr, B)
