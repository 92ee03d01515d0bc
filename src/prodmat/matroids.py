"""Matroid algebra, hypersimplex slack matrices, and recognition of slack
matrices of 2-level matroid base polytopes.

Matroids whose base polytope is 2-level are exactly the ones obtained from
uniform matroids by 1-sums and 2-sums.  Their non-redundant slack matrices
compose: a 1-sum turns into a column-Cartesian 1-product, a 2-sum glues the
factor slacks along a coherent pair of special rows (an "x_p >= 0" row on
one side, a "y_p <= 1" row on the other) followed by duplicate removal.

The recognizer inverts that construction: hypersimplex leaves are matched
directly, 1-products are split with the information-based factorizer, and a
2-product is split once, along the first special row whose conditional
atoms allow a split that is not a mere relabeling (`_two_product_split`).
Each side goes to the recursion as an exact non-redundant slack matrix (its
rows, the special row and its complement, dominated rows dropped), and the
glue is passed as the special row's pattern over the side's columns, so
every node verifies its answer against exactly the matrix it was given.
One split suffices.  A 2-product split of such a slack matrix is a 2-sum
split (Cunningham & Edmonds, "A combinatorial decomposition theory", Canad.
J. Math. 1980); both parts of a 2-sum are minors of the matroid, and the
2-level class is closed under minors (Grande & Sanyal, "Theta rank,
levelness, and matroid minors", JCTB 2017), so when S is recognizable both
sides of any split are, and a failed split means no split succeeds.  The
search per recursion node therefore takes one split instead of backtracking
over the unions of components: the 2-product recognizer's screen builds the
dependence graph given every row at once (`info._special_row_candidates`),
and the atoms, with q(q-1)/2 exact checks for q dependence components, are
merged from its components only for the rows whose graph splits, in order,
up to the first that splits S.  Each node checks its answer exactly, so any
returned answer is correct whatever the argument above: a leaf is
re-expanded, and a sum node runs the builder's own sum step on its parts'
matrices and compares the result with its input.  No subtree is expanded again, since the builder is
a fold of the same two steps and each part's matrix has already been matched
to the part's exact slack.  Each part may be read as U(d,k) or U(d,d-k);
both orientations are tried where a glue row is needed, and a part read as
its dual is the same matrix with complemented bases, because the dual 2-sum
glues along the reversed coherent pair, which produces the same rows.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .info import InfoFunction, _special_row_candidates, group_columns
from .matrix import Matrix
from .products import factorize_irreducible, one_product, two_product


class CoherenceError(ValueError):
    """A 2-sum needs a coherent row that the factor slack does not contain."""


class MatroidInputError(ValueError):
    """Input violates the recognizer preconditions (not merely unrecognized)."""


class GuardExceeded(ValueError):
    """Instance too large for exhaustive enumeration or for the slack builder."""


#: most columns of a sum step in `expr_to_slack_with_bases`; each (1sum ... (u 2 1)) level doubles them
_MAX_COLUMNS = 1 << 16


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


@dataclass(frozen=True)
class Leaf:
    d: int
    k: int

    def __post_init__(self):
        if self.d < 2 or not 1 <= self.k <= self.d - 1:
            raise ValueError(f"leaf U({self.d},{self.k}) has a loop or coloop")


@dataclass(frozen=True)
class OneSum:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("1-sum needs at least two parts")


@dataclass(frozen=True)
class TwoSum:
    left: "Expr"
    right: "Expr"
    glue_left: int
    glue_right: int


Expr = Union[Leaf, OneSum, TwoSum]


def expr_size(e: Expr) -> int:
    if isinstance(e, Leaf):
        return e.d
    if isinstance(e, OneSum):
        return sum(expr_size(p) for p in e.parts)
    return expr_size(e.left) + expr_size(e.right) - 2


def dual_expr(e: Expr) -> Expr:
    """Flip every leaf to its dual; glue labels are unchanged."""
    if isinstance(e, Leaf):
        return Leaf(e.d, e.d - e.k)
    if isinstance(e, OneSum):
        return OneSum(tuple(dual_expr(p) for p in e.parts))
    return TwoSum(dual_expr(e.left), dual_expr(e.right), e.glue_left, e.glue_right)


def _two_sum_maps(e: TwoSum):
    """Relabeling of surviving child elements into the parent ground 0..size-1."""
    sl = expr_size(e.left)
    sr = expr_size(e.right)
    if not 0 <= e.glue_left < sl or not 0 <= e.glue_right < sr:
        raise ValueError("glue element out of range")
    keep_l = [x for x in range(sl) if x != e.glue_left]
    keep_r = [x for x in range(sr) if x != e.glue_right]
    map_l = {x: i for i, x in enumerate(keep_l)}
    map_r = {x: i + len(keep_l) for i, x in enumerate(keep_r)}
    return map_l, map_r


def expr_to_bases(e: Expr) -> Matroid:
    """Evaluate the expression to an explicit matroid on ground 0..size-1."""
    if isinstance(e, Leaf):
        return uniform_bases(e.d, e.k)
    if isinstance(e, OneSum):
        bases = [frozenset()]
        offset = 0
        for part in e.parts:
            sub = expr_to_bases(part)
            bases = [b | frozenset(x + offset for x in pb) for b in bases for pb in sub.bases]
            offset += expr_size(part)
        return Matroid(range(offset), bases)
    ml, mr = _two_sum_maps(e)
    L = expr_to_bases(e.left)
    R = expr_to_bases(e.right)
    bases = set()
    for b1 in L.bases:
        for b2 in R.bases:
            if (e.glue_left in b1) != (e.glue_right in b2):
                bases.add(
                    frozenset(ml[x] for x in b1 if x != e.glue_left)
                    | frozenset(mr[y] for y in b2 if y != e.glue_right)
                )
    return Matroid(range(expr_size(e)), bases)


# ---------------------------------------------------------------------------
# Hypersimplex slack matrices S_{d,k}.
# ---------------------------------------------------------------------------


def hypersimplex_slack_with_bases(d: int, k: int):
    """Slack matrix of the base polytope of U_{d,k} plus the column -> base map.

    For 2 <= k <= d-2 the matrix is 2d x C(d,k) with columns (v, 1-v) over
    all weight-k indicator vectors v in ascending lexicographic order; rows
    0..d-1 are the "x_e >= 0" rows, rows d..2d-1 the "x_e <= 1" rows.  For
    k in {1, d-1} every column is a vertex of a simplex and the non-redundant
    slack matrix is the d x d identity.
    """
    if d < 2 or not 1 <= k <= d - 1:
        raise ValueError(f"no hypersimplex slack for d={d}, k={k}")
    if k == 1 or k == d - 1:
        rows = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        if k == 1:
            bases = [frozenset({j}) for j in range(d)]
        else:
            bases = [frozenset(range(d)) - {j} for j in range(d)]
        return Matrix(rows), bases
    vectors = sorted(
        tuple(1 if i in c else 0 for i in range(d))
        for c in itertools.combinations(range(d), k)
    )
    rows = [tuple(v[e] for v in vectors) for e in range(d)]
    rows += [tuple(1 - v[e] for v in vectors) for e in range(d)]
    bases = [frozenset(i for i in range(d) if v[i] == 1) for v in vectors]
    return Matrix(rows), bases


def hypersimplex_slack(d: int, k: int) -> Matrix:
    return hypersimplex_slack_with_bases(d, k)[0]


@dataclass(frozen=True)
class HypersimplexForm:
    """Recognition witness: size, rank, and per-element (v-row, complement-row).

    For the identity case the complement rows are absent (None).
    """

    d: int
    k: int
    elem_rows: tuple  # per element: (vrow, crow) with crow None in the identity case


def hypersimplex_col_bases(S: Matrix, form: HypersimplexForm) -> list:
    return [
        frozenset(e for e in range(form.d) if S.rows[form.elem_rows[e][0]][j] == 1)
        for j in range(S.n)
    ]


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
    m, n = S.m, S.n
    # identity: square permutation matrix of size >= 2
    if m == n and m >= 2:
        colof = {}
        ok = True
        for i, row in enumerate(S.rows):
            ones = [j for j, x in enumerate(row) if x == 1]
            if len(ones) != 1 or ones[0] in colof:
                ok = False
                break
            colof[ones[0]] = i
        if ok and len(colof) == m:
            elem = tuple((colof[e], None) for e in range(m))
            return HypersimplexForm(m, 1, elem)
    if m % 2 or m < 8:
        return None
    d = m // 2
    by_row = {}
    for i, row in enumerate(S.rows):
        if row in by_row:
            return None
        by_row[row] = i
    pairs = []
    used = set()
    for i in range(m):
        if i in used:
            continue
        comp_key = tuple(1 - x for x in S.rows[i])
        j = by_row.get(comp_key)
        if j is None or j in used or j == i:
            return None
        pairs.append((i, j))
        used.update((i, j))
    i, j = pairs[0]
    if 2 * S.rows[i].count(1) > n:
        i, j = j, i
    a = S.rows[i]
    k, rem = divmod(d * a.count(1), n)
    if rem or not 2 <= k <= d - 2 or comb(d, k) != n:
        return None
    shared = comb(d - 2, k - 2)
    elem = [(i, j)]
    for i, j in pairs[1:]:
        overlap = sum(1 for x, y in zip(a, S.rows[i]) if x == y == 1)
        elem.append((i, j) if overlap == shared else (j, i))
    vcols = {tuple(S.rows[elem[e][0]][j] for e in range(d)) for j in range(n)}
    if len(vcols) == n and all(sum(1 for x in c if x == 1) == k for c in vcols):
        return HypersimplexForm(d, k, tuple(elem))
    return None


# ---------------------------------------------------------------------------
# Expression -> slack matrix (with column bases), the builder side.
# ---------------------------------------------------------------------------


def _find_row(S: Matrix, pattern: tuple) -> Optional[int]:
    for i, row in enumerate(S.rows):
        if row == pattern:
            return i
    return None


def _nonneg_pattern(bases: Sequence[frozenset], e: int) -> tuple:
    return tuple(1 if e in b else 0 for b in bases)


def _upper_pattern(bases: Sequence[frozenset], e: int) -> tuple:
    return tuple(0 if e in b else 1 for b in bases)


def _facet_rows(S: Matrix) -> Matrix:
    """The 0/1 matrix S without every row whose zero set lies inside another
    row's, strictly or as a later copy of it (S itself if none).

    In a slack matrix such rows are the duplicate and valid-but-redundant
    inequalities; gluing and the complement row of a 2-product split side
    can produce them (the complement of a special row need not be
    facet-defining, e.g. the upper-bound row of a simplex element).
    """
    ones = [int.from_bytes(bytes(row), "big") for row in S.rows]  # one byte per entry
    keep = [
        i
        for i, a in enumerate(ones)
        if not any(b & a == b and (b != a or h < i) for h, b in enumerate(ones) if h != i)
    ]
    if len(keep) == S.m:
        return S
    return Matrix._of(S.rows[i] for i in keep)


def _one_sum_slack(e: OneSum, parts: list):
    """The 1-sum step: (slack, column bases) of e from those of its parts.

    The slack is the 1-product of the parts' slacks, so a column's index is
    the mixed-radix number of its part columns, part 0 the most significant.
    """
    acc, bases = parts[0]
    offset = expr_size(e.parts[0])
    for part, (Sp, pb) in zip(e.parts[1:], parts[1:]):
        pb = [frozenset(x + offset for x in b) for b in pb]
        acc = one_product(acc, Sp)
        bases = [a | b for a in bases for b in pb]
        offset += expr_size(part)
    return acc, bases


def _two_sum_slack(e: TwoSum, left: tuple, right: tuple):
    """The 2-sum step: (slack, column bases) of e from those of its parts,
    plus each column's (left column, right column) pair.

    The parts are glued along a coherent pair: the left part's "x_p >= 0" row
    and the right part's "y_p <= 1" row, both located by their pattern over
    the part's columns.  Raises CoherenceError when a needed row does not
    exist (e.g. a d >= 3 simplex leaf used on the "<= 1" side).
    """
    (SL, bl), (SR, br) = left, right
    gl, gr = e.glue_left, e.glue_right
    ml, mr = _two_sum_maps(e)  # first: it rejects a glue element out of range
    xrow = _find_row(SL, _nonneg_pattern(bl, gl))
    yrow = _find_row(SR, _upper_pattern(br, gr))
    if xrow is None or yrow is None:
        # reversed coherent pair (x <= 1 with y >= 0): the same columns and rows;
        # needed e.g. when a simplex leaf only carries rows of one kind
        xrow = _find_row(SL, _upper_pattern(bl, gl))
        yrow = _find_row(SR, _nonneg_pattern(br, gr))
        if xrow is None or yrow is None:
            raise CoherenceError(
                f"no coherent row pair for glue elements "
                f"{gl}/{gr} (identity leaf without the needed side)"
            )
    P = two_product(SL, xrow, SR, yrow)
    x1, y1 = SL.rows[xrow], SR.rows[yrow]
    # two_product's column order: the x1 = 0 pairs, then the x1 = 1 pairs, left-major
    pairs = [
        (cl, cr) for a in (0, 1) for cl in range(SL.n) if x1[cl] == a for cr in range(SR.n) if y1[cr] == a
    ]
    bases = [
        frozenset(ml[x] for x in bl[cl] if x != gl) | frozenset(mr[y] for y in br[cr] if y != gr)
        for cl, cr in pairs
    ]
    return _facet_rows(P), bases, pairs


def expr_to_slack_with_bases(e: Expr):
    """Build the non-redundant slack matrix of B(expr) plus column -> base map.

    Leaves map to hypersimplex slacks; the sums fold `_one_sum_slack` and
    `_two_sum_slack` over the tree.  A sum step with more than `_MAX_COLUMNS`
    columns, one per base, raises GuardExceeded before it is built.
    """
    if isinstance(e, Leaf):
        return hypersimplex_slack_with_bases(e.d, e.k)
    if isinstance(e, OneSum):
        parts = [expr_to_slack_with_bases(p) for p in e.parts]
        n = prod(len(b) for _, b in parts)
    else:
        parts = [expr_to_slack_with_bases(e.left), expr_to_slack_with_bases(e.right)]
        (_, bl), (_, br) = parts
        # a base of the 2-sum holds the glue element on exactly one side
        kl, kr = sum(e.glue_left in b for b in bl), sum(e.glue_right in b for b in br)
        n = kl * (len(br) - kr) + (len(bl) - kl) * kr
    if n > _MAX_COLUMNS:
        raise GuardExceeded(f"a sum would have {n} columns, more than the bound of {_MAX_COLUMNS}")
    return _one_sum_slack(e, parts) if isinstance(e, OneSum) else _two_sum_slack(e, *parts)[:2]


def expr_to_slack(e: Expr) -> Matrix:
    return expr_to_slack_with_bases(e)[0]


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
        return "(1sum " + " ".join(expr_to_text(p) for p in e.parts) + ")"
    auto = e.glue_left == expr_size(e.left) - 1 and e.glue_right == 0
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
            d = int(take())
            k = int(take())
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
                gl = int(take())
                gr = int(take())
                take("]")
            left = parse_node()
            right = parse_node()
            take(")")
            if gl is None:
                gl, gr = expr_size(left) - 1, 0
            return TwoSum(left, right, gl, gr)
        raise ValueError(f"unknown node type {head!r}")

    node = parse_node()
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return node


# ---------------------------------------------------------------------------
# Recognition of slack matrices of 2-level matroid base polytopes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatroidRecognition:
    """Recovered expression plus the column -> base correspondence."""

    expr: Expr
    col_bases: tuple  # per input column, a frozenset over ground 0..size-1
    size: int

    def matroid(self) -> Matroid:
        return expr_to_bases(self.expr)

    def row_provenance(self, S: Matrix) -> list:
        """Classify each input row as an element row or a derived (cut) row."""
        tags = {}
        for e in range(self.size):
            tags.setdefault(_nonneg_pattern(self.col_bases, e), ("nonneg", e))
            tags.setdefault(_upper_pattern(self.col_bases, e), ("upper", e))
        return [tags.get(row, ("other", None)) for row in S.rows]


def _screen(S: Matrix) -> Optional[str]:
    """Why S cannot be a non-redundant 2-level slack matrix, or None."""
    if not S.is_zero_one():
        return "entries must be 0/1"
    for i, row in enumerate(S.rows):
        if len(set(row)) == 1:
            return f"row {i} is constant"
    if len(set(S.rows)) != S.m:
        return "rows must be distinct"
    if len(set(zip(*S.rows))) != S.n:
        return "columns must be distinct"
    return None


def _matches(S: Matrix, R: Matrix, cols: list) -> bool:
    """S is R with R's column cols[j] as its column j and its rows in any
    order; `cols` must be a permutation of R's columns."""
    n = S.n
    if len(cols) != n or R.n != n or len(set(cols)) != n:
        return False
    return {tuple([row[c] for c in cols]) for row in R.rows} == set(S.rows)


def _verify_candidate(S: Matrix, expr: Expr, col_bases: list) -> bool:
    """Re-expand the expression and compare with S through the base matching:
    S must be exactly the expression's non-redundant slack matrix."""
    try:
        R, rbases = expr_to_slack_with_bases(expr)
    except ValueError:
        return False
    pos = {b: c for c, b in enumerate(rbases)}
    cols = [pos.get(b) for b in col_bases]
    return None not in cols and _matches(S, R, cols)


def _glue_options(expr: Expr, bases: list, pattern: tuple, side: str):
    """Ways to read `pattern` as a coherent glue row of the child, in order.

    Yields (expr', bases', element): either the child as returned or its
    dual, whichever makes the pattern an "x_e >= 0" row (side "nonneg") or an
    "x_e <= 1" row (side "upper")."""
    size = expr_size(expr)
    full = frozenset(range(size))
    out = []
    for e in range(size):
        direct = _nonneg_pattern(bases, e)
        compl = _upper_pattern(bases, e)
        want_asis, want_dual = (direct, compl) if side == "nonneg" else (compl, direct)
        if pattern == want_asis:
            out.append((expr, bases, e))
        if pattern == want_dual:
            out.append((dual_expr(expr), [full - b for b in bases], e))
    return out


def _two_product_split(S: Matrix):
    """The 2-product split that the recursion takes of a screened matrix, or None.

    The special row r is the first row whose conditional atoms still number
    two or more without the row equal to 1 - r, a singleton atom that alone
    on one side would only relabel S through a two-column factor.  The atoms
    are merged from the components of the special-row screen
    (`info._special_row_candidates`).  The S1 side is the union of the atoms
    after the first; the first atom and the row 1 - r form the S2 side.
    Returns one (factor, glue pattern, column map) per side (`_split_side`);
    each factor is an exact non-redundant slack matrix when S is one.
    """
    # in distinct 0/1 rows, 1 - r is the one other row with the codes of r
    B = S.codes.astype(np.float64)
    P = B @ B.T
    twins = (P == P.diagonal()[:, None]) & (P == P.diagonal())
    for r, comps in _special_row_candidates(S, twins):
        F = InfoFunction(S, given=r)
        atoms = F._merge(comps)
        if len(atoms) < 2:
            continue
        X = tuple(sorted(F.ground[i] for A in atoms[1:] for i in A))
        Xc = tuple(i for i in F.ground if i not in X)
        row = S.rows[r]
        order = [j for j in range(S.n) if row[j] == 0] + [j for j in range(S.n) if row[j] == 1]
        return _split_side(S, X, r, order), _split_side(S, Xc, r, order)
    return None


def _split_side(S: Matrix, rows: tuple, r: int, order: list):
    """One side of a 2-product split: (factor, glue pattern, column map).

    The factor holds `rows`, then the special row r, then its complement,
    on the first column of each distinct pattern over `rows` and r; `order`
    lists the r = 0 columns before the r = 1 columns, so the r = 0 patterns
    come first.  Duplicate and dominated rows are dropped, so the factor is
    an exact non-redundant slack matrix: every facet row survives, because a
    facet's zero set is maximal.  The special row may be among the dropped,
    so the glue is returned as its pattern over the factor's columns.  The
    column map sends each column of S to its factor column.
    """
    inv, _, first = group_columns(S.codes[np.ix_(rows + (r,), order)])
    F = S.submatrix(rows + (r,), [order[f] for f in first.tolist()])
    glue = F.rows[-1]
    out = _facet_rows(Matrix._of(F.rows + (tuple(1 - x for x in glue),)))
    colmap = np.empty(S.n, dtype=np.int64)
    colmap[order] = inv
    return out, glue, colmap.tolist()


def _recognize_part(S: Matrix):
    """`_recognize_rec` of a part that has not been screened, or None."""
    return None if _screen(S) is not None else _recognize_rec(S)


def _recognize_rec(S: Matrix):
    """(expr, col_bases) such that S is expr's exact slack up to row order,
    column j having base col_bases[j]; or None.  S has passed `_screen`."""
    form = recognize_hypersimplex(S)
    if form is not None:
        cand = (Leaf(form.d, form.k), hypersimplex_col_bases(S, form))
        if _verify_candidate(S, cand[0], cand[1]):
            return cand
        return None

    fact = factorize_irreducible(S)
    if fact.t >= 2:
        kids = []
        cols = np.zeros(S.n, dtype=np.int64)
        for block, factor in zip(fact.blocks, fact.factors):
            sub = _recognize_part(factor)
            if sub is None:
                return None
            kids.append(sub)
            # the factor's columns are the block's patterns in first-occurrence order
            cols = cols * factor.n + group_columns(S.codes[list(block)])[0]
        expr = OneSum(tuple(k[0] for k in kids))
        R, rbases = _one_sum_slack(expr, [(F, k[1]) for F, k in zip(fact.factors, kids)])
        cols = cols.tolist()
        # Cannot fail once reached: reconstruct_factors has proved the count
        # identity, so S's distinct columns are exactly the 1-product's and
        # cols is a permutation.  It stays as the guard that cols follows
        # _one_sum_slack's mixed-radix column order, part 0 most significant.
        if _matches(S, R, cols):
            return expr, [rbases[c] for c in cols]
        return None

    split = _two_product_split(S)
    if split is None:
        return None
    (S1p, glue1, colmap1), (S2p, glue2, colmap2) = split
    left = _recognize_part(S1p)
    if left is None:
        return None
    right = _recognize_part(S2p)
    if right is None:
        return None
    # a part read as its dual is the same matrix with complemented bases
    for exprL, basesL, gl in _glue_options(left[0], left[1], glue1, "nonneg"):
        for exprR, basesR, gr in _glue_options(right[0], right[1], glue2, "upper"):
            expr = TwoSum(exprL, exprR, gl, gr)
            try:
                R, rbases, pairs = _two_sum_slack(expr, (S1p, basesL), (S2p, basesR))
            except CoherenceError:
                continue
            index = {pair: c for c, pair in enumerate(pairs)}
            cols = [index.get(pair) for pair in zip(colmap1, colmap2)]
            if None not in cols and _matches(S, R, cols):
                return expr, [rbases[c] for c in cols]
    return None


def recognize_2level_matroid_slack(S: Matrix) -> Optional[MatroidRecognition]:
    """Decide whether S is the non-redundant slack matrix of a 2-level matroid
    base polytope; if so return the expression over uniform leaves.

    Precondition violations (non-0/1 entries, constant rows, duplicate rows
    or columns) raise MatroidInputError; an unrecognized but well-formed
    input returns None.
    """
    reason = _screen(S)
    if reason is not None:
        raise MatroidInputError(reason)
    res = _recognize_rec(S)
    if res is None:
        return None
    expr, col_bases = res
    return MatroidRecognition(expr, tuple(col_bases), expr_size(expr))
