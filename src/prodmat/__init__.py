"""Exact-arithmetic recognition of matrix products and slack-matrix structure.

The package decomposes matrices (up to row/column permutation) as
column-wise Cartesian products ("1-products") and glued products along
0/1 rows ("2-products") through the zero sets of an information-theoretic
symmetric submodular function, found in integers, plus exact integer
certificates.  On top of that it builds and recognizes slack matrices of
polytopes, in particular slack matrices of 2-level matroid base polytopes.
"""

from .matrix import (
    Matrix,
    MatrixFormatError,
    parse_matrix,
    write_matrix,
    permute,
    is_isomorphic,
    seeded_shuffle,
)
from .info import (
    MultiplicityTable,
    InfoFunction,
    multiplicity_table,
    entropy,
    mutual_info_direct,
)
from .queyranne import SymmetricOracle, pendent_pair, minimize_symmetric
from .products import (
    OneProductCert,
    TwoProductCert,
    Factorization,
    one_product,
    two_product,
    recognize_one_product,
    recognize_two_product,
    reconstruct_factors,
    factorize_irreducible,
)
from .polytopes import (
    VRep,
    HRep,
    SlackError,
    slack_from_vh,
)
from .matroids import (
    Matroid,
    Leaf,
    OneSum,
    TwoSum,
    CoherenceError,
    MatroidInputError,
    HypersimplexForm,
    uniform_bases,
    dual,
    one_sum,
    two_sum,
    hypersimplex_slack,
    recognize_hypersimplex,
    expr_to_bases,
    expr_to_slack,
    recognize_2level_matroid_slack,
    parse_expr,
    expr_to_text,
    dual_expr,
)
from .oracles import (
    OracleReport,
    GuardExceeded,
    bf_one_product,
    bf_submodular_min,
    bf_two_product,
    base_exchange_validator,
    cut_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
