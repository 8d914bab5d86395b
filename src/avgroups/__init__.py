"""Bracketed-word calculus: free averaging groups and their checkers.

The top level re-exports the library surface the README documents and the
names the benchmark's self-tests (``avbench/test_avbench.py``) import; every
other name is reached through its submodule, such as ``avgroups.words``.
"""

from .words import eval_operated, metrics, parse, render
from .normalform import is_normal, oracle_normalize
from .avgroup import (
    GenParams,
    diamond,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from .structures import (
    AveragingGroupHandle,
    IntShiftGroup,
    check_disemigroup,
    check_pointed_consequences,
    check_rack,
    cyclic_group,
    idempotent_endo_operator,
    klein_four_group,
    search_averaging_ops,
    sym3,
    sym3_sign_retraction,
)
from .linearalg import (
    LieAlgebraSpec,
    check_averaging_lie,
    check_hopf_equivalence,
    check_leibniz,
)

__version__ = "0.1.0"
