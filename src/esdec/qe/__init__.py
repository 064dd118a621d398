"""Decision procedure for prenex sentences over the reals.

Submodules: exact resultants and principal subresultant coefficients
(resultants), univariate root isolation and real algebraic numbers
(roots), sentence AST / parser / SMT-LIB export (sentences), and the
cylindrical-decomposition decision procedure itself, which also hands
out the sign vectors of its cells (cad).
"""

from .cad import LiftStats, QeBudget, decide_sentence, decide_sentence_stats, sign_vectors
from .resultants import psc_set, resultant
from .roots import RealAlgebraicNumber, isolate_real_roots
from .sentences import Sentence, export_smtlib, parse_sentence, sentence_negate

__all__ = [
    "LiftStats", "QeBudget", "decide_sentence", "decide_sentence_stats", "sign_vectors",
    "psc_set", "resultant",
    "RealAlgebraicNumber", "isolate_real_roots",
    "Sentence", "export_smtlib", "parse_sentence", "sentence_negate",
]
