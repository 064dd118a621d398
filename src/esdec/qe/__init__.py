"""Decision procedure for prenex sentences over the reals.

Submodules: principal subresultant coefficients by one int Bareiss
determinant (resultants), univariate root isolation, real algebraic
numbers, and signs and roots at sample points, all on int polynomials
(roots; at two or more irrational coordinates through a resultant
cascade of the same int determinants), sentence AST / parser / SMT-LIB
export (sentences), and the cylindrical-decomposition decision procedure
itself, which also hands out the sign vectors of its cells (cad).
"""

from .cad import LiftStats, QeBudget, decide_sentence, decide_sentence_stats, sign_vectors
from .resultants import psc_set
from .roots import RealAlgebraicNumber, isolate_real_roots
from .sentences import Sentence, export_smtlib, parse_sentence, sentence_negate

__all__ = [
    "LiftStats", "QeBudget", "decide_sentence", "decide_sentence_stats", "sign_vectors",
    "psc_set",
    "RealAlgebraicNumber", "isolate_real_roots",
    "Sentence", "export_smtlib", "parse_sentence", "sentence_negate",
]
