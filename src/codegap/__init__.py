"""codegap: self-supervised context/target pair generation for code retrieval.

The toolkit splits source files into a masked context and a syntactically
complete target span, removes lexical leakage between the two (mutual
identifier masking, dedentation), and evaluates retrieval with standard
ranking metrics plus a small hashed-feature dual encoder.
"""

__version__ = "0.1.0"

from .languages import Language, get_language, supported_languages
from .tree import SyntaxTree, parse
from .spans import SpanSelection, sample_target_length, select_span, split
from .deleak import MaskingPlan, apply_masking, dedent_target, mutual_identifiers, plan_masking

__all__ = [
    "Language",
    "get_language",
    "supported_languages",
    "SyntaxTree",
    "parse",
    "SpanSelection",
    "sample_target_length",
    "select_span",
    "split",
    "MaskingPlan",
    "mutual_identifiers",
    "plan_masking",
    "apply_masking",
    "dedent_target",
]
