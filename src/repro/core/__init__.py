"""Core evaluation layer: experiment configuration, scheme evaluation,
Table 1 comparison and config paths (DESIGN.md S8)."""

from .comparison import SchemeComparison, compare_schemes
from .config import ExperimentConfig, paper_experiment
from .scheme_evaluator import SchemeEvaluator, SchemeResult

__all__ = [
    "ExperimentConfig",
    "SchemeComparison",
    "SchemeEvaluator",
    "SchemeResult",
    "compare_schemes",
    "paper_experiment",
]
