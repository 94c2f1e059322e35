"""kconfex: kconfig-subset extraction to propositional logic, with a
brute-force reference configurator and a differential-testing harness."""

from .errors import KconfexError
from .kconfig import KconfigModel, parse_model, validate_model
from .encode import translate
from .oracle import repair_space
from .difftest import check_model, run_corpus

__all__ = [
    "KconfexError",
    "KconfigModel",
    "parse_model",
    "validate_model",
    "translate",
    "repair_space",
    "check_model",
    "run_corpus",
]

__version__ = "0.1.0"
