from pathlib import Path

import pytest

from kconfex.difftest import DEFAULT_MAX_OPTIONS, _enumerate, builtin_oracle
from kconfex.encode import translate
from kconfex.kconfig import parse_model
from kconfex.prop import assignment_masks, evaluate_mask

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

NOPROMPT_CHOICE_SOURCE = """\
choice
\tprompt "choice prompt"

config A
\tboolean "A prompt"

config B
\tboolean "B prompt"
\tdefault n

config NOPROMPT
\tboolean
\tdefault y

endchoice
"""


@pytest.fixture
def noprompt_choice_model():
    return parse_model(NOPROMPT_CHOICE_SOURCE, "golden_choice")


@pytest.fixture(scope="session")
def corpus_dir():
    assert CORPUS_DIR.is_dir()
    return CORPUS_DIR


def corpus_models():
    out = []
    for path in sorted(CORPUS_DIR.glob("*.kconfig")):
        out.append((path.name, parse_model(path.read_text(encoding="utf-8"), path.name)))
    return out


def model_counts(model, constraints=None):
    """The conjunction's models over every assignment to the translated
    variables, and the enumerated configurations the builtin oracle finds
    valid.

    Images of distinct configurations are distinct assignments.  So where
    ``check_model`` reports no mismatch, equal counts mean the formula has no
    model outside the images of the valid configurations: it is equivalent to
    the disjunction of the valid rows' images.
    """
    if constraints is None:
        constraints = translate(model)
    masks, ones = assignment_masks(constraints.variable_order)
    models = evaluate_mask(constraints.conjunction(), masks, ones)
    valid, _ = builtin_oracle(model, _enumerate(model, DEFAULT_MAX_OPTIONS))
    return models.bit_count(), valid.bit_count()
