"""The value types are named tuples: each compares and hashes by value,
refuses assignment, prints as ``Type(field=value, ...)``, and the validating
ones refuse bad arguments with a ValueError."""

import pytest

from winspell.bayes import Decision
from winspell.corpus import ConfusionSet, CorruptionEntry, Occurrence, Sentence
from winspell.evaluation import EvalReport, ExperimentConfig, SetResult, SplitSpec
from winspell.features import ExtractionParams


def sentence():
    return Sentence(("a", "peace", "of", "cake"), 3)


def set_result():
    return SetResult("peace, piece", 2, {"bayes": [True, False]})


# (build a fresh instance, whether it hashes, arguments the constructor
# refuses, the refusal's message). The lists and dicts a result holds make it
# unhashable.
CASES = {
    "Sentence": (sentence, True, None, None),
    "ConfusionSet": (lambda: ConfusionSet((("peace",), ("piece",))), True,
                     ((("peace",), ("Piece",)),), "confusion-set members must be lowercase"),
    "Occurrence": (lambda: Occurrence(sentence(), 1, 1, 0), True, None, None),
    "CorruptionEntry": (lambda: CorruptionEntry(0, 1, 0, 1), True, None, None),
    "ExtractionParams": (lambda: ExtractionParams(5, 1), True,
                         (10, 3), "collocation length l must be 1 or 2"),
    "Decision": (lambda: Decision((-1.5, -2.0), 0), True, None, None),
    "SplitSpec": (lambda: SplitSpec(0.6, 4), True,
                  (0.0, 1), "split fraction must be strictly between 0 and 1"),
    "SetResult": (set_result, False, None, None),
    "EvalReport": (lambda: EvalReport(("bayes",), [set_result()]), False, None, None),
    "ExperimentConfig": (lambda: ExperimentConfig("c.txt", "s.txt", "t.tsv", seed=2), True,
                         None, None),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type(name):
    make, hashable, bad_args, message = CASES[name]
    a, b = make(), make()
    cls = type(a)
    assert cls.__name__ == name
    assert a == b and a is not b
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}({cls._fields[0]}=")
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    if bad_args is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(*bad_args)


def test_sentence_length_counts_tokens():
    assert len(sentence()) == 4
    assert not Sentence(())
