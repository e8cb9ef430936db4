"""Every package error survives pickling, as it must to cross from a
screen worker to the caller."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from nbfsir import errors

_CLASSES = [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.NBFSIRError)]


def _example(cls: type) -> errors.NBFSIRError:
    if cls is errors.ExpressionSyntaxError:
        return cls("bad token", 3)
    if cls is errors.StiffnessError:
        return cls("step size underflowed", t=2.5,
                   state=(np.array([0.5, 0.25]), np.array([1e-3, 0.0])))
    return cls(f"a {cls.__name__}")


def test_every_class_is_covered():
    assert len(_CLASSES) == 9


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip_through_pickle(cls):
    error = _example(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert copy.__dict__.keys() == error.__dict__.keys()
    for name, value in vars(error).items():
        if name == "state":
            assert all(np.array_equal(a, b) for a, b in zip(copy.state, value))
        else:
            assert getattr(copy, name) == value


def test_syntax_error_keeps_its_offset():
    copy = pickle.loads(pickle.dumps(errors.ExpressionSyntaxError("bad token", 3)))
    assert copy.offset == 3
    assert str(copy) == "bad token (offset 3)"


def test_a_named_syntax_error_keeps_its_field():
    error = errors.ExpressionSyntaxError("bad token", 3).within("entries[0][1]")
    copy = pickle.loads(pickle.dumps(error.within("interaction")))
    assert (copy.reason, copy.offset) == ("bad token", 3)
    assert copy.where == "interaction.entries[0][1]"
    assert str(copy) == "interaction.entries[0][1]: bad token (offset 3)"
