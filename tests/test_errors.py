"""Every package error survives pickling, the way a worker process of
``gliomics features --jobs N`` hands it back to the parent."""

import inspect
import pickle

import numpy as np
import pytest

from gliomics import errors

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.GliomicsError)]


def _instance(cls):
    if cls is errors.LabelOutOfRange:
        # the index as LabelMap passes it: a row of np.argwhere
        return cls(7, np.array([0, 3, 1]))
    return cls("something went wrong")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    if cls is errors.LabelOutOfRange:
        assert back.value == 7
        assert back.index == (0, 3, 1)
