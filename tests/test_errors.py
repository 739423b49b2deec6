import inspect
import pickle

import pytest

import sismob.errors as errors

# one value per constructor annotation in errors.py
SAMPLE_ARGS = {str: "fig9", int: 3, float: 0.125, tuple: ("fig1a", "fig1b")}

ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.SismobError)]


def _instance(cls):
    if "__init__" not in vars(cls):
        return cls("a message")
    params = inspect.signature(cls).parameters.values()
    return cls(*(SAMPLE_ARGS[p.annotation] for p in params))


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(cls, protocol):
    # an ensemble worker sends the error it raised to its parent pickled
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc, protocol=protocol))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
