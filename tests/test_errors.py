import pickle

import pytest

import sismob.errors as errors

ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.SismobError)]


def _instance(cls):
    if cls is errors.ConfigError:
        return cls("graph.n", "must be at most 4096, got 9999")
    return cls("a message")


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


def test_families_are_the_whole_hierarchy():
    assert sorted(c.__name__ for c in ERROR_CLASSES) == [
        "ConfigError", "InputError", "NumericalError", "RegimeError", "SismobError",
    ]
