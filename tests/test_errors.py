import inspect
import math
import pickle

from pdifmp import errors

# constructor arguments of the errors that take more than a message
ARGS = {
    errors.RateBoundError: (2.5, 2.0, (0.3, -1.0), 1),
    errors.SimulationDivergedError: (1.25, (math.inf, 0.5), "overflow in the flow"),
}


def test_every_error_survives_pickle():
    # a worker process hands its error to the parent through pickle
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, Exception) and c.__module__ == errors.__name__]
    assert {c for c in classes if "__init__" in vars(c)} == set(ARGS)
    for cls in classes:
        exc = cls(*ARGS.get(cls, ("bad thing at t=0.5",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
    assert errors.SimulationDivergedError(1.0, (2.0,)).__reduce__()[1] == (1.0, (2.0,), "")
