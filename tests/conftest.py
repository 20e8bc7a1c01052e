import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(autouse=True)
def numpy_state_is_restored():
    """Fail a test that leaves numpy's ufunc buffer size or error handling changed.

    The discrete engine sets the buffer size for a run and restores it in a
    ``finally``; a leaked setting would carry into the tests that follow
    and could move the bits they compare. Both are put back before the
    failure, so that the tests after it run with them.
    """
    bufsize, errors = np.getbufsize(), np.geterr()
    yield
    left = np.getbufsize(), np.geterr()
    np.setbufsize(bufsize)
    np.seterr(**errors)
    assert left[0] == bufsize, f"ufunc buffer size left at {left[0]}, was {bufsize}"
    assert left[1] == errors, f"floating-point error handling left at {left[1]}, was {errors}"
