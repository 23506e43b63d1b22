"""Same tests, every backend (ROADMAP item 9): a test that takes ``run``
(or ``backend``) runs once per registered execution backend.

The default backend's case keeps the id the test had before it was
parametrized (``test_x``, not ``test_x[threads]``), so lists of test ids
recorded earlier still name it; the others read ``test_x[mp]``.
"""

from pathlib import Path

import pytest

from repro.exec import DEFAULT_BACKEND, backend_names
from repro.mpi import ZERO_COST, mpirun


@pytest.fixture(params=backend_names())
def backend(request):
    return request.param


@pytest.fixture
def run(backend):
    """``mpirun`` on the backend under test, communication for free."""
    def run(n, fn, **kw):
        return mpirun(n, fn, machine=ZERO_COST, backend=backend, **kw)

    return run


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:      # the hook sees the whole session's items
        callspec = getattr(item, "callspec", None)
        if (callspec and item.path.parent == here
                and callspec.params.get("backend") == DEFAULT_BACKEND):
            base, _, ids = item.nodeid[:-1].partition("[")
            ids = [i for i in ids.split("-") if i != DEFAULT_BACKEND]
            item._nodeid = base + (f"[{'-'.join(ids)}]" if ids else "")
