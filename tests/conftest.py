"""A test that forks must be marked "forks".

CI runs the tests marked "forks" a second time under ``python -X dev``,
where a descriptor, child or warning leaked on a fork path fails them.
So that no forking test misses that step, every other test runs with
``os.fork`` wrapped to count its calls, and fails if it forked at all.
The wrapper forks as usual: a path that falls back when fork fails
still forks, and is still caught.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _only_marked_tests_fork(request, monkeypatch):
    if not hasattr(os, "fork") or request.node.get_closest_marker("forks") is not None:
        yield
        return
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield
    if forks:
        pytest.fail(f"forked {len(forks)} time(s) without the forks mark", pytrace=False)
