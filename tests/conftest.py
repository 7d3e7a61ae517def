from __future__ import annotations

import sys

import pytest

from matchkit.ingest import SyntheticSpec, generate_synthetic_match


@pytest.fixture(scope="session")
def match_300():
    """Mid-sized deterministic match reused across analysis tests."""
    return generate_synthetic_match(SyntheticSpec(n_points=300, p_serve_win=0.65, seed=42))


@pytest.fixture(scope="session")
def match_80():
    return generate_synthetic_match(SyntheticSpec(n_points=80, p_serve_win=0.6, seed=7))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child alive, e.g. a forked
    helper nobody joined.  Without multiprocessing imported there is no such
    child, and the check imports nothing."""
    yield
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join(timeout=10)
    assert alive == [], "the test left child processes alive"
