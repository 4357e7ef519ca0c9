"""Fixtures shared across test packages."""

import pytest


@pytest.fixture(scope="session")
def crossval_matrix():
    """The fixture × rung cross-validation matrix, built once per session:
    the lint, sanitize, verify and whole-program suites each read their
    own columns of it, and none mutates it."""
    from repro.verify.crossval import build_matrix

    return build_matrix(mode="dpor")


@pytest.fixture(autouse=True)
def fresh_grading_cache(monkeypatch):
    """Each test grades into an empty grading cache, so cache hits and
    misses never depend on which tests ran before it."""
    from repro.pedagogy import autograder

    monkeypatch.setattr(autograder, "_grading_cache", None)
