"""Fixtures shared by the pinned-quadrature tests."""

import pytest

from genfisher import numerics


@pytest.fixture
def evaluations(monkeypatch):
    """Evaluation count of every adaptive integration run by the test."""
    counts = []
    adaptive = numerics._adaptive

    def recording(pieces, spec):
        result = adaptive(pieces, spec)
        counts.append(result.evaluations)
        return result

    monkeypatch.setattr(numerics, "_adaptive", recording)
    return counts
