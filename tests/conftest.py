"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture
def kappa_a(monkeypatch):
    """patch(module): that module's delta_constants normalizes delta by kappa = A, not 1/A."""

    def patch(module):
        real = module.delta_constants
        monkeypatch.setattr(module, "delta_constants", lambda case, *args: (
            Fraction(case.bernstein_lead), real(case, *args)[1]))

    return patch
