"""Every exported name of the library modules resolves."""

from __future__ import annotations

import pytest

from braggsim import fwm, model, quantum, transfer


@pytest.mark.parametrize("module", [model, transfer, fwm, quantum],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
