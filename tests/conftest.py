import sys

import pytest
from hypothesis import HealthCheck, settings

from entrodyn import linalg

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that gains (h, basis) for every hermitian_eig call, whichever entrodyn module makes it;
    basis is the seed, None for a cold solve."""
    calls = []
    original = linalg.hermitian_eig

    def counting(h, basis=None):
        calls.append((h, basis))
        return original(h, basis)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "entrodyn" and getattr(module, "hermitian_eig", None) is original:
            monkeypatch.setattr(module, "hermitian_eig", counting)
    return calls
