import ctypes
import sys
from pathlib import Path

import numpy as np
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


def _openblas_core() -> str | None:
    """The core a DYNAMIC_ARCH OpenBLAS bundled with numpy dispatched to (SkylakeX, Haswell, ...), when the
    library exports scipy-openblas's ``scipy_openblas_get_corename64_``; None otherwise. Opening the
    library numpy already loaded returns that same instance."""
    for library in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def pytest_report_header(config):
    # the bits of a solve (TestSolverBits) and the vector-state hazard (TestVectorState) follow the BLAS kernel
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas_core()
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}" + (
        f", OpenBLAS core {core}" if core else ""
    )


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
