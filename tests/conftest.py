import numpy as np
import pytest


@pytest.fixture
def transforms(monkeypatch):
    """Running count of numpy FFT calls made during a test."""
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _fn=original, **k: calls.append(1) or _fn(*a, **k))
    return calls
