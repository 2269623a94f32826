import tracemalloc

import numpy as np
# numpy loads numpy.fft on first use; import it here, so that no test's
# tracemalloc region counts that import against its memory bound
import numpy.fft  # noqa: F401
import pytest


@pytest.fixture
def transforms(monkeypatch):
    """The shape of each numpy FFT call made during a test, in call order;
    its len() is the running count."""
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda a, *r, _fn=original, **k: calls.append(np.shape(a))
                            or _fn(a, *r, **k))
    return calls


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs): fn's value and the peak bytes that
    tracemalloc traced while fn ran."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
