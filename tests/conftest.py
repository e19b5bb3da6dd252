import contextlib

import numpy as np
import pytest

from fockbench.bench import builtin_figure1
from fockbench.errors import FockbenchError


@pytest.fixture
def bench():
    return builtin_figure1()


@pytest.fixture
def rng():
    return np.random.default_rng(20020927)


def haar_unitary(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@contextlib.contextmanager
def raises_invariant(match: str):
    """Expect ``FockbenchError`` itself, the broken-invariant error, with a
    message matching ``match``: a subclass such as ``BadParam`` fails."""
    with pytest.raises(FockbenchError, match=match) as excinfo:
        yield
    assert excinfo.type is FockbenchError
