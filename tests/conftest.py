import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kashin import frames, linalg, uncertainty

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def frame_8x16():
    return frames.gen_random_orthogonal(8, 16, 11)


@pytest.fixture(scope="session")
def frame_64x128():
    return frames.gen_random_orthogonal(64, 128, 7)


@pytest.fixture(scope="session")
def exact_up_8x16(frame_8x16):
    """Exhaustively verified (eta, witness) at delta = 2/16."""
    return uncertainty.up_check_exact(frame_8x16, 2 / 16)


@pytest.fixture(scope="session")
def two_copies_frame():
    """n=1, N=2 frame with both vectors 1/sqrt(2): the smallest tight
    frame with a nontrivial spread."""
    m = np.full((1, 2), 1 / np.sqrt(2), dtype=np.complex128)
    return frames.FrameMatrix(n=1, N=2, kind=frames.DENSE, matrix=m)


def unit_vectors(n, count, seed, complex_valued=False):
    """Deterministic random unit vectors for trial loops."""
    g = linalg.rng_from_seed(seed)
    out = []
    for _ in range(count):
        x = g.standard_normal(n)
        if complex_valued:
            x = x + 1j * g.standard_normal(n)
        out.append(x / np.linalg.norm(x))
    return out


def column_unit(frame, index):
    """The index-th frame vector, normalized — the classic input that
    actually triggers coefficient clipping."""
    u = frames.dense(frame)[:, index]
    return u / np.linalg.norm(u)


def run_with_memory_cap(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose address space is capped at
    2 GiB, so that a call which asks for more memory fails there, and
    never in the test process."""
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", cap + code], env=env,
                          capture_output=True, text=True, timeout=120)
