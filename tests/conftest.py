import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

import extauction
from extauction import benchmark as bm
from extauction import (
    DegreeWeight,
    ScalarModel,
    TableModel,
    ValuationProfile,
)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself, in descending order."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def values(profile, i) -> tuple[float, ...]:
    """Agent ``i``'s ``v_i(S)`` over every mask ``S`` in ``0 .. 2^n - 1``, one
    ``profile.value`` call per mask."""
    return tuple(profile.value(i, s) for s in range(1 << profile.n))


def flat_bids_profile(bids):
    """No-externality profile: v_i(S) = bids[i] whenever i is in S."""
    return ValuationProfile(
        [ScalarModel(t=b, weight=DegreeWeight(base=1.0, scale=0.0)) for b in bids]
    )


def size_scalar_profile(n, t=1.0):
    """Symmetric profile v_i(S) = t * |S| for i in S."""
    return ValuationProfile(
        [ScalarModel(t=t, weight=DegreeWeight(base=1.0, scale=1.0, shape="linear")) for _ in range(n)]
    )


def square_table_profile(n, t=1.0):
    """v_i(S) = t * |S|^2 for i in S: monotone but not subadditive."""
    models = []
    for i in range(n):
        values = {
            s: t * s.bit_count() ** 2 for s in range(1 << n) if (s >> i) & 1
        }
        models.append(TableModel(values))
    return ValuationProfile(models)


@contextmanager
def generic_path():
    """Lift the large-pool gate (``benchmark._LEAST_LARGE_POOL``) while the block runs,
    so that every sweep steps through ``Oracle.argmin`` and every deletion round
    through ``Oracle.below``: one evaluator call per counted query, at any pool size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bm, "_LEAST_LARGE_POOL", math.inf)
        yield


@pytest.fixture
def three_flat():
    return flat_bids_profile([5.0, 3.0, 3.0])


def run_python(code: str, *flags: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter (with ``flags``, such as ``-O``) that
    imports this checkout's ``extauction``."""
    src = str(Path(extauction.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)
