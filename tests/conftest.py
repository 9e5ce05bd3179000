from typing import Iterator

import pytest

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


@pytest.fixture
def three_flat():
    return flat_bids_profile([5.0, 3.0, 3.0])
