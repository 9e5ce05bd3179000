"""The exhaustive checker on agents bound to a per-degree table.

Such an agent is checked from its table of ``d + 1`` floats, with no
``2^n`` column and no witness walk, unless some comparison of the scan can
fail on it; then it is scanned as before.  These tests pin that the short
cut changes nothing: every profile gives the same violations, capped or not,
and the same ``estimate_L`` as the same profile with its tables hidden
(each bound function rewrapped, which forces the full scan).  The hostile
tables sit on the float edges of the scan's comparisons.
"""

import math
from dataclasses import dataclass

import pytest

from extauction import GraphConcaveModel, ValuationProfile, check_conditions, estimate_L
from extauction.experiments import _FAMILIES, gen_instance
from extauction.valuations import EPS, EXHAUSTIVE_MAX_N, _bind_by_degree, _degree_table

CAPS = (1, 5, 100, 10**6)


class _Hidden:
    """Same values as ``model``, through a wrapper that has no degree table."""

    def __init__(self, model):
        self.model = model

    def bind(self, i, neighbor_mask):
        fn = self.model.bind(i, neighbor_mask)
        return lambda s: fn(s)


@dataclass(frozen=True)
class _Planted:
    """Bound through ``_bind_by_degree`` to ``values``; ``extra`` adds neighbour bits."""

    values: tuple
    extra: int = 0

    def bind(self, i, neighbor_mask):
        return _bind_by_degree(i, neighbor_mask | self.extra, lambda ks: self.values)


def _tables(profile):
    return [_degree_table(fn) for fn in profile._fns]


def _assert_same_as_scanned(profile):
    """The checker's output equals the full scan's; returns the uncapped violations."""
    hidden = ValuationProfile([_Hidden(m) for m in profile.models], graph=profile.graph)
    assert not any(_tables(hidden))
    got = [check_conditions(profile, max_violations=cap) for cap in CAPS]
    assert repr(got) == repr([check_conditions(hidden, max_violations=cap) for cap in CAPS])
    assert repr(estimate_L(profile)) == repr(estimate_L(hidden))
    return got[-1]


@pytest.mark.parametrize("graph", [None, "er", "pa"])
@pytest.mark.parametrize("family", [*_FAMILIES, "mixed"])
def test_generated_profiles_check_as_the_scan_does(family, graph):
    for n in range(1, 9):
        profile = gen_instance(family, n, seed=n, graph=graph)
        if family != "mixed":
            assert any(_tables(profile)) == (family != "table")
        assert _assert_same_as_scanned(profile) == []


def test_an_all_degree_profile_at_the_cap_checks_as_the_scan_does():
    profile = gen_instance("linear", EXHAUSTIVE_MAX_N, seed=3, graph="pa")
    assert None not in _tables(profile)
    assert _assert_same_as_scanned(profile) == []


# --- hostile tables ---------------------------------------------------------------

N = 4
D = N - 1  # the planted agent's degree on the complete graph
SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 1e308, -1e308, -EPS, math.nextafter(-EPS, -math.inf))


def _planted(values, at=0, graph=None, extra=0):
    """Agent ``at`` planted with ``values``, the others valid degree agents."""
    models = [GraphConcaveModel(1.0)] * N
    models[at] = _Planted(tuple(values), extra)
    return ValuationProfile(models, graph=graph)


def _kinds(found):
    return {v.kind for v in found}


@pytest.mark.parametrize("at", [0, N - 1])
@pytest.mark.parametrize("x", SPECIALS, ids=repr)
def test_a_special_float_at_every_degree(x, at):
    for k in range(D + 1):
        values = [1.0 + j for j in range(D + 1)]
        values[k] = x
        _assert_same_as_scanned(_planted(values, at))
    _assert_same_as_scanned(_planted([x] * (D + 1), at))


def test_eps_is_absorbed_near_the_largest_floats():
    big = 1e308
    assert big + EPS == big
    assert _assert_same_as_scanned(_planted([big] * (D + 1))) == []
    dip = [big, math.nextafter(big, 0.0), big, big]
    assert _kinds(_assert_same_as_scanned(_planted(dip))) == {"monotonicity"}
    sup = [0.0, big * 0.5, big, big]  # 1e308 > 5e307 + 5e307 + EPS is False
    assert _assert_same_as_scanned(_planted(sup)) == []


@pytest.mark.parametrize("k", range(D))
def test_a_dip_of_eps_passes_and_one_ulp_more_fails(k):
    for low in (0.5, 3.0):
        values = [low] * (D + 1)
        values[k] = low + EPS  # g[k] > g[k + 1] + EPS is False exactly
        assert _assert_same_as_scanned(_planted(values)) == []
        values[k] = math.nextafter(low + EPS, math.inf)
        assert _kinds(_assert_same_as_scanned(_planted(values))) == {"monotonicity"}


@pytest.mark.parametrize("at", [0, N - 1])
def test_an_excess_of_eps_passes_and_one_ulp_more_fails_at_every_pair(at):
    for a in range(1, D + 1):
        for b in range(1, D + 1 - a):
            values = [float(k) for k in range(D + 1)]
            values[a + b] = values[a] + values[b] + EPS
            assert _assert_same_as_scanned(_planted(values, at)) == []
            values[a + b] = math.nextafter(values[a + b], math.inf)
            assert _kinds(_assert_same_as_scanned(_planted(values, at))) == {"subadditivity"}


@pytest.mark.parametrize("x", (*SPECIALS, 0.0, 2.5), ids=repr)
def test_isolated_agents(x):
    graph = [[], [2, 3], [1, 3], [1, 2]]
    _assert_same_as_scanned(_planted([x], graph=graph))


def test_neighbour_bits_beyond_n_reach_no_mask():
    extra = 1 << N | 1 << (N + 5)
    valid = [float(k) for k in range(D + 3)]
    for bad in ([*valid[:-1], math.nan], [*valid[:-1], -1.0], [*valid[:-2], 9.0, 9.0],
                [*valid[:-2], 2.0 * valid[-2], valid[-2]]):
        assert _assert_same_as_scanned(_planted(bad, extra=extra)) == []
    hostile = [*valid[:D], math.nan, *valid[D + 1:]]  # reachable: g[D] is the full set
    assert _kinds(_assert_same_as_scanned(_planted(hostile, extra=extra))) == {"nonfinite"}


def test_a_table_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="3 neighbours but 2 degree values"):
        _planted([0.0, 1.0])
