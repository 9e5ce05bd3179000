"""The exhaustive checker's certificates, against a reference copy of its witness walk.

The checker walks an agent's witness triples only when a certificate fails:
an agent bound to a per-degree table is tested on its table of ``d + 1``
floats (``_degree_table_holds``), any other agent on its ``2^n`` column
(``_column_holds``).  These tests pin that the short cuts change nothing:
every profile gives the same violations, at every cap, and the same
``estimate_L`` as ``_scan``, a copy kept here of the walk as it stood before
either certificate, which walks every agent.  The hostile tables and columns
sit on the float edges of the scan's comparisons; the last tests pin that
every valid generated agent is certified, since a certificate that is too
strict changes no output.
"""

import math
from dataclasses import dataclass

import pytest

from extauction import GraphConcaveModel, TableModel, ValuationProfile, check_conditions, estimate_L
from extauction import valuations
from extauction.experiments import _FAMILIES, gen_instance
from extauction.sets import iter_members
from extauction.valuations import (
    EPS,
    EXHAUSTIVE_MAX_N,
    Violation,
    _bind_by_degree,
    _column_holds,
    _degree_table,
)

CAPS = (1, 5, 100, 10**6)


def _scan(profile):
    """Every violation of the exhaustive check, in its order, by the plain witness walk."""
    n = profile.n
    fullm = profile.full
    for i in range(n):
        v = tuple([profile.value(i, s) for s in range(1 << n)])
        bit = 1 << i
        for s in range(1 << n):
            val = v[s]
            if not s & bit:
                if not abs(val) <= EPS:
                    yield Violation("nonzero_outside", i, (s,), val, 0.0)
                continue
            if val < -EPS:
                yield Violation("negative", i, (s,), val, 0.0)
            elif not val < math.inf:
                yield Violation("nonfinite", i, (s,), val, 0.0)
            for j in range(n):
                if not s >> j & 1:
                    up = v[s | 1 << j]
                    if val > up + EPS:
                        yield Violation("monotonicity", i, (s, s | 1 << j), val, up)
        rest = fullm ^ bit
        sub = rest
        while True:
            s = sub | bit
            other = rest ^ sub
            d = other
            while True:
                u = v[s | d]
                bound = v[s] + v[d | bit]
                if u > bound + EPS:
                    yield Violation("subadditivity", i, (s, d | bit), u, bound)
                if not d:
                    break
                d = (d - 1) & other
            if not sub:
                break
            sub = (sub - 1) & rest


def _scanned_L(scanned):
    """``estimate_L`` read from the reference walk's violations."""
    return max((w.lhs / w.rhs if w.rhs > EPS else math.inf
                for w in scanned if w.kind == "subadditivity"), default=1.0)


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
    """The checker's output equals the reference walk's; returns the uncapped violations."""
    scanned = list(_scan(profile))
    got = [check_conditions(profile, max_violations=cap) for cap in CAPS]
    assert repr(got) == repr([scanned[:cap] for cap in CAPS])
    assert repr(estimate_L(profile)) == repr(_scanned_L(scanned))
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


# --- hostile columns --------------------------------------------------------------

COLUMN_SIZES = (1, 2, 4)


@dataclass(frozen=True)
class _Column:
    """Bound to ``values[s]`` at every mask ``s``, off the agent's sets too."""

    values: tuple

    def bind(self, i, neighbor_mask):
        return self.values.__getitem__


def _column_profile(n, at, column):
    """Agent ``at`` of ``n`` reads ``column`` (a table model when it is 0 off the
    agent's sets); the others are valid table agents, worth ``sqrt(|S|)``."""
    bit = 1 << at
    if all(x == 0.0 and not math.copysign(1.0, x) < 0 for s, x in enumerate(column) if not s & bit):
        planted = TableModel({s: x for s, x in enumerate(column) if s & bit})
    else:
        planted = _Column(tuple(column))
    models = [TableModel({s: math.sqrt(s.bit_count()) for s in range(1 << n) if s >> j & 1})
              for j in range(n)]
    models[at] = planted
    profile = ValuationProfile(models)
    assert not any(_tables(profile))
    return profile


@pytest.mark.parametrize("n", COLUMN_SIZES)
@pytest.mark.parametrize("x", (*SPECIALS, 2.5), ids=repr)
def test_a_special_float_at_every_mask_of_a_column(x, n):
    for at in {0, n - 1}:
        for s in range(1 << n):
            column = [float(m.bit_count()) if m >> at & 1 else 0.0 for m in range(1 << n)]
            column[s] = x
            found = _assert_same_as_scanned(_column_profile(n, at, column))
            if not s >> at & 1:
                assert (found == []) == (abs(x) <= EPS)
        column = [x if m >> at & 1 else 0.0 for m in range(1 << n)]
        _assert_same_as_scanned(_column_profile(n, at, column))


@pytest.mark.parametrize("n", COLUMN_SIZES)
def test_a_dip_of_eps_in_a_column_passes_and_one_ulp_more_fails(n):
    for at in {0, n - 1}:
        for s in range(1 << n):
            for j in range(n):
                if not s >> at & 1 or s >> j & 1:
                    continue
                for low in (0.5, 3.0):
                    column = [low if m >> at & 1 else 0.0 for m in range(1 << n)]
                    column[s] = column[s | 1 << j] + EPS  # a > b + EPS is False exactly
                    assert _assert_same_as_scanned(_column_profile(n, at, column)) == []
                    column[s] = math.nextafter(column[s], math.inf)
                    found = _assert_same_as_scanned(_column_profile(n, at, column))
                    assert _kinds(found) == {"monotonicity"}


@pytest.mark.parametrize("n", COLUMN_SIZES)
def test_an_excess_of_eps_in_a_column_passes_and_one_ulp_more_fails_at_every_split(n):
    for at in {0, n - 1}:
        bit = 1 << at
        rest = ((1 << n) - 1) ^ bit
        splits = [(x, y) for x in range(1, 1 << n) for y in range(1, 1 << n)
                  if not x & ~rest and not y & ~rest and not x & y]
        assert len(splits) == 3 ** (n - 1) - 2 ** n + 1  # both parts non-empty
        for x, y in splits:
            # v(S) = |S| - 1: every split is tight, so only the planted one can fail
            column = [float(m.bit_count() - 1) if m & bit else 0.0 for m in range(1 << n)]
            column[x | y | bit] = column[x | bit] + column[y | bit] + EPS
            assert _assert_same_as_scanned(_column_profile(n, at, column)) == []
            column[x | y | bit] = math.nextafter(column[x | y | bit], math.inf)
            found = _assert_same_as_scanned(_column_profile(n, at, column))
            assert _kinds(found) == {"subadditivity"}


def test_a_value_under_minus_eps_that_only_the_negative_test_sees():
    """At n = 2, ``v({i}) = c + EPS`` and ``v(N) = c`` pass every monotonicity and
    subadditivity test for these ``c``, so only ``c < -EPS`` fails (at ``c = -2 * EPS``
    the sum ``c + (c + EPS) + EPS`` rounds below ``c``)."""
    for c in (math.nextafter(-EPS, -math.inf), -1.5 * EPS):
        for at in (0, 1):
            column = [0.0] * 4
            column[1 << at] = c + EPS
            column[3] = c
            found = _assert_same_as_scanned(_column_profile(2, at, column))
            assert [(v.kind, v.sets) for v in found] == [("negative", (3,))]


# --- the fast path is taken ------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """``(certified, walked)``: each ``_column_holds`` result, and each mask that
    ``valuations`` reads members of, as the checker's walk does once per mask
    in its monotonicity loop (so does a profile build, once per agent: clear
    ``walked`` after building)."""
    certified, walked = [], []

    def holds(v, n, i):
        certified.append((i, _column_holds(v, n, i)))
        return certified[-1][1]

    def members_of(mask):
        walked.append(mask)
        return iter_members(mask)

    monkeypatch.setattr(valuations, "_column_holds", holds)
    monkeypatch.setattr(valuations, "iter_members", members_of)
    return certified, walked


@pytest.mark.parametrize("graph", [None, "er", "pa"])
@pytest.mark.parametrize("family", [*_FAMILIES, "mixed"])
def test_every_generated_agent_without_a_table_is_certified_from_its_column(family, graph, walks):
    certified, walked = walks
    for n in range(1, 11):
        profile = gen_instance(family, n, seed=n, graph=graph)
        del certified[:], walked[:]
        assert check_conditions(profile) == []
        columns = [i for i, g in enumerate(_tables(profile)) if g is None]
        assert certified == [(i, True) for i in columns]
        assert walked == []


def test_a_planted_violation_is_walked(walks):
    certified, walked = walks
    n = 5
    column = [float(m.bit_count()) if m & 2 else 0.0 for m in range(1 << n)]
    column[0b00110] = -1.0
    profile = _column_profile(n, 1, column)
    del walked[:]
    found = check_conditions(profile)
    assert "negative" in _kinds(found) and {v.agent for v in found} == {1}
    assert certified == [(0, True), (1, False), (2, True), (3, True), (4, True)]
    assert walked == [profile.full ^ s for s in range(1 << n) if s & 2]  # agent 1's masks only
