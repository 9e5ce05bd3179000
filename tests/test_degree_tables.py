"""Per-degree value tables of the parametric models.

An agent whose value on sets holding it depends only on
``k = |S & N(i) \\ {i}|`` is bound to one table of ``|N(i) \\ {i}| + 1``
floats, filled at bind time with the model's own formula.  These tests pin
that every value is the formula's float, ``repr`` for ``repr`` (``-0.0``
included), that table-weighted agents are unchanged, and that a value query
calls no shape function while a bind calls each one once per ``k``.
"""

import math
from itertools import product

import pytest

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
)
from extauction.experiments import gen_instance
from extauction.valuations import SHAPES

SHAPE_FORMULAS = {"linear": float, "sqrt": math.sqrt}
TS = (-0.0, 0.0, 2.5)
WEIGHTS = (
    DegreeWeight(1.5, 0.5, "linear"),
    DegreeWeight(0.5, 1.25, "sqrt"),
    DegreeWeight(2.0, 0.0, "sqrt"),  # scale = 0
    DegreeWeight(-0.0, 0.0),  # -0.0 + 0.0 * k is 0.0, not -0.0
)


def _degree_models():
    for t, w in product(TS, WEIGHTS):
        yield AdditiveModel(t, w)
        yield ScalarModel(t, w)
        yield GraphConcaveModel(t, beta=w.scale, shape=w.shape)
        for offset in WEIGHTS:
            yield LinearModel(t, w, offset)


def _weight(w, k):
    return w.base + w.scale * SHAPE_FORMULAS[w.shape](k)


def _formula(model, k):
    """``v_i`` on a set holding ``i`` and ``k`` of its neighbours, written out."""
    if isinstance(model, AdditiveModel):
        return model.t + _weight(model.weight, k)
    if isinstance(model, ScalarModel):
        return model.t * _weight(model.weight, k)
    if isinstance(model, LinearModel):
        return model.t * _weight(model.weight, k) + _weight(model.offset, k)
    return model.t * (1.0 + model.beta * SHAPE_FORMULAS[model.shape](k))


def _neighbours(graph, n, i) -> int:
    others = range(n) if graph is None else graph[i]
    return sum(1 << j for j in others if j != i)


def _graph(kind, n):
    return None if kind is None else gen_instance("scalar", n, seed=n, graph=kind).graph


@pytest.mark.parametrize("kind", [None, "er", "pa"])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_degree_tables_give_the_formula_on_every_mask(kind, n):
    graph = _graph(kind, n)
    for model in _degree_models():
        profile = ValuationProfile([model] * n, graph=graph)
        for i in range(n):
            nb, bit = _neighbours(graph, n, i), 1 << i
            for s in range(1 << n):
                want = _formula(model, (s & nb).bit_count()) if s & bit else 0.0
                assert repr(profile.value(i, s)) == repr(want), (model, kind, n, i, s)


def test_table_weighted_agents_keep_their_values():
    n = 4
    graph = _graph("er", n)
    table = {s: 0.25 * s.bit_count() for s in range(1 << n) if s & 1}
    tw, dw = TableWeight(table), DegreeWeight(0.5, 1.25, "sqrt")
    nb = _neighbours(graph, n, 0)
    cases = []
    for t in TS:
        cases += [
            (AdditiveModel(t, tw), lambda s, t=t: t + table.get(s, 0.0)),
            (ScalarModel(t, tw), lambda s, t=t: t * table.get(s, 0.0)),
            (LinearModel(t, tw, dw),
             lambda s, t=t: t * table.get(s, 0.0) + _weight(dw, (s & nb).bit_count())),
            (LinearModel(t, dw, tw),
             lambda s, t=t: t * _weight(dw, (s & nb).bit_count()) + table.get(s, 0.0)),
        ]
    cases.append((TableModel(table), lambda s: table.get(s, 0.0)))
    others = [ScalarModel(1.0, DegreeWeight())] * (n - 1)
    for model, want in cases:
        profile = ValuationProfile([model, *others], graph=graph)
        for s in range(1 << n):
            expected = want(s) if s & 1 else 0.0
            assert repr(profile.value(0, s)) == repr(expected), (model, s)


@pytest.fixture
def shape_calls(monkeypatch):
    """Count every call of every ``SHAPES`` entry bound from now on."""
    calls = [0]

    def counted(f):
        def shape(k):
            calls[0] += 1
            return f(k)
        return shape

    for name, f in list(SHAPES.items()):
        monkeypatch.setitem(SHAPES, name, counted(f))
    return calls


@pytest.mark.parametrize("kind", [None, "er", "pa"])
def test_a_value_query_calls_no_shape_and_a_bind_one_per_degree(kind, shape_calls):
    n = 7
    graph = _graph(kind, n)
    weights_of = {AdditiveModel: 1, ScalarModel: 1, GraphConcaveModel: 1, LinearModel: 2}
    for model in _degree_models():
        profile = ValuationProfile([model] * n, graph=graph)
        for i in range(n):
            shape_calls[0] = 0
            for s in range(1 << n):
                profile.value(i, s)
            assert shape_calls[0] == 0, model
            replaced = profile.replace(i, model)
            degree = _neighbours(graph, n, i).bit_count()
            assert shape_calls[0] == weights_of[type(model)] * (degree + 1), (model, i)
            assert repr([replaced.value(i, s) for s in range(1 << n)]) == repr(
                [profile.value(i, s) for s in range(1 << n)])
