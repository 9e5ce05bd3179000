"""Byte-identity pins for the mechanism outcomes and the additive-bound rows.

Each digest is a sha256 over the ``repr`` of every field a caller can read:
winners, payments (sorted by agent), revenue and the query count.  ``repr``
tells ``-0.0`` from ``0.0``, so a refactor that reorders the share arithmetic
or drops an empty-set branch shows up here even where ``==`` would not.

* ``main_mechanism`` on every labeled partition of four n = 5 profiles (a
  table, a mixed and an additive one, and one with a ``t = -0.0`` agent);
* ``cost_share`` on every disjoint ``(x, y)`` of the same profiles at four
  targets, ``-0.0`` and the all-drop case included;
* ``rsop`` on every coin vector of a few 4-bid vectors;
* the rows and summary of ``additive_bound_suite``;
* ``main_mechanism`` at seeds 0-39 and ``fixed_price_mechanism`` at the
  ``F^(1)`` price on graph-concave, additive and linear profiles at n = 48 and
  128 on an ER (p = 4/n), a preferential-attachment and the complete graph:
  seeded label draws and pools of more than 12 members, which the n = 5 pins
  never reach.

A change meant to alter these outputs re-records the constants with
``PYTHONPATH=src python tests/test_outcome_digests.py`` and says why in
CHANGES.md.
"""

import hashlib
import itertools
import sys

from extauction import DegreeWeight, ScalarModel, ValuationProfile, benchmark_sweep
from extauction.experiments import additive_bound_suite, gen_instance
from extauction.mechanisms import (
    Partition3,
    cost_share,
    fixed_price_mechanism,
    main_mechanism,
    rsop,
)
from extauction.sets import full_mask

from conftest import submasks

N = 5
TARGETS = (0.0, -0.0, 1.0, 50.0)
BIDS = ((5.0, 3.0, 3.0, 1.0), (0.0, 2.0, 2.0, 7.5), (1.0, 1.0, 1.0, 1.0))

#: recorded on the code before the equal-split share moved into the survivor loop
RECORDED = {
    "main_mechanism": "691d9675d0ce6f22f310ddab1ce6411c4ab14a513089dce33a3b716e1366eb9e",
    "cost_share": "57b864a1e9040cd90dc491dbf92ce53e04eee585d970aa9873e4ad490b92d84a",
    "rsop": "7c02a2f8cbd6ccfc73a0482e1579d12f6731899f01d8cfcd2569349ae4253c76",
    "additive_bound": "4f491408389c5bf5598894461c6e05e3c87f4e3783592f11f91b28086ef23d3a",
}

#: recorded on the code before the label draw and the deletion rounds were inlined
RECORDED_LARGE = "eef511a958d962840e3ba89147227751aca13c17ca842b12af67b584034c780d"
LARGE_SEEDS = range(40)


def _profiles():
    signed_zero = [ScalarModel(-0.0, DegreeWeight())] + [
        ScalarModel(1.0 + i, DegreeWeight(1.0, 0.5)) for i in range(N - 1)
    ]
    return {
        "table": gen_instance("table", N, seed=3),
        "mixed": gen_instance("mixed", N, seed=4, graph="er"),
        "additive": gen_instance("additive", N, seed=5, graph="pa"),
        "signed_zero": ValuationProfile(signed_zero),
    }


def _outcome_line(label, out) -> str:
    payments = sorted((i, repr(p)) for i, p in out.payments.items())
    return f"{label} {out.winners} {payments} {out.revenue!r} {out.queries_used}\n"


def _disjoint_pairs(n):
    full = full_mask(n)
    for x in submasks(full):
        for y in submasks(full & ~x):
            yield x, y


def digests() -> dict[str, str]:
    profiles = _profiles()
    main = hashlib.sha256()
    share = hashlib.sha256()
    for name, profile in profiles.items():
        oracle = profile.oracle()
        for part in Partition3.all_partitions(N):
            out = main_mechanism(oracle, partition=part)
            main.update(_outcome_line(f"{name} {tuple(part)}", out).encode())
        for r in TARGETS:
            for x, y in _disjoint_pairs(N):
                out = cost_share(profile, r, x, y)
                share.update(_outcome_line(f"{name} {r!r} {x} {y}", out).encode())
    auction = hashlib.sha256()
    for bids in BIDS:
        for coins in itertools.product((0, 1), repeat=len(bids)):
            auction.update(_outcome_line(f"{bids} {coins}", rsop(bids, coins=list(coins))).encode())
    instances = [(f"add{n}", gen_instance("additive", n, seed=n, graph=g))
                 for n in (2, 4, 6) for g in (None, "pa")]
    report = additive_bound_suite(instances, alpha=1.5)
    rows = repr((report.columns, report.rows, sorted(report.summary.items())))
    return {
        "main_mechanism": main.hexdigest(),
        "cost_share": share.hexdigest(),
        "rsop": auction.hexdigest(),
        "additive_bound": hashlib.sha256(rows.encode()).hexdigest(),
    }


def _large_profiles():
    for model in ("graph_concave", "additive", "linear"):
        for n in (48, 128):
            for graph in ("er", "pa", None):
                yield (f"{model} n={n} {graph}",
                       gen_instance(model, n, seed=n, graph=graph, graph_p=4 / n))


def large_digest() -> str:
    """One sha256 over the seeded runs and the ``F^(1)``-price sale of every large profile."""
    h = hashlib.sha256()
    for name, profile in _large_profiles():
        for seed in LARGE_SEEDS:
            h.update(_outcome_line(f"{name} {seed}", main_mechanism(profile, seed)).encode())
        price = benchmark_sweep(profile, 1).price
        h.update(_outcome_line(f"{name} {price!r}", fixed_price_mechanism(profile, price)).encode())
    return h.hexdigest()


def test_outcomes_match_the_recorded_digests():
    assert digests() == RECORDED


def test_the_pins_cover_signed_zero_and_all_drop_outcomes():
    """The cost-share digest covers a ``-0.0`` revenue and a pool that loses everyone."""
    profiles = _profiles()
    signed = cost_share(profiles["signed_zero"], -0.0, 0b00110, 0)
    assert signed.winners == 0b00110 and repr(signed.revenue) == "-0.0"
    dropped = cost_share(profiles["signed_zero"], 50.0, full_mask(N), 0)
    assert dropped.winners == 0 and dropped.payments == {} and repr(dropped.revenue) == "0.0"


def test_large_outcomes_match_the_recorded_digest():
    assert large_digest() == RECORDED_LARGE


if __name__ == "__main__":
    for key, value in digests().items():
        sys.stdout.write(f"{key}: {value}\n")
    sys.stdout.write(f"large: {large_digest()}\n")
