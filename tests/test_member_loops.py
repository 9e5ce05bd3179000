"""The member loops on the oracle and the member table behind them.

``Oracle.argmin`` (one sweep step) and ``Oracle.below`` (one deletion round)
count ``|t|`` queries per call instead of one per lookup.  These tests pin that
rule against an independent count: every evaluator of an untabulated oracle is
wrapped in a call counter, and ``oracle.queries`` must equal the number of
calls.  ``sets.iter_members`` reads a shared tuple per mask below
``MEMBER_TABLE_SIZE`` and scans bits above it; both must give the members in
ascending order.
"""

import random

import pytest

from extauction import (
    Partition3,
    benchmark_bruteforce,
    benchmark_sweep,
    main_mechanism,
    main_mechanism_exact_expectation,
)
from extauction.benchmark import maximal_feasible_set
from extauction.experiments import GEN_MODELS, gen_instance
from extauction.mechanisms import cost_share
from extauction.sets import MEMBER_TABLE_SIZE, iter_members, members

from conftest import run_python


def _bit_scan(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_members_match_a_bit_scan_on_both_sides_of_the_table():
    assert MEMBER_TABLE_SIZE == 1 << 12
    for m in range(1 << 13):
        ref = _bit_scan(m)
        assert members(m) == ref, m
        assert tuple(iter_members(m)) == ref, m


def test_members_match_a_bit_scan_on_wide_masks():
    rng = random.Random(6)
    for _ in range(2000):
        m = rng.getrandbits(rng.randint(13, 128))
        ref = _bit_scan(m)
        assert members(m) == ref
        assert tuple(iter_members(m)) == ref


def test_iter_members_builds_no_tuple_past_the_table():
    assert type(iter_members(MEMBER_TABLE_SIZE - 1)).__name__ == "tuple_iterator"
    assert type(iter_members(MEMBER_TABLE_SIZE)).__name__ == "generator"


def _counted_oracle(profile):
    """An oracle whose evaluators count their calls in ``counter[0]``.

    Swapping the evaluators also keeps them in use: the exact expectation's
    tabulated oracle (``mechanisms._Tabulated``) keeps evaluators that are not
    the profile's and adds only the sweep-step memo, a step read from the memo
    neither calls an evaluator nor counts, and the walk's queries are added to
    this oracle.
    """
    oracle = profile.oracle()
    counter = [0]

    def counted(fn):
        def call(s):
            counter[0] += 1
            return fn(s)
        return call

    oracle._fns = tuple(counted(fn) for fn in oracle._fns)
    return oracle, counter


def _assert_counts(profile, name, run):
    oracle, counter = _counted_oracle(profile)
    run(oracle)
    assert counter[0] > 0, name
    assert oracle.queries == counter[0], name


def _runs(n, exhaustive):
    full = (1 << n) - 1
    half = (1 << n // 2) - 1
    runs = {
        "sweep": lambda o: benchmark_sweep(o, 3),
        "feasible_set": lambda o: maximal_feasible_set(o, 1.5, full & ~half, half),
        "cost_share": lambda o: cost_share(o, 4.0, full & ~half, half),
        "main": lambda o: [main_mechanism(o, rng=seed) for seed in range(20)],
        "main_given_partition": lambda o: main_mechanism(
            o, partition=Partition3(half & 0b101, full & ~half, half & ~0b101)),
    }
    if exhaustive:
        runs["brute"] = lambda o: benchmark_bruteforce(o, 3)
        runs["exact_expectation"] = main_mechanism_exact_expectation
    return runs


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("model", GEN_MODELS)
def test_queries_equal_evaluator_calls(model, n):
    profile = gen_instance(model, n, seed=n, graph="er")
    for name, run in _runs(n, exhaustive=True).items():
        _assert_counts(profile, name, run)


def test_queries_equal_evaluator_calls_on_wide_masks():
    n = 20
    profile = gen_instance("graph_concave", n, seed=1, graph="er")
    for name, run in _runs(n, exhaustive=False).items():
        _assert_counts(profile, name, run)


#: the member readers on negative masks, run in a child process whose address space is
#: capped, so a scan that never ends fails on memory or time instead of stalling the suite
NEGATIVE_MASKS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import extauction
from extauction import sets
for read in (sets.members, sets.iter_members, extauction.members):
    for mask in (-1, -5):
        try:
            read(mask)
        except ValueError as e:
            assert str(e) == f"negative mask {mask}", e
        else:
            raise SystemExit(f"{read.__name__}({mask}) returned")
"""


def test_negative_masks_are_refused():
    done = run_python(NEGATIVE_MASKS)
    assert (done.returncode, done.stderr) == (0, "")
