"""``Partition3.sample`` against a ``randrange(3)`` loop.

On a :class:`random.Random` the labels are read from the generator's words
in bulk; every test here compares them, and the generator's state after the
draw, with one ``randrange(3)`` per agent.
"""

import random

import pytest

from extauction.experiments import gen_instance
from extauction.mechanisms import Partition3, main_mechanism


def _reference(n, rng):
    masks = [0, 0, 0]
    for i in range(n):
        masks[rng.randrange(3)] |= 1 << i
    return Partition3(*masks)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 13, 128])
def test_labels_and_generator_state_match_randrange(n):
    for seed in range(200):
        mine, theirs = random.Random(seed), random.Random(seed)
        part = Partition3.sample(n, mine)
        assert part == _reference(n, theirs), (n, seed)
        assert part.a | part.b | part.c == (1 << n) - 1
        assert not (part.a & part.b or part.a & part.c or part.b & part.c)
        assert mine.random() == theirs.random()
        assert mine.getrandbits(64) == theirs.getrandbits(64)


def test_a_caller_generator_runs_on_as_after_randrange():
    profile = gen_instance("graph_concave", 40, seed=1, graph="pa")
    mine, theirs = random.Random(5), random.Random(5)
    out = main_mechanism(profile, mine)
    _reference(profile.n, theirs)
    assert mine.getstate() == theirs.getstate()
    assert repr(vars(out)) == repr(vars(main_mechanism(profile, 5)))


class _Lcg(random.Random):
    """A generator that overrides only ``random()``, so ``randrange`` uses it."""

    def seed(self, a=None, version=2):
        self.state = 0 if a is None else a
        self.calls = 0

    def random(self):
        self.calls += 1
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        return self.state / 2 ** 64


class _Counting(random.Random):
    """Random's own words, with ``getrandbits`` counted."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_subclasses_are_asked_randrange_per_agent(n):
    for seed in range(20):
        mine, theirs = _Lcg(seed), _Lcg(seed)
        assert Partition3.sample(n, mine) == _reference(n, theirs)
        assert mine.calls == theirs.calls >= n
        assert mine.state == theirs.state
        counting = _Counting(seed)
        assert Partition3.sample(n, counting) == _reference(n, random.Random(seed))
        assert counting.calls >= n
