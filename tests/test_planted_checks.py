"""``extauction check`` on table files with one violation planted away from agent 0.

Each file is a seeded table file (``gen_instance("table", n, seed)``) or a
table-weight file (additive and scalar agents in turn, each weighted by a
seeded max-of-additive table), at n = 6..10.  One agent other than 0 and one
mask that holds it but is not the full set are drawn from the seed, and the
agent's value there is set so that one condition fails:

* ``negative``: -1 at the mask;
* ``nonfinite``: a scalar agent's weight at 1e308, so ``t * w`` overflows to
  ``inf`` (table-weight files only: a file holds finite numbers, and a table
  model reads them as they are);
* ``monotonicity``: one above the value at a drawn one-agent superset;
* ``subadditivity``: 100 added at the mask and at every superset of it, which
  keeps the agent monotone.

``nonzero_outside`` cannot be written to a file: the loader refuses a table
key without its agent, and every model is 0 off its agent's sets.

``PLANTED_DIGEST`` hashes each file's name, exit code and stdout.  It was
recorded before the exhaustive checker certified table columns; re-record it
with ``PYTHONPATH=src python tests/test_planted_checks.py`` only for a change
meant to alter the checker's output.
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from extauction import AdditiveModel, ScalarModel, TableWeight, ValuationProfile, check_conditions
from extauction.cli import main
from extauction.experiments import _xos_table, gen_instance
from extauction.io import save_instance

SIZES = range(6, 11)
KINDS = {"table": ("negative", "monotonicity", "subadditivity"),
         "weights": ("negative", "nonfinite", "monotonicity", "subadditivity")}


def _weights_profile(n, seed):
    """Additive agents at even ids and scalar ones at odd ids, each on a table weight."""
    rng = random.Random(seed)
    models = []
    for i in range(n):
        cls = ScalarModel if i % 2 else AdditiveModel
        models.append(cls(t=rng.uniform(2.0, 10.0), weight=_xos_table(i, n, rng)))
    return ValuationProfile(models)


def _planted(family, n, kind):
    """The profile of ``family`` at ``n`` with one violation of ``kind``."""
    seed = 1000 * n + 10 * list(KINDS).index(family) + KINDS[family].index(kind)
    rng = random.Random(seed)
    profile = gen_instance("table", n, seed=seed) if family == "table" else _weights_profile(n, seed)
    full = (1 << n) - 1
    agent = rng.randrange(1, n, 2 if kind == "nonfinite" else 1)  # odd ids are scalar
    bit = 1 << agent
    s = rng.choice([m for m in range(full) if m & bit])
    model = profile.models[agent]
    table = dict(model.values if family == "table" else model.weight.values)
    shift = model.t if isinstance(model, AdditiveModel) else 0.0
    scale = model.t if isinstance(model, ScalarModel) else 1.0

    def put(mask, x):  # the agent's value at mask becomes x, up to rounding
        table[mask] = (x - shift) / scale

    if kind == "negative":
        put(s, -1.0)
    elif kind == "nonfinite":
        table[s] = 1e308
    elif kind == "monotonicity":
        j = rng.choice([j for j in range(n) if not s >> j & 1])
        put(s, profile.value(agent, s | 1 << j) + 1.0)
    else:
        for m in range(1 << n):
            if m & s == s:
                put(m, profile.value(agent, m) + 100.0)
    if family == "table":
        model = type(model)(table)
    else:
        model = type(model)(t=model.t, weight=TableWeight(table))
    return profile.replace(agent, model)


def planted_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for family, kinds in KINDS.items():
            for n in SIZES:
                for kind in kinds:
                    name = f"{family}-{n}-{kind}.json"
                    save_instance(_planted(family, n, kind), Path(tmp) / name)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["check", "--instance", str(Path(tmp) / name)])
                    h.update(f"{name}\n{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


PLANTED_DIGEST = "c030939ffced1c3b9c76caf6e84aee0c47ab513fd53fca1fc6b753c6dcadb3b5"


def test_planted_violations_check_as_recorded():
    assert planted_digest() == PLANTED_DIGEST


def test_each_plant_fails_its_own_condition_at_one_agent_other_than_0():
    for family, kinds in KINDS.items():
        for kind in kinds:
            found = check_conditions(_planted(family, 6, kind), max_violations=10**6)
            assert kind in {v.kind for v in found}, (family, kind)
            assert len({v.agent for v in found}) == 1 and found[0].agent != 0


if __name__ == "__main__":
    sys.stdout.write(planted_digest() + "\n")
