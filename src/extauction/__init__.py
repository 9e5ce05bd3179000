"""Truthful competitive auctions for digital-goods markets with positive
externalities: valuation models, exact fixed-price benchmarks, the
tripartition auction with its revenue guarantee, single-parameter
truthfulness characterization, and exact verification experiments.
"""

from .benchmark import (
    BenchmarkResult,
    benchmark_bruteforce,
    benchmark_sweep,
    classical_best_price,
    maximal_feasible_set,
)
from .mechanisms import (
    DEFAULT_ALPHA,
    Outcome,
    Partition3,
    cost_share,
    fixed_price_mechanism,
    main_mechanism,
    main_mechanism_exact_expectation,
    mechanism2,
    mechanism2_expected_revenue,
    rsop,
)
from .sets import full_mask, mask_of, members
from .valuations import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    Oracle,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
    Violation,
    check_conditions,
    estimate_L,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
