"""Bootstrap percolation on templated multisection graphs.

Library layout:
  template      cluster topology builders and validation
  tmgraph       graph family, sampling, thresholds, seeds
  analytic      activation probabilities, critical seed size, certifications
  engine        percolation dynamics (standard, coinflip)
  intervention  residual estimation, surrogate graphs, live interventions
  harness       experiment configs, sweep drivers, result tables
"""

from .analytic import (
    AnalyticModel,
    CoinflipModel,
    CriticalResult,
    critical_seed,
    coinflip_reduce,
)
from .engine import PercolationTrace, run_standard
from .template import TemplateGraph, make_cube3, make_planted, make_ring, make_single
from .tmgraph import (
    SampledGraph,
    TMParams,
    ThresholdDistribution,
    assign_thresholds,
    sample_graph,
    select_seeds,
)

__version__ = "0.1.0"
