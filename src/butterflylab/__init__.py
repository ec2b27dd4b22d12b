"""Butterfly permutation groups and their LIS / cycle-count statistics.

Modules:

* `permutations`: composition, Kronecker/direct-sum structure, cycle stats,
  uniform sampling.
* `groups`: simple and nonsimple m-nary butterfly permutations (sampling,
  evaluation, enumeration, membership).
* `gepp`: dense partial-pivoting elimination, butterfly matrix builders,
  closed-form predicted factorizations, comparison ensembles.
* `lis`: LIS/LDS computation and exact distributions, power-law bound
  constants, exponent regression.
* `cycles`: butterfly Stirling triangles, moment polynomials and limits,
  density grids, fixed-point statistics, Monte Carlo.
* `pmf`: exact and float integer-supported laws, convolutions, memoized
  level ladders.
* `rng`, `cli`: seeded streams, the experiment subcommands.

The chi-square goodness-of-fit helper lives with the tests, in
`tests/chisq.py`.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import cycles, gepp, groups, lis, permutations, pmf, rng  # noqa: F401
from .permutations import (  # noqa: F401
    CycleStats,
    Permutation,
    compose,
    cycle_stats,
    dsum,
    fisher_yates,
    identity,
    kron,
)
from .pmf import Pmf  # noqa: F401
