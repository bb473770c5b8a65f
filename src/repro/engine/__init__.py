"""The parallel proof engine: worker pool, portfolio racing, persistent store.

The engine turns the fast single-attempt core into suite-level throughput:

* :class:`WorkerPool` (:mod:`repro.engine.scheduler`) shards goals across
  worker processes with per-goal deadlines, hard kills for hung workers, and
  crash isolation — a worker dying on one goal never loses the batch.  Each
  caller runs as a :class:`PoolSession`: a batch suite is the one session of
  a pool built for it, the proof service's requests share a resident pool.
* :class:`PortfolioVariant` / :func:`default_portfolio` / :func:`strategy_race`
  (:mod:`repro.engine.portfolio`) race several prover configurations — or
  several *search strategies* under one configuration — per goal and keep the
  first proof.
* :class:`ResultStore` (:mod:`repro.engine.store`) memoises
  ``(program fingerprint, goal, config)`` → outcome as JSON-lines, so re-runs
  against a warm store re-solve nothing.
* :func:`solve_suite` (:mod:`repro.engine.suite`) composes the three into a
  drop-in parallel :func:`~repro.harness.runner.run_suite` — same
  :class:`~repro.harness.runner.SuiteResult`, records in input order.

Entry points: :func:`repro.harness.runner.run_suite_parallel` from code,
``python -m repro`` from the command line.
"""

from .portfolio import (
    PORTFOLIO_PRESETS,
    PortfolioVariant,
    default_portfolio,
    disprove_race,
    select_winner,
    single_variant,
    strategy_race,
)
from .scheduler import DEFAULT_RESOLVER, PoolSession, Task, WorkerPool, load_spec, solve_task
from .store import STORE_SCHEMA_VERSION, ResultStore, config_fingerprint
from .suite import solve_suite

__all__ = [
    "WorkerPool", "PoolSession", "Task", "solve_task", "load_spec", "DEFAULT_RESOLVER",
    "PortfolioVariant", "default_portfolio", "strategy_race", "disprove_race",
    "single_variant", "select_winner", "PORTFOLIO_PRESETS",
    "ResultStore", "config_fingerprint", "STORE_SCHEMA_VERSION",
    "solve_suite",
]
