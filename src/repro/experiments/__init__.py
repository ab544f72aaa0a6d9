"""Experiment drivers that regenerate the paper's figures (and extensions).

Each module corresponds to one experiment in DESIGN.md's index:

* :mod:`repro.experiments.fig3` — Fig. 3: Δt distribution for vanilla Bitcoin
  vs LBC vs BCBPT at ``d_t`` = 25 ms;
* :mod:`repro.experiments.fig4` — Fig. 4: Δt distribution for BCBPT at
  ``d_t`` ∈ {30, 50, 100} ms;
* :mod:`repro.experiments.threshold_sweep` — Ext-1: fine-grained threshold
  sweep with cluster-size statistics;
* :mod:`repro.experiments.overhead` — Ext-2: measurement/control overhead of
  each protocol (the cost the paper defers to future work);
* :mod:`repro.experiments.attacks` — Ext-3: eclipse and partition attack
  susceptibility of clustered topologies;
* :mod:`repro.experiments.doublespend` — Ext-4: double-spend race success as a
  function of propagation delay;
* :mod:`repro.experiments.ablation` — Ext-5: verification-delay and
  long-distance-link ablations of the BCBPT design;
* :mod:`repro.experiments.churn_resilience` — Ext-6: propagation delay and
  cluster quality under live join/leave churn with cluster maintenance;
* :mod:`repro.experiments.relay_comparison` — Ext-7: block propagation and
  per-block overhead under flood vs compact-block vs push relay, crossed
  with every overlay policy;
* :mod:`repro.experiments.validation` — Val-1: simulator validation against
  published real-network propagation shapes.

The eight that measure Δt (fig3, fig4, threshold_sweep, overhead, ablation,
churn_resilience, scale, validation) run the Fig. 2 campaign through one
function, :func:`repro.experiments.runner.measure_propagation`, which returns
one plain :class:`~repro.experiments.runner.Campaign` record per (scenario,
seed).

Every driver registers itself with the declarative registry
(:mod:`repro.experiments.api`) and is reachable through the unified CLI::

    python -m repro.experiments list
    python -m repro.experiments run fig3 --nodes 200 --runs 10 --workers 4

Results persist as JSON envelopes in a :class:`~repro.experiments.results.
ResultStore` under ``results/`` and can be reloaded and diffed
(``python -m repro.experiments compare fig3``); every run becomes text
through one renderer, :func:`repro.analysis.report.render_report`.  Drivers that declare a
``collect_samples`` hook additionally persist their raw per-seed measurement
series in the envelope's ``samples`` field, from which the analysis plane
(:mod:`repro.analysis`, CLI ``repro report``) regenerates the paper's
figures and percentile tables without re-simulation.

Public entry points: :func:`~repro.experiments.api.run_experiment` (dispatch
one experiment), the :func:`~repro.experiments.api.experiment` decorator
(register a new one), :class:`~repro.experiments.config.ExperimentConfig`
(shared knobs), :class:`~repro.experiments.results.ResultStore`
(persistence), and :func:`~repro.experiments.cli.main` (the ``repro`` CLI).
"""

from repro.experiments.api import (
    ExperimentOption,
    ExperimentSpec,
    experiment,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, ResultStore, diff_results
from repro.experiments.runner import (
    Campaign,
    PropagationResult,
    measure_propagation,
    run_protocol_comparison,
)

__all__ = [
    "Campaign",
    "ExperimentConfig",
    "ExperimentOption",
    "ExperimentResult",
    "ExperimentSpec",
    "PropagationResult",
    "ResultStore",
    "diff_results",
    "experiment",
    "experiment_names",
    "get_experiment",
    "measure_propagation",
    "run_experiment",
    "run_protocol_comparison",
]
