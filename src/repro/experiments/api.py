"""The declarative experiment API: specs, registry and dispatch.

The paper's evaluation is a family of controlled comparisons; this module
makes each of them *data* instead of a hand-written driver.  A driver module
registers itself with the :func:`experiment` decorator::

    @experiment(
        "fig3",
        experiment_id="Fig. 3",
        title="Δt distribution, Bitcoin vs LBC vs BCBPT (d_t = 25 ms)",
        protocols=FIG3_PROTOCOLS,
        summarize=summarize,
        verdicts={"paper_ordering": expected_ordering_holds},
    )
    def run_fig3(config=None): ...

and in return gets, for free:

* a row in ``python -m repro.experiments list`` / ``describe``;
* a ``run`` subcommand with the shared :class:`ExperimentConfig` flags, its
  declared :class:`ExperimentOption` extras, and ``--workers`` fan-out;
* protocol-label validation at dispatch time (the **single** fail-fast
  checkpoint — drivers no longer validate individually);
* a JSON-serialisable :class:`~repro.experiments.results.ExperimentResult`
  envelope, persisted through the
  :class:`~repro.experiments.results.ResultStore`: config, options, seeds,
  the per-label ``summarize`` scalars and the verdicts;
* raw-sample persistence: a driver that declares ``collect_samples`` (a
  ``payload -> SampleLog`` extractor) gets its per-seed measurement series
  stored in the envelope's ``samples`` field, which is what ``repro report``
  regenerates figures and percentile tables from without re-simulation.

:func:`run_experiment` is the one dispatch path used by the CLI, the
benchmark guards and the examples.  An envelope holds data, never text: every
run is rendered from it by :func:`repro.analysis.report.render_report`, so
whatever a reader should see must be in ``summarize``, ``collect_samples`` or
the verdicts.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.experiments.backends import ExecutionPlan, GridIncomplete, use_plan
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.workloads.scenarios import validate_policy_name

#: Driver modules imported (once, lazily) to populate the registry, in the
#: order DESIGN.md indexes them — also the ``list`` display order.
DRIVER_MODULES = (
    "repro.experiments.fig3",
    "repro.experiments.fig4",
    "repro.experiments.threshold_sweep",
    "repro.experiments.overhead",
    "repro.experiments.attacks",
    "repro.experiments.doublespend",
    "repro.experiments.ablation",
    "repro.experiments.churn_resilience",
    "repro.experiments.relay_comparison",
    "repro.experiments.load_frontier",
    "repro.experiments.scale",
    "repro.experiments.validation",
)

_REGISTRY: dict[str, "ExperimentSpec"] = {}
_LOADED = False


def validate_protocol_labels(labels: Iterable[str]) -> None:
    """Validate protocol labels (``"bcbpt"``, ``"bcbpt@50ms"``) fail-fast.

    This is the registry's single validation checkpoint: every dispatch
    through :func:`run_experiment` funnels its protocol labels here, so a typo
    fails in the driver process before any job reaches a pool worker.
    """
    for label in labels:
        validate_policy_name(str(label).split("@", 1)[0])


@dataclass(frozen=True)
class ExperimentOption:
    """One declarative experiment-specific CLI option / run kwarg.

    Attributes:
        flag: the CLI flag (e.g. ``"--thresholds-ms"``).
        dest: the keyword argument of the run function this option feeds (or
            a descriptive name when ``config_field`` is set).
        type: argparse value type.
        nargs: argparse nargs (None for a scalar).
        default: value used when the option is not supplied; None means "let
            the run function's own default apply".
        help: CLI help text.
        config_field: when set, the (converted) value overrides this
            :class:`ExperimentConfig` field instead of being passed as a
            kwarg.
        convert: applied to the supplied value before use (e.g. ms -> s).
        kwarg: the run-function parameter the converted value feeds, when it
            differs from ``dest`` (e.g. dest ``thresholds_ms`` converted into
            kwarg ``thresholds_s``).
        is_protocols: mark the option as carrying protocol labels so dispatch
            validates them.
    """

    flag: str
    dest: str
    type: Callable[[str], Any] = str
    nargs: Optional[str] = None
    default: Any = None
    help: str = ""
    config_field: Optional[str] = None
    convert: Optional[Callable[[Any], Any]] = None
    kwarg: Optional[str] = None
    is_protocols: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the registry knows about one experiment.

    Attributes:
        name: registry key (the CLI ``run <name>`` argument).
        experiment_id: DESIGN.md index id (``"Fig. 3"``, ``"Ext-6"``, ...).
        title: one-line description shown by ``list``.
        description: longer help shown by ``describe``.
        protocols: protocol labels the experiment compares (validated at
            dispatch; informational in ``describe``).
        options: experiment-specific options beyond the shared config flags.
        run: the driver function ``run(config, **option_kwargs) -> payload``.
        summarize: extracts JSON-safe per-label scalar summaries from the
            payload (feeds ``ExperimentResult.summaries`` and run diffs).
        collect_samples: extracts a
            :class:`~repro.analysis.samples.SampleLog` of raw measurement
            series from the payload (feeds ``ExperimentResult.samples``, the
            material ``repro report`` regenerates figures from).  Optional —
            experiments that don't opt in persist summaries only.
        verdicts: named reproduction criteria evaluated on the payload.
        exit_verdict: verdict whose failure makes the CLI exit non-zero.
    """

    name: str
    experiment_id: str
    title: str
    description: str
    run: Callable[..., Any]
    protocols: tuple[str, ...] = ()
    options: tuple[ExperimentOption, ...] = ()
    summarize: Optional[Callable[[Any], dict[str, dict[str, Any]]]] = None
    collect_samples: Optional[Callable[[Any], Any]] = None
    verdicts: Mapping[str, Callable[[Any], bool]] = field(default_factory=dict)
    exit_verdict: Optional[str] = None

    def describe(self) -> str:
        """Multi-line description for the ``describe`` subcommand."""
        lines = [
            f"{self.name} ({self.experiment_id}): {self.title}",
            "",
            self.description.strip(),
        ]
        if self.protocols:
            lines += ["", f"protocols: {', '.join(self.protocols)}"]
        if self.options:
            lines += ["", "options:"]
            for option in self.options:
                default = "" if option.default is None else f" (default: {option.default})"
                lines.append(f"  {option.flag}: {option.help}{default}")
        if self.verdicts:
            lines += ["", f"verdicts: {', '.join(self.verdicts)}"]
        return "\n".join(lines)


def experiment(
    name: str,
    *,
    experiment_id: str,
    title: str,
    description: Optional[str] = None,
    protocols: Sequence[str] = (),
    options: Sequence[ExperimentOption] = (),
    summarize: Optional[Callable[[Any], dict[str, dict[str, Any]]]] = None,
    collect_samples: Optional[Callable[[Any], Any]] = None,
    verdicts: Optional[Mapping[str, Callable[[Any], bool]]] = None,
    exit_verdict: Optional[str] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated function as an experiment's run entry point.

    The function itself is returned unchanged (drivers stay importable and
    directly callable); the registration is a side effect, and the spec is
    attached as ``fn.spec``.
    """

    def decorate(run_fn: Callable[..., Any]) -> Callable[..., Any]:
        spec = ExperimentSpec(
            name=name,
            experiment_id=experiment_id,
            title=title,
            description=description
            or (run_fn.__doc__ or title).strip().splitlines()[0],
            run=run_fn,
            protocols=tuple(protocols),
            options=tuple(options),
            summarize=summarize,
            collect_samples=collect_samples,
            verdicts=dict(verdicts or {}),
            exit_verdict=exit_verdict,
        )
        register(spec)
        run_fn.spec = spec  # type: ignore[attr-defined]
        return run_fn

    return decorate


def register(spec: ExperimentSpec) -> None:
    """Add a spec to the registry, rejecting a second implementation of a name."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.run is not spec.run:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def load_registry() -> None:
    """Import every driver module so all experiments are registered."""
    global _LOADED
    if _LOADED:
        return
    for module in DRIVER_MODULES:
        importlib.import_module(module)
    _LOADED = True


def experiment_names() -> list[str]:
    """All registered experiment names, in DESIGN.md index order.

    Registration order depends on which module happens to be imported first,
    so the display order is pinned to :data:`DRIVER_MODULES` instead;
    experiments registered from other modules (tests, downstream users) sort
    after the built-ins, in registration order.
    """
    load_registry()
    module_rank = {module: rank for rank, module in enumerate(DRIVER_MODULES)}

    def rank(item: tuple[int, str]) -> tuple[int, int]:
        index, name = item
        module = getattr(_REGISTRY[name].run, "__module__", "")
        return (module_rank.get(module, len(module_rank)), index)

    return [name for _, name in sorted(enumerate(_REGISTRY), key=rank)]


def get_experiment(name: str) -> ExperimentSpec:
    """Look an experiment up by name, failing with the known names."""
    load_registry()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "<none>"
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None


def resolve_options(
    spec: ExperimentSpec,
    config: ExperimentConfig,
    options: Optional[Mapping[str, Any]] = None,
) -> tuple[ExperimentConfig, dict[str, Any]]:
    """Fold supplied option values into (config overrides, run kwargs).

    Unknown option names are rejected; omitted options fall back to their
    declared default, and a None default means "let the run function's own
    signature default apply" (no kwarg is passed).
    """
    supplied = dict(options or {})
    known = {option.dest: option for option in spec.options}
    unknown = set(supplied) - set(known)
    if unknown:
        raise ValueError(
            f"unknown option(s) for experiment {spec.name!r}: {sorted(unknown)}; "
            f"known: {sorted(known) or '<none>'}"
        )
    kwargs: dict[str, Any] = {}
    for dest, option in known.items():
        value = supplied.get(dest, option.default)
        if value is None:
            continue
        if option.convert is not None:
            value = option.convert(value)
        if option.config_field is not None:
            config = config.with_overrides(**{option.config_field: value})
        else:
            kwargs[option.kwarg or dest] = value
    return config, kwargs


def run_experiment(
    name: str,
    config: Optional[ExperimentConfig] = None,
    options: Optional[Mapping[str, Any]] = None,
    plan: Optional[ExecutionPlan] = None,
) -> ExperimentResult:
    """Execute one registered experiment and wrap the outcome in an envelope.

    This is the single dispatch path: it resolves options, validates every
    protocol label once (the registry checkpoint), runs the driver,
    summarises it, evaluates the verdicts, and returns a JSON-serialisable
    :class:`~repro.experiments.results.ExperimentResult` whose in-memory
    ``payload`` attribute still carries the driver's native result objects
    (not serialised) for callers that need the full detail.

    Args:
        name: registry name of the experiment.
        config: shared configuration (defaults apply when omitted).
        options: experiment-specific option values.
        plan: execution plan — backend choice, checkpoint store, shard
            slice, cell budget (see
            :class:`~repro.experiments.backends.ExecutionPlan`).  The plan
            is installed for the duration of the driver call, so every
            ``run_seed_grid`` inside it inherits backends and
            checkpoint/resume with no driver changes.  Defaults to plain
            ``config.workers``-driven execution.

    Raises:
        GridIncomplete: the plan finished without producing every grid cell
            (a shard slice or an exhausted ``max_cells`` budget).  Completed
            cells are already checkpointed; resume with the same store, or
            reassemble shards with ``repro shard merge``.
    """
    spec = get_experiment(name)
    cfg = config if config is not None else ExperimentConfig()
    cfg, kwargs = resolve_options(spec, cfg, options)

    labels: list[str] = list(spec.protocols)
    for option in spec.options:
        key = option.kwarg or option.dest
        if option.is_protocols and key in kwargs:
            labels = list(kwargs[key])
    validate_protocol_labels(labels)

    active_plan = plan if plan is not None else ExecutionPlan()
    active_plan.experiment = spec.name

    started = time.time()
    try:
        with use_plan(active_plan):
            payload = spec.run(cfg, **kwargs)
    except GridIncomplete:
        raise
    except Exception as exc:
        if active_plan.incomplete:
            # A shard/budget run left holes in the grid; the driver's merge
            # tripping over a MISSING placeholder is the expected outcome,
            # not a driver bug — every cell in the slice is already stored.
            raise GridIncomplete(active_plan, cause=exc) from exc
        raise
    if active_plan.incomplete:
        raise GridIncomplete(active_plan)

    summaries = spec.summarize(payload) if spec.summarize is not None else {}
    samples: dict[str, Any] = {}
    if spec.collect_samples is not None:
        sample_log = spec.collect_samples(payload)
        if sample_log:
            # Duck-typed (SampleLog.to_dict) so the registry layer does not
            # import the analysis package it sits below.
            samples = sample_log.to_dict()
    verdicts = {name_: bool(fn(payload)) for name_, fn in spec.verdicts.items()}

    result = ExperimentResult(
        experiment=spec.name,
        experiment_id=spec.experiment_id,
        title=spec.title,
        created_at=started,
        config=dataclasses.asdict(cfg),
        options=dict(kwargs),
        seeds=list(cfg.seeds),
        summaries=summaries,
        verdicts=verdicts,
        extras={"duration_s": time.time() - started},
        samples=samples,
    )
    result.payload = payload  # type: ignore[attr-defined]  # in-memory only
    return result
