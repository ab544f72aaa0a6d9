"""The unified experiment CLI: ``python -m repro.experiments`` / ``repro``.

One command drives every registered experiment::

    repro list                                  # all experiments
    repro describe fig3                         # spec, options, verdicts
    repro run fig3 --nodes 200 --runs 10 --workers 4
    repro run fig4 --thresholds-ms 30 50 100
    repro run fig3 --sweep latency_threshold_s=0.02,0.03
    repro run fig3 --backend pool --resume      # checkpoint + resume cells
    repro shard run fig3 --shard 0/2 --cells a  # one deterministic slice
    repro shard merge fig3 a b                  # reassemble the full grid
    repro compare fig3                          # the two newest fig3 runs
    repro compare 'fig3?nodes=200'              # ... two newest matching runs
    repro compare fig3/<run-a> fig3/<run-b>     # two specific runs
    repro report                                # markdown report, newest run
    repro report fig3                           # ... newest fig3 run
    repro report fig3/<run-a>                   # ... one specific run
    repro report 'fig3?nodes=200,policy=bcbpt'  # ... newest matching run

``run`` composes the shared :meth:`ExperimentConfig.add_arguments` flags with
the experiment's declarative options, executes through the registry dispatch
(:func:`repro.experiments.api.run_experiment`), persists the envelope to the
:class:`~repro.experiments.results.ResultStore` (``results/`` by default;
disable with ``--no-save``), and prints it through the one renderer,
:func:`repro.analysis.report.render_report` — the same text ``repro report
<run> --no-figures`` writes to the run's ``report.md``.  ``--sweep
field=v1,v2`` repeats the run across the values of any
:class:`~repro.experiments.config.ExperimentConfig` field or experiment
option; several ``--sweep`` flags form a grid.

``report`` and ``compare`` name stored runs by one kind of reference,
resolved by :meth:`~repro.experiments.results.ResultStore.select`: ``latest``,
an experiment name, a run id, a run directory, or a provenance selector
(``'fig3?nodes=200,policy=bcbpt'``).  ``report`` re-analyses the newest run a
reference names with no re-simulation: it renders a self-contained markdown
report (provenance, verdicts, percentile tables, Fig. 3/4 regenerated from
the envelope's raw samples) into the run directory via
:mod:`repro.analysis.report`.  Figures become PNG/SVG when matplotlib (the
``repro[plots]`` extra) is installed and markdown tables otherwise.
``compare`` prints :func:`repro.analysis.report.render_comparison` for the
newest runs of two references, or the two newest runs of one, and exits 0
when they are identical, 1 when they differ and 2 when it cannot compare.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.experiments.api import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.backends import BACKEND_NAMES, ExecutionPlan, GridIncomplete
from repro.experiments.checkpoint import CellStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_markdown_table
from repro.experiments.results import (
    ExperimentResult,
    ResultStore,
    diff_results,
    json_safe,
)

PROG = "repro"

#: Exit code for a sweep that completed without producing every cell — the
#: *expected* outcome of `--max-cells`-limited runs; distinct from a verdict
#: failure (1) and a usage error (2) so drivers can branch on it.
EXIT_INCOMPLETE = 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _dispatch_run(argv[1:])
    if argv and argv[0] == "shard":
        return _dispatch_shard(argv[1:])
    parser = _top_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args.name)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "report":
        return _cmd_report(args)
    parser.print_help()
    return 2


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Run, inspect and compare the paper's experiments.",
        epilog="Use `%(prog)s run <name> --help` for an experiment's full flag set.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list all registered experiments")
    describe = sub.add_parser("describe", help="show one experiment's spec")
    describe.add_argument("name", help="experiment name (see `list`)")
    # `run` is documented here but parsed by _dispatch_run so that the
    # experiment's own options appear in `run <name> --help`.
    run = sub.add_parser("run", help="run an experiment", add_help=False)
    run.add_argument("name", nargs="?")
    # `shard` is likewise parsed by _dispatch_shard (it reuses the per-
    # experiment run parser); this stub only provides the help line.
    shard = sub.add_parser(
        "shard",
        help="run one deterministic slice of a sweep, or merge shard stores",
        add_help=False,
    )
    shard.add_argument("mode", nargs="?")
    compare = sub.add_parser("compare", help="compare two stored runs")
    compare.add_argument(
        "refs",
        nargs="+",
        metavar="REF",
        help="two run refs, meaning the newest run each names, or one ref, "
        "meaning the two newest runs it names.  A ref is a run id "
        "(fig3/20260729T144501-001), a run directory, an experiment name, "
        "'latest', or a parameter selector ('fig3?nodes=200,policy=bcbpt')",
    )
    compare.add_argument(
        "--results-dir", default=None, help="result store root (default: results/)"
    )
    report = sub.add_parser(
        "report",
        help="render a markdown report (figures included) from a stored run",
    )
    report.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="the newest run this names is reported: a run id "
        "(fig3/<stamp>-001), run directory, experiment name, parameter "
        "selector ('fig3?nodes=200,policy=bcbpt') or 'latest' (the default)",
    )
    report.add_argument(
        "--out", default=None, help="output directory (default: the run directory)"
    )
    report.add_argument(
        "--formats",
        nargs="+",
        default=["png", "svg"],
        help="figure formats when matplotlib is available (default: png svg)",
    )
    report.add_argument(
        "--no-figures",
        action="store_true",
        help="skip image rendering even when matplotlib is available",
    )
    report.add_argument(
        "--stdout",
        action="store_true",
        help="also print the rendered markdown to stdout",
    )
    report.add_argument(
        "--results-dir", default=None, help="result store root (default: results/)"
    )
    return parser


# -------------------------------------------------------------------- list
def _cmd_list() -> int:
    rows = []
    for name in experiment_names():
        spec = get_experiment(name)
        rows.append([name, spec.experiment_id, spec.title])
    print(format_markdown_table(["name", "id", "title"], rows))
    return 0


def _cmd_describe(name: str) -> int:
    try:
        spec = get_experiment(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(spec.describe())
    return 0


# --------------------------------------------------------------------- run
def _dispatch_run(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join(experiment_names())
        print(f"usage: {PROG} run <name> [options]\n\nexperiments: {names}")
        return 0 if argv else 2
    name = argv[0]
    try:
        spec = get_experiment(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    parser = build_run_parser(spec)
    args = parser.parse_args(argv[1:])
    return _execute_run(spec, args)


def build_run_parser(spec: ExperimentSpec) -> argparse.ArgumentParser:
    """The full argparse parser for ``run <spec.name>``: shared flags plus
    the experiment's declarative options."""
    parser = argparse.ArgumentParser(
        prog=f"{PROG} run {spec.name}",
        description=f"{spec.experiment_id}: {spec.title}",
    )
    ExperimentConfig.add_arguments(parser)
    for option in spec.options:
        kwargs: dict[str, Any] = {
            "dest": option.dest,
            "type": option.type,
            "default": None,
            "help": option.help,
        }
        if option.nargs is not None:
            kwargs["nargs"] = option.nargs
        parser.add_argument(option.flag, **kwargs)
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="repeat the run for each value of a config field or experiment "
        "option; may be given several times to form a grid",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="do not persist the result envelope"
    )
    parser.add_argument(
        "--results-dir", default=None, help="result store root (default: results/)"
    )
    parser.add_argument(
        "--diff-latest",
        action="store_true",
        help="after the run, compare it with the previous stored run",
    )
    plane = parser.add_argument_group(
        "execution plane",
        "how the sweep's (point × seed) cells execute; none of these can "
        "change a result — only whether/where/when each cell runs",
    )
    plane.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="cell executor: inline (serial, bit-exact reference), pool "
        "(process pool with adaptive chunks), or auto (by worker count; default)",
    )
    plane.add_argument(
        "--cells",
        default=None,
        metavar="DIR",
        help="cell checkpoint store: completed cells are persisted here the "
        "moment they finish, and already-completed cells are loaded instead "
        "of re-executed",
    )
    plane.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint into (and resume from) the default cell store, "
        "<results-dir>/.cells/<experiment> — or --cells DIR when given",
    )
    plane.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N not-yet-checkpointed cells, then exit with "
        f"code {EXIT_INCOMPLETE}; combine with --resume to time-box long sweeps",
    )
    return parser


def _parse_sweep_value(raw: str) -> Any:
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def parse_sweep_axes(
    spec: ExperimentSpec, entries: Sequence[str]
) -> list[tuple[str, list[Any]]]:
    """Parse ``--sweep field=v1,v2`` entries into named value axes."""
    config_fields = set(ExperimentConfig.__dataclass_fields__)
    option_dests = {option.dest for option in spec.options}
    axes: list[tuple[str, list[Any]]] = []
    for entry in entries:
        if "=" not in entry:
            raise SystemExit(f"--sweep expects FIELD=V1,V2 — got {entry!r}")
        field, _, raw_values = entry.partition("=")
        if field not in config_fields and field not in option_dests:
            valid = sorted(config_fields | option_dests)
            raise SystemExit(
                f"--sweep field {field!r} is neither an ExperimentConfig field "
                f"nor a {spec.name!r} option; valid: {valid}"
            )
        values = [_parse_sweep_value(v) for v in raw_values.split(",") if v != ""]
        if not values:
            raise SystemExit(f"--sweep {entry!r} supplies no values")
        axes.append((field, values))
    return axes


def _cell_store(spec: ExperimentSpec, args: argparse.Namespace) -> Optional[CellStore]:
    """The checkpoint store selected by ``--cells`` / ``--resume`` (or None).

    ``--resume`` without an explicit directory checkpoints under the result
    store root (``<results-dir>/.cells/<experiment>``), so the plain
    ``repro run X --resume`` → interrupt → ``repro run X --resume`` loop
    needs no bookkeeping from the user.
    """
    if args.cells:
        return CellStore(args.cells)
    if args.resume:
        return CellStore(ResultStore(args.results_dir).root / ".cells" / spec.name)
    return None


def _build_plan(spec: ExperimentSpec, args: argparse.Namespace, **overrides: Any) -> ExecutionPlan:
    """One invocation's :class:`ExecutionPlan` from the shared CLI flags."""
    plan_kwargs: dict[str, Any] = {
        "backend": args.backend,
        "store": _cell_store(spec, args),
        "max_cells": args.max_cells,
    }
    plan_kwargs.update(overrides)
    return ExecutionPlan(**plan_kwargs)


def _report_incomplete(
    spec: ExperimentSpec, plan: ExecutionPlan, exc: GridIncomplete
) -> int:
    print(str(exc), file=sys.stderr)
    if plan.store is not None:
        print(
            f"resume with: {PROG} run {spec.name} <same flags> "
            f"--cells {plan.store.root}",
            file=sys.stderr,
        )
    return EXIT_INCOMPLETE


def _save_and_print(
    result: ExperimentResult, store: Optional[ResultStore]
) -> Optional[Path]:
    """Save a run (unless ``store`` is None), then print it as ``repro report``
    renders it; returns the run directory."""
    # Imported lazily, as in `_cmd_report`: the analysis layer sits above the
    # experiments layer, and nothing on the run_experiment path loads it.
    from repro.analysis.report import render_report

    run_dir = store.save(result) if store is not None else None
    run_id = f"{result.experiment}/{run_dir.name}" if run_dir is not None else ""
    print(render_report(result, run_id=run_id), end="")
    if run_dir is not None:
        print()
        print(f"saved: {run_dir}")
    return run_dir


def _execute_run(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    base_config = ExperimentConfig.from_args(args)
    base_options = {
        option.dest: getattr(args, option.dest)
        for option in spec.options
        if getattr(args, option.dest) is not None
    }
    axes = parse_sweep_axes(spec, args.sweep)
    # The store is always available for reading (--diff-latest works even
    # with --no-save); --no-save only skips the write.
    store = ResultStore(args.results_dir)

    config_fields = set(ExperimentConfig.__dataclass_fields__)
    option_by_dest = {option.dest: option for option in spec.options}
    grid = list(itertools.product(*(values for _, values in axes))) if axes else [()]
    exit_code = 0
    sweep_rows: list[list[object]] = []
    for combo in grid:
        config = base_config
        options = dict(base_options)
        point_label = ", ".join(
            f"{field}={value}" for (field, _), value in zip(axes, combo)
        )
        for (field, _), value in zip(axes, combo):
            if field in config_fields:
                # A sweep point carries one scalar; sequence-typed config
                # fields (seeds, fig4_thresholds_s, ...) take it as a
                # one-element tuple so each point is one valid setting.
                current = getattr(config, field)
                if isinstance(current, (tuple, list)) and not isinstance(
                    value, (tuple, list)
                ):
                    value = (value,)
                config = config.with_overrides(**{field: value})
            else:
                option = option_by_dest[field]
                if option.nargs is not None and not isinstance(value, (tuple, list)):
                    value = [value]
                options[field] = value
        if point_label:
            print(f"### sweep point: {point_label}")
        previous_ids = store.run_ids(spec.name) if args.diff_latest else []
        # A fresh plan per sweep point: progress counters and the global cell
        # index are per-invocation (the cell *store* is shared — content-
        # derived keys keep different points' cells apart).
        plan = _build_plan(spec, args)
        try:
            result = run_experiment(spec.name, config, options, plan=plan)
        except GridIncomplete as exc:
            return _report_incomplete(spec, plan, exc)
        run_dir = _save_and_print(result, None if args.no_save else store)
        if args.diff_latest and not previous_ids:
            print("no previous run to diff against")
        elif args.diff_latest:
            from repro.analysis.report import render_comparison

            print()
            print(
                render_comparison(
                    store.load(previous_ids[-1]),
                    result,
                    baseline_id=previous_ids[-1],
                    candidate_id=(
                        f"{spec.name}/{run_dir.name}" if run_dir else "(unsaved run)"
                    ),
                ),
                end="",
            )
        verdict_ok = (
            result.verdicts.get(spec.exit_verdict, True) if spec.exit_verdict else True
        )
        if not verdict_ok:
            exit_code = 1
        if point_label:
            sweep_rows.append(
                [point_label]
                + [
                    f"{name}:{'PASS' if value else 'FAIL'}"
                    for name, value in result.verdicts.items()
                ]
            )
            print()
    if sweep_rows:
        width = max(len(row) for row in sweep_rows)
        headers = ["sweep point"] + [f"verdict {i}" for i in range(1, width)]
        padded = [row + [""] * (width - len(row)) for row in sweep_rows]
        print("## Sweep summary")
        print()
        print(format_markdown_table(headers, padded))
    return exit_code


# ------------------------------------------------------------------ report
def _cmd_report(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis layer sits above the experiments layer.
    from repro.analysis.report import write_report

    try:
        artifacts = write_report(
            ResultStore(args.results_dir),
            args.ref,
            out_dir=args.out,
            formats=tuple(args.formats),
            render_figures=not args.no_figures,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"report: {artifacts.markdown_path}")
    for path in artifacts.figure_paths:
        print(f"figure: {path}")
    if args.stdout:
        print()
        print(artifacts.markdown, end="")
    return 0


# ----------------------------------------------------------------- compare
def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_comparison

    refs: list[str] = args.refs
    store = ResultStore(args.results_dir)
    try:
        if len(refs) > 2:
            raise ValueError(f"compare takes one or two run refs, got {len(refs)}")
        if len(refs) == 1:
            try:
                ids = store.select(refs[0])
            except FileNotFoundError:
                ids = []
            if len(ids) < 2:
                print(
                    f"need at least two stored runs of {refs[0]!r} to compare "
                    f"(found {len(ids)})",
                    file=sys.stderr,
                )
                return 2
            baseline_id, candidate_id = ids[-2:]
        else:
            baseline_id, candidate_id = (store.select(ref)[-1] for ref in refs)
        baseline, candidate = store.load(baseline_id), store.load(candidate_id)
        identical = diff_results(baseline, candidate).identical
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        render_comparison(
            baseline, candidate, baseline_id=baseline_id, candidate_id=candidate_id
        ),
        end="",
    )
    return 0 if identical else 1


# ------------------------------------------------------------------- shard
_SHARD_USAGE = f"""usage: {PROG} shard run <name> --shard I/N --cells DIR [run flags]
       {PROG} shard merge <name> CELLS_DIR [CELLS_DIR...] [run flags]

`shard run` executes the deterministic slice of <name>'s sweep cells whose
global submission index is congruent to I (mod N), checkpointing each
completed cell under --cells.  `shard merge` re-drives the experiment with
execution disabled, serving every cell from the given stores; because cells
are merged in submission order regardless of where they ran, the resulting
envelope is byte-identical to a single-machine run (compare canonical
fingerprints, which mask wall-clock provenance).  All shard invocations must
use the same experiment flags; `--shard I/N` is 0-based."""


def _dispatch_shard(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_SHARD_USAGE)
        return 0 if argv else 2
    mode, rest = argv[0], argv[1:]
    if mode not in ("run", "merge"):
        print(f"unknown shard mode {mode!r}; expected run or merge", file=sys.stderr)
        return 2
    if not rest or rest[0] in ("-h", "--help"):
        print(_SHARD_USAGE)
        return 0 if rest else 2
    try:
        spec = get_experiment(rest[0])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if mode == "run":
        return _shard_run(spec, rest[1:])
    return _shard_merge(spec, rest[1:])


def _parse_shard_spec(text: str) -> tuple[int, int]:
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        return int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"--shard expects I/N (e.g. 0/4), got {text!r}")


def _spec_options(spec: ExperimentSpec, args: argparse.Namespace) -> dict[str, Any]:
    return {
        option.dest: getattr(args, option.dest)
        for option in spec.options
        if getattr(args, option.dest) is not None
    }


def _shard_run(spec: ExperimentSpec, argv: list[str]) -> int:
    parser = build_run_parser(spec)
    parser.prog = f"{PROG} shard run {spec.name}"
    parser.add_argument(
        "--shard",
        required=True,
        metavar="I/N",
        help="execute cells with global submission index ≡ I (mod N); 0-based",
    )
    args = parser.parse_args(argv)
    if args.sweep:
        print(
            "shard run does not compose with --sweep; shard each sweep point "
            "separately",
            file=sys.stderr,
        )
        return 2
    if not args.cells:
        print(
            "shard run requires --cells DIR (the slice's checkpoint store)",
            file=sys.stderr,
        )
        return 2
    shard_index, shard_count = _parse_shard_spec(args.shard)
    config = ExperimentConfig.from_args(args)
    options = _spec_options(spec, args)
    store = CellStore(args.cells)
    plan = _build_plan(
        spec, args, store=store, shard_index=shard_index, shard_count=shard_count
    )
    result = None
    try:
        result = run_experiment(spec.name, config, options, plan=plan)
    except GridIncomplete:
        # The expected outcome: this invocation produced only its slice.
        pass
    progress = plan.progress()
    store.write_manifest(
        {
            "experiment": spec.name,
            "shard_index": shard_index,
            "shard_count": shard_count,
            "config": json_safe(config),
            "options": json_safe(options),
            "progress": progress,
        }
    )
    print(
        f"shard {shard_index}/{shard_count} of {spec.name}: "
        f"{progress['cells_executed']} cell(s) executed, "
        f"{progress['cells_cached']} loaded from checkpoints, "
        f"{progress['cells_missing']} left to other shards "
        f"(store: {store.root})"
    )
    if result is not None:
        # The slice covered the whole grid (N=1, or every other cell was
        # already checkpointed): behave like a plain run.
        print()
        _save_and_print(result, None if args.no_save else ResultStore(args.results_dir))
    return 0


def _shard_merge(spec: ExperimentSpec, argv: list[str]) -> int:
    parser = build_run_parser(spec)
    parser.prog = f"{PROG} shard merge {spec.name}"
    parser.add_argument(
        "cell_dirs",
        nargs="+",
        metavar="CELLS_DIR",
        help="per-shard cell stores; all are read, the first is primary",
    )
    args = parser.parse_args(argv)
    if args.sweep:
        print("shard merge does not compose with --sweep", file=sys.stderr)
        return 2
    config = ExperimentConfig.from_args(args)
    options = _spec_options(spec, args)
    store = CellStore(args.cell_dirs[0], extra_roots=args.cell_dirs[1:])
    plan = _build_plan(spec, args, store=store, execute=False)
    try:
        result = run_experiment(spec.name, config, options, plan=plan)
    except GridIncomplete as exc:
        print(str(exc), file=sys.stderr)
        print(
            f"shard merge is strict: {len(plan.missing_cell_keys)} cell(s) "
            "have no checkpointed result in the given stores — run the "
            "missing shards with the same experiment flags and merge again",
            file=sys.stderr,
        )
        return EXIT_INCOMPLETE
    _save_and_print(result, None if args.no_save else ResultStore(args.results_dir))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m`
    raise SystemExit(main())
