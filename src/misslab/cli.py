"""Command-line front end.

Verbs: ``simulate`` (draw a mask from a mechanism spec), ``classify``
(taxonomy cell of a spec), ``analyze`` (mask dependence report),
``impute`` (chained-equations imputation of a CSV), ``experiment`` (the
three studies), ``export-graph`` (DOT rendering of a spec).

Exit codes: 0 success; 1 for any failure the inputs and flags determine,
raised as a ``ValueError``: a malformed flag, file, spec or config, and a
data set the engine cannot use (a singular design, a column with no
observed values, a non-finite predictor or draw), with one line naming
the flag, field or column; 2 for a failure of the run itself, such as an
``OSError``, a ``MemoryError`` or a bug. Stochastic verbs refuse to run
without ``--seed``; no clock seeding ever happens, so re-running a
command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .tabular import (
    read_csv,
    read_flags,
    read_mask_csv,
    read_ordering,
    write_float_tables,
    write_mask_csv,
    write_table,
)

if TYPE_CHECKING:
    from .experiments import ExperimentConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is exit 1 with usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _simulate_flags(p) -> None:
    p.add_argument("--spec", required=True, help="mechanism spec file (JSON)")
    p.add_argument("--data", required=True, help="complete data CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output mask CSV")


def _spec_flag(p) -> None:
    p.add_argument("--spec", required=True)


def _analyze_flags(p) -> None:
    from .analyzer import ALPHA_DEFAULT

    p.add_argument("--mask", required=True)
    p.add_argument("--ordering", default=None, help="column order file (optional)")
    p.add_argument("--out", default=None, help="output prefix (report CSV + summary)")
    p.add_argument("--alpha", type=float, default=ALPHA_DEFAULT)


def _impute_flags(p) -> None:
    from .impute import DEFAULT_RIDGE, METHODS, ImputationConfig

    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=METHODS, default=ImputationConfig.method)
    p.add_argument("--m", type=int, default=ImputationConfig.m)
    p.add_argument("--maxit", type=int, default=ImputationConfig.maxit)
    p.add_argument("--donors", type=int, default=ImputationConfig.donors)
    p.add_argument("--ridge", type=float, default=DEFAULT_RIDGE)
    p.add_argument("--ignore", default=None,
                   help="file with one 0/1 per row; 1 = exclude from fits")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix")


def _experiment_flags(p) -> None:
    p.add_argument("--id", required=True, help="sim1, sim2 or sim3")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--config", default=None,
                   help="JSON file of config overrides (flags win)")


def _export_graph_flags(p) -> None:
    _spec_flag(p)
    p.add_argument("--out", required=True, help="output .dot path")


def _build_parser(argv: list[str]) -> _Parser:
    """The parser, with the flags of the verb ``argv`` names (its first
    token without a leading dash) and no other verb's: a verb's flag
    defaults come from the module that runs it, imported only for it."""
    parser = _Parser(prog="misslab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"misslab {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="VERB")
    verb = next((a for a in argv if not a.startswith("-")), None)
    for name, (help_text, flags, _) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        if name == verb:
            flags(p)
    return parser


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required (no clock seeding)")
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    return args.seed


def _require_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{flag}: no such file: {path}")
    return p


def _out_path(path: str) -> Path:
    """``path``, its parent directory created if missing."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    from .mechanisms import load_spec, simulate_mask

    seed = _require_seed(args)
    spec = load_spec(_require_file(args.spec, "--spec"))
    data = read_csv(_require_file(args.data, "--data"))
    if not data.is_complete():
        raise ValueError("--data: simulate needs complete data (no empty fields)")
    mask = simulate_mask(spec, data, seed)
    write_mask_csv(mask, _out_path(args.out), data.col_names)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .mechanisms import classify, load_spec

    spec = load_spec(_require_file(args.spec, "--spec"))
    label = classify(spec)
    payload = {"label": label.short(), **asdict(label)}
    if spec.declared_label is not None:
        payload["declared"] = spec.declared_label.short()
        payload["matches_declared"] = label == spec.declared_label
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analyzer import (REPORT_COLUMNS, pairwise_dependence, sequential_signature,
                           summary_text)

    mask, names = read_mask_csv(_require_file(args.mask, "--mask"))
    report = pairwise_dependence(mask, alpha=args.alpha)
    text = summary_text(report)
    if args.ordering is not None:
        ordering = read_ordering(_require_file(args.ordering, "--ordering"), names)
        sig = sequential_signature(mask, ordering, report)
        text += (
            f"sequential signature: monotone_fraction={sig.monotone_fraction}, "
            f"forward_only={sig.forward_only}\n"
        )
    if args.out is None:
        sys.stdout.write(text)
    else:
        prefix = _out_path(args.out)
        write_table(f"{prefix}.report.csv", REPORT_COLUMNS, map(astuple, report.pairs))
        Path(f"{prefix}.summary.txt").write_text(text)
    return EXIT_OK


def _read_ignore(path: Path, n: int) -> tuple[bool, ...]:
    try:
        flags = read_flags(path)
    except ValueError as exc:
        raise ValueError(f"--ignore: entries must be 0 or 1, one per line ({exc})") from None
    if len(flags) != n:
        raise ValueError(f"--ignore: expected {n} rows of 0/1, found {len(flags)}")
    return tuple(flags.astype(bool).tolist())


def _cmd_impute(args) -> int:
    from .impute import ImputationConfig, chain_diagnostics, fcs_impute

    seed = _require_seed(args)
    data = read_csv(_require_file(args.data, "--data"))
    ignore = None
    if args.ignore is not None:
        ignore = _read_ignore(_require_file(args.ignore, "--ignore"), data.n)
    cfg = ImputationConfig(
        m=args.m,
        maxit=args.maxit,
        method=args.method,
        donors=args.donors,
        ridge=args.ridge,
        ignore=ignore,
        seed=seed,
    )
    result = fcs_impute(data, cfg)
    prefix = _out_path(args.out)
    suffixes = [f".imp{k}.csv" for k in range(1, result.m + 1)]
    write_float_tables([f"{prefix}{s}" for s in suffixes], data.col_names,
                       result.completed)
    diag = chain_diagnostics(result)
    suffixes.append(".diagnostics.csv")
    write_table(f"{prefix}{suffixes[-1]}", diag.columns, diag.rows)
    # Outputs are listed relative to the prefix so that the manifest does
    # not depend on where the run wrote its files.
    outputs = [f"<prefix>{s}" for s in suffixes]
    manifest = [
        "command: impute",
        f"code_version: misslab {__version__}",
        f"data: {Path(args.data).name}",
        f"method: {args.method}",
        f"m: {args.m}",
        f"maxit: {args.maxit}",
        f"donors: {args.donors}",
        f"ridge: {args.ridge}",
        f"seed: {seed}",
        f"ignored_rows: {sum(ignore) if ignore else 0}",
        f"imputed_columns: {', '.join(result.col_names[j] for j in result.visited_columns) or '(none)'}",
        "outputs: " + ", ".join(outputs),
    ]
    Path(f"{prefix}.manifest.txt").write_text("\n".join(manifest) + "\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiments import EXPERIMENT_IDS, run_experiment
    from .mechanisms import parse_json

    if args.id not in EXPERIMENT_IDS:
        raise ValueError(f"--id: invalid choice {args.id!r} "
                          f"(choose from {', '.join(EXPERIMENT_IDS)})")
    overrides = {}
    if args.config is not None:
        cfg_path = _require_file(args.config, "--config")
        overrides = parse_json(cfg_path.read_bytes(), "--config")
        if not isinstance(overrides, dict):
            raise ValueError("--config: top level must be an object")
    run_experiment(config_from_mapping(
        overrides, experiment=args.id, seed=_require_seed(args), out_dir=args.out,
        n_replicates=args.reps, threads=args.threads,
    ))
    return EXIT_OK


def config_from_mapping(values: dict, **flags) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from loosely typed key/values, in
    which ``reps`` is an alias of ``n_replicates``; the ``flags`` that are
    not None win over them."""
    from .experiments import ExperimentConfig

    values = dict(values)
    if "reps" in values:
        if "n_replicates" in values:
            raise ValueError("--config: 'reps' and 'n_replicates' both set the "
                             "replicate count; give one")
        values["n_replicates"] = values.pop("reps")
    values.update((k, v) for k, v in flags.items() if v is not None)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ValueError(
            f"--config: unknown fields: {', '.join(map(repr, sorted(unknown)))}"
        )
    return ExperimentConfig(**values)


def _cmd_export_graph(args) -> int:
    from .graphs import export_dot
    from .mechanisms import load_spec

    spec = load_spec(_require_file(args.spec, "--spec"))
    _out_path(args.out).write_text(export_dot(spec))
    return EXIT_OK


# Each verb: its help line, the function declaring its flags, its command.
_VERBS = {
    "simulate": ("draw a missingness mask for complete data", _simulate_flags,
                 _cmd_simulate),
    "classify": ("taxonomy cell of a mechanism spec", _spec_flag, _cmd_classify),
    "analyze": ("dependence report for a mask CSV", _analyze_flags, _cmd_analyze),
    "impute": ("multiply impute an incomplete CSV", _impute_flags, _cmd_impute),
    "experiment": ("run one of the simulation studies", _experiment_flags,
                   _cmd_experiment),
    "export-graph": ("DOT graph of a mechanism spec", _export_graph_flags,
                     _cmd_export_graph),
}


def dispatch(argv: list[str]) -> int:
    """Run one command line; returns the exit code instead of exiting."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            parser.print_usage(sys.stderr)
            raise ValueError("a verb is required")
        return _VERBS[args.verb][2](args)
    except ValueError as exc:
        # Every failure the inputs determine: the message names its cause.
        print(f"misslab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --help / --version land here; propagate its code.
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - boundary: a failure of the run
        verb = argv[0] if argv else "?"
        print(f"misslab: {verb} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
