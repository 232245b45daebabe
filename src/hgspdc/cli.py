"""Command-line surface: matrices, turbulence sweeps, robust-mode ranking
and the validation suite, with CSV/JSON output.

A --config file holds key=value lines, each read as the flag --key=value of
its command, by that command's own parser, under the flags given.

Exit codes: 0 success, 1 validation failure, 2 invalid parameters or an
unusable config or output path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from pathlib import Path

from . import reference, serialization, validate
from .channel import TurbulenceSpec
from .engine import (
    DEFAULT_ORDERING,
    ModeIndex,
    ModePair,
    NORMALIZATION_CALIBRATED,
    NORMALIZATION_RAW,
    build_matrix,
    expand_modes,
    parse_mode,
    rytov_sweep,
    selection_rule_allowed,
)
from .errors import DomainError, NumericalError
from .oracle import DEFAULT_NODES, MAX_NODES, MIN_NODES, check_node_count

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARAMS = 2
EXIT_NUMERICAL = 3

class RunConfig(namedtuple("RunConfig", "optical turbulence modes normalization fmt output")):
    """Resolved run parameters shared by the subcommands: optical, turbulence,
    modes (a tuple of ModeIndex), normalization, fmt (None, "csv" or "json")
    and output (a path or None)."""

    __slots__ = ()


# a flag from one of these mutually exclusive groups shadows the whole
# group in the config file, not just its own key
_EXCLUSIVE_GROUPS = (("cn2", "rytov"), ("modes", "max_sum"))


def _read_config_file(path: str, shadowed: set[str]) -> list[str]:
    """The file's key=value lines as the tokens --key=value, _ read as -,
    leaving out the keys in shadowed, which flags give."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read config {path}: {reason}") from None
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DomainError(f"config line is not key=value: {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in shadowed:
            tokens.append(f"--{key.replace('_', '-')}={val.strip()}")
    return tokens


def _with_config(args: argparse.Namespace) -> argparse.Namespace:
    """args over the --config file's values, which the command's own parser
    reads as it reads the flags. A flag shadows its own file key, and a flag
    of a mutually exclusive group the whole group."""
    given = {k for k, v in vars(args).items() if v is not None} - {"command", "config"}
    shadowed = given.union(*(group for group in _EXCLUSIVE_GROUPS if not given.isdisjoint(group)))
    # no abbreviations: a file key names a flag in full
    file_args = build_parser(allow_abbrev=False).parse_args(
        [args.command, *_read_config_file(args.config, shadowed)])
    if file_args.config is not None:  # a config file names no other one
        raise DomainError("unknown config key 'config'")
    return argparse.Namespace(**{**vars(file_args), **{k: getattr(args, k) for k in given}})


def _parse_modes_arg(tokens: str) -> tuple[ModeIndex, ...]:
    """Whitespace-separated mode tokens, each 'mn' or 'm,n' as a matrix labels
    them (see parse_mode)."""
    modes = tuple(parse_mode(tok) for tok in tokens.split())
    if not modes:
        raise DomainError("mode list is empty")
    return modes


def _parse_pair(token: str) -> ModePair:
    parts = token.split(":")
    if len(parts) != 2:
        raise DomainError(f"pair token {token!r} must look like 'ss:ii', e.g. 00:01")
    return ModePair(parse_mode(parts[0]), parse_mode(parts[1]))


def _number(cast, key: str, text):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"{key} must be a number, got {text!r}") from None


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if v is not None}

    def given(*keys):
        return {k: values[k] for k in keys if k in values}

    optical = reference.reference_config()._replace(
        **given("wavelength", "distance", "pump_waist"))
    turbulence = TurbulenceSpec(**given("cn2", "rytov"))
    modes = (_parse_modes_arg(values["modes"]) if "modes" in values
             else tuple(expand_modes(values["max_sum"])) if "max_sum" in values
             else DEFAULT_ORDERING)
    return RunConfig(optical, turbulence, modes,
                     values.get("normalize", NORMALIZATION_CALIBRATED),
                     values.get("format"), values.get("output"))


def _emit(text: str, output: str | None, mode: str = "w") -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(output, mode) as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        raise DomainError(f"cannot write {output or repr(output)}: {reason}") from None


def _compute_matrix(cfg: RunConfig):
    return build_matrix(cfg.optical, cfg.turbulence, cfg.modes,
                        normalization=cfg.normalization)


def cmd_matrix(cfg: RunConfig) -> int:
    matrix = _compute_matrix(cfg)
    if cfg.fmt == "json":
        _emit(serialization.matrix_to_json(matrix), cfg.output)
    elif cfg.fmt == "csv" or cfg.output is not None:
        _emit(serialization.matrix_to_csv(matrix), cfg.output)
    else:
        header = "\n".join(
            f"# {k}={v}" for k, v in serialization.matrix_params(matrix).items()
            if v is not None
        )
        _emit(header + "\n" + serialization.format_matrix_table(matrix), None)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, grid: list[float], pairs: list[ModePair]) -> int:
    # the series are keyed by "P" and the pair's label, so a pair given
    # twice would lose its column
    labels = [f"P{p.label()}" for p in pairs]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise DomainError(f"pair {label[1:]} is given more than once")
    series = dict(zip(labels, rytov_sweep(cfg.optical, grid, pairs, cfg.normalization)))
    params = serialization.sweep_params(cfg.optical, cfg.normalization)
    emit = serialization.sweep_to_json if cfg.fmt == "json" else serialization.sweep_to_csv
    _emit(emit(list(grid), series, params), cfg.output)
    return EXIT_OK


_NOTABLE = {
    "(00,02)": "robust", "(00,20)": "robust",
    "(00,01)": "dominant-crosstalk", "(00,10)": "dominant-crosstalk",
    "(00,12)": "weak-crosstalk", "(00,21)": "weak-crosstalk",
}


def cmd_rank(cfg: RunConfig) -> int:
    turb_matrix = _compute_matrix(cfg)
    vac_matrix = _compute_matrix(cfg._replace(turbulence=TurbulenceSpec()))

    # one row per pair, the dict the JSON writes and the table formats
    retained, leaking = [], []
    for i, s in enumerate(cfg.modes):
        for j in range(i, len(cfg.modes)):
            pair = ModePair(s, cfg.modes[j])
            label = pair.label()
            pt, note = turb_matrix.values[i][j], _NOTABLE.get(label, "")
            if selection_rule_allowed(pair):
                pv = vac_matrix.values[i][j]
                # pv = 0 for an allowed pair cannot happen at sane
                # parameters; None keeps the JSON standard if it ever does
                retained.append({"pair": label, "retention": pt / pv if pv > 0 else None,
                                 "p_turb": pt, "p_vac": pv, "note": note})
            else:
                leaking.append({"pair": label, "p_turb": pt, "note": note})
    retained.sort(key=lambda row: row["retention"] if row["retention"] is not None
                  else float("-inf"), reverse=True)
    leaking.sort(key=lambda row: row["p_turb"], reverse=True)

    if cfg.fmt == "json":
        _emit(json.dumps({"retention": retained, "leakage": leaking}, indent=2), cfg.output)
        return EXIT_OK
    lines = ["retention (allowed pairs, P_turb / P_vac descending):"]
    for row in retained:
        shown = f"{row['retention']:.4f}" if row["retention"] is not None else "n/a"
        lines.append("  {pair:>9}  retention={shown}  P_turb={p_turb:.5f}  "
                     "P_vac={p_vac:.5f}  {note}".format(shown=shown, **row))
    lines.append("leakage (forbidden pairs, P_turb descending):")
    lines += ["  {pair:>9}  P_turb={p_turb:.6f}  {note}".format(**row) for row in leaking]
    _emit("\n".join(lines), cfg.output)
    return EXIT_OK


def cmd_validate(vacuum_only: bool, output: str | None, nodes: int = DEFAULT_NODES) -> int:
    # a bad node count or report path fails before any check runs; appending
    # nothing leaves an existing report as it is
    check_node_count(nodes)
    if output is not None:
        _emit("", output, "a")
    results = validate.run_checks(vacuum_only=vacuum_only, oracle_nodes=nodes)
    report = {
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
        "pi_seeds": validate.reference_seeds(),
    }
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        dev = f"  max_dev={r.max_deviation:.3e}" if r.max_deviation is not None else ""
        print(f"{status:4}  {r.name}{dev}")
        if not r.passed:
            print(f"      {r.detail}")
    if output is not None:
        _emit(json.dumps(report, indent=2), output)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _add_common(parser: argparse.ArgumentParser, channel: bool,
                formats: tuple[str, ...] = ("csv", "json")) -> None:
    """The link and output flags, --format offering formats, and with
    channel the --cn2|--rytov and --modes|--max-sum groups between them:
    matrix and rank read a channel and a mode grid, sweep neither."""
    parser.add_argument("--wavelength", type=float, help="wavelength [m]")
    parser.add_argument("--distance", type=float, help="propagation distance [m]")
    parser.add_argument("--pump-waist", dest="pump_waist", type=float,
                        help="pump amplitude spot at the crystal [m] "
                             "(effective width W0 = sqrt(2) x this)")
    if channel:
        turb = parser.add_mutually_exclusive_group()
        turb.add_argument("--cn2", type=float, help="refractive-index structure constant")
        turb.add_argument("--rytov", type=float, help="Rytov variance (dimensionless)")
        modes = parser.add_mutually_exclusive_group()
        modes.add_argument("--modes", type=str,
                           help="space-separated 'mn' or 'm,n' tokens (default: 10-mode grid)")
        modes.add_argument("--max-sum", dest="max_sum", type=int,
                           help="expand all modes with m+n <= S")
    parser.add_argument("--normalize", choices=[NORMALIZATION_RAW,
                                                NORMALIZATION_CALIBRATED])
    parser.add_argument("--format", dest="format", choices=formats)
    parser.add_argument("--output", type=str, help="output path (default stdout)")
    parser.add_argument("--config", type=str,
                        help="key=value config file; flags override it")


def build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser; without allow_abbrev, the subcommands that read a
    config file take no abbreviated flag."""
    parser = argparse.ArgumentParser(
        prog="hgspdc",
        description="Joint detection probabilities of photon pairs in "
                    "Hermite-Gaussian modes through atmospheric turbulence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", allow_abbrev=allow_abbrev,
                              help="compute a probability matrix")
    _add_common(p_matrix, channel=True)

    p_sweep = sub.add_parser("sweep", allow_abbrev=allow_abbrev,
                             help="sweep probabilities over rytov values")
    _add_common(p_sweep, channel=False)
    p_sweep.add_argument("--grid", type=str,
                         help="comma-separated ascending rytov values "
                              "(default 0,0.01,...,0.1)")
    p_sweep.add_argument("--pairs", type=str,
                         help="pair tokens 'ss:ii', space separated")

    p_rank = sub.add_parser("rank", allow_abbrev=allow_abbrev,
                            help="rank mode pairs by turbulence robustness")
    _add_common(p_rank, channel=True, formats=("json",))

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--vacuum-only", action="store_true",
                       help="skip turbulence fixtures")
    p_val.add_argument("--output", type=str, help="write a JSON report here")
    p_val.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                       help=f"oracle quadrature nodes in r, {MIN_NODES} to "
                            f"{MAX_NODES}; the convergence check also runs "
                            f"at twice this")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.vacuum_only, args.output, args.nodes)
        args = _with_config(args) if args.config else args
        cfg = _build_run_config(args)
        if args.command == "matrix":
            return cmd_matrix(cfg)
        if args.command == "sweep":
            # an empty --grid holds no point, which rytov_sweep rejects
            tokens = args.grid.split(",") if args.grid else []
            grid = (list(validate.SWEEP_GRID) if args.grid is None
                    else [_number(float, "grid value", tok) for tok in tokens])
            pairs = "00:00 00:01" if args.pairs is None else args.pairs
            return cmd_sweep(cfg, grid, [_parse_pair(tok) for tok in pairs.split()])
        # argparse admits no other command than rank here
        if cfg.turbulence == TurbulenceSpec():
            raise DomainError("rank needs a turbulent channel: give --rytov or --cn2")
        return cmd_rank(cfg)
    except DomainError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
