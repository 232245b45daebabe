"""Command-line surface: matrices, turbulence sweeps, robust-mode ranking
and the validation suite, with CSV/JSON output.

Exit codes: 0 success, 1 validation failure, 2 invalid parameters or an
unusable config or output path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import reference, serialization, validate
from .channel import OpticalConfig, TurbulenceSpec
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

DEFAULT_GRID = validate.SWEEP_GRID


class RunConfig(SimpleNamespace):
    """Resolved run parameters shared by the subcommands: optical, turbulence,
    modes, normalization, fmt (None, "csv" or "json") and output (a path or
    None). Mutable; equal to another namespace of the same fields."""

    def __init__(self, optical: OpticalConfig = reference.reference_config(),
                 turbulence: TurbulenceSpec = TurbulenceSpec(),
                 modes: tuple[ModeIndex, ...] = DEFAULT_ORDERING,
                 normalization: str = NORMALIZATION_CALIBRATED,
                 fmt: str | None = None, output: str | None = None):
        super().__init__(optical=optical, turbulence=turbulence, modes=modes,
                         normalization=normalization, fmt=fmt, output=output)


#: the keys _build_run_config reads
_CONFIG_KEYS = ("wavelength", "distance", "pump_waist", "cn2", "rytov",
                "modes", "max_sum", "normalize", "format", "output")


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read config {path}: {reason}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise DomainError(f"config line is not key=value: {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _parse_modes_arg(tokens: str) -> tuple[ModeIndex, ...]:
    modes = tuple(parse_mode(tok) for tok in tokens.replace(",", " ").split())
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
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(key: str, cast):
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            return _number(cast, key, file_vals[key])
        return None

    def pick_group(*keys):
        # a flag from a mutually exclusive group overrides the whole group
        # in the config file, not just its own key
        flagged = {k: getattr(args, k, None) for k in keys}
        if any(v is not None for v in flagged.values()):
            return flagged
        return {k: file_vals.get(k) for k in keys}

    cfg = RunConfig()
    geometry = {key: pick(key, float)
                for key in ("wavelength", "distance", "pump_waist")}
    cfg.optical = cfg.optical._replace(**{k: v for k, v in geometry.items()
                                            if v is not None})

    turb = pick_group("cn2", "rytov")
    cfg.turbulence = TurbulenceSpec(**{k: _number(float, k, v) for k, v in turb.items()
                                       if v is not None})

    grid = pick_group("modes", "max_sum")
    if grid["modes"] is not None and grid["max_sum"] is not None:
        raise DomainError("give either modes or max_sum, not both")
    if grid["modes"] is not None:
        cfg.modes = _parse_modes_arg(str(grid["modes"]))
    elif grid["max_sum"] is not None:
        cfg.modes = tuple(expand_modes(_number(int, "max_sum", grid["max_sum"])))

    normalize = pick("normalize", str)
    if normalize is not None:
        cfg.normalization = normalize
    fmt = pick("format", str)
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise DomainError(f"unknown format {fmt!r}")
        cfg.fmt = fmt
    out = pick("output", str)
    if out is not None:
        cfg.output = out
    return cfg


def _emit(text: str, output: str | None, mode: str = "w") -> None:
    if not output:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(output, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {output}: {exc.strerror or exc}") from None


def _compute_matrix(cfg: RunConfig):
    return build_matrix(cfg.optical, cfg.turbulence, cfg.modes,
                        normalization=cfg.normalization)


def cmd_matrix(cfg: RunConfig) -> int:
    matrix = _compute_matrix(cfg)
    if cfg.fmt == "json":
        _emit(serialization.matrix_to_json(matrix), cfg.output)
    elif cfg.fmt == "csv" or cfg.output:
        _emit(serialization.matrix_to_csv(matrix), cfg.output)
    else:
        header = "\n".join(
            f"# {k}={v}" for k, v in serialization.matrix_params(matrix).items()
            if v is not None
        )
        _emit(header + "\n" + serialization.format_matrix_table(matrix), None)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, grid: list[float], pairs: list[ModePair]) -> int:
    values = rytov_sweep(cfg.optical, grid, pairs, normalization=cfg.normalization)
    series = {f"P{p.label()}": v for p, v in zip(pairs, values)}
    params = serialization.sweep_params(cfg.optical, cfg.normalization)
    emit = serialization.sweep_to_json if cfg.fmt == "json" else serialization.sweep_to_csv
    _emit(emit(list(grid), series, params), cfg.output)
    return EXIT_OK


_NOTABLE = {
    ("00", "02"): "robust", ("00", "20"): "robust",
    ("00", "01"): "dominant-crosstalk", ("00", "10"): "dominant-crosstalk",
    ("00", "12"): "weak-crosstalk", ("00", "21"): "weak-crosstalk",
}


def cmd_rank(cfg: RunConfig) -> int:
    turb_matrix = _compute_matrix(cfg)
    vac_matrix = _compute_matrix(RunConfig(**{**vars(cfg), "turbulence": TurbulenceSpec()}))

    retained, leaking = [], []
    n = len(cfg.modes)
    for i in range(n):
        for j in range(i, n):
            s, d = cfg.modes[i], cfg.modes[j]
            pair = ModePair(s, d)
            pt = turb_matrix.values[i][j]
            note = _NOTABLE.get((s.label(), d.label()), "")
            if selection_rule_allowed(pair):
                pv = vac_matrix.values[i][j]
                # pv = 0 for an allowed pair cannot happen at sane
                # parameters; None keeps the JSON standard if it ever does
                retention = pt / pv if pv > 0 else None
                retained.append((retention, pair, pt, pv, note))
            else:
                leaking.append((pt, pair, note))
    retained.sort(key=lambda r: r[0] if r[0] is not None else float("-inf"),
                  reverse=True)
    leaking.sort(key=lambda r: r[0], reverse=True)

    if cfg.fmt == "json":
        doc = {
            "retention": [
                {"pair": p.label(), "retention": r, "p_turb": pt, "p_vac": pv,
                 "note": note}
                for r, p, pt, pv, note in retained
            ],
            "leakage": [
                {"pair": p.label(), "p_turb": pt, "note": note}
                for pt, p, note in leaking
            ],
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
        return EXIT_OK
    lines = ["retention (allowed pairs, P_turb / P_vac descending):"]
    for r, p, pt, pv, note in retained:
        shown = f"{r:.4f}" if r is not None else "n/a"
        lines.append(f"  {p.label():>9}  retention={shown}  "
                     f"P_turb={pt:.5f}  P_vac={pv:.5f}  {note}")
    lines.append("leakage (forbidden pairs, P_turb descending):")
    for pt, p, note in leaking:
        lines.append(f"  {p.label():>9}  P_turb={pt:.6f}  {note}")
    _emit("\n".join(lines), cfg.output)
    return EXIT_OK


def cmd_validate(vacuum_only: bool, output: str | None, nodes: int = DEFAULT_NODES) -> int:
    # a bad node count or report path fails before any check runs; appending
    # nothing leaves an existing report as it is
    check_node_count(nodes)
    if output:
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
    if output:
        _emit(json.dumps(report, indent=2), output)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wavelength", type=float, help="wavelength [m]")
    parser.add_argument("--distance", type=float, help="propagation distance [m]")
    parser.add_argument("--pump-waist", dest="pump_waist", type=float,
                        help="pump amplitude spot at the crystal [m] "
                             "(effective width W0 = sqrt(2) x this)")
    turb = parser.add_mutually_exclusive_group()
    turb.add_argument("--cn2", type=float, help="refractive-index structure constant")
    turb.add_argument("--rytov", type=float, help="Rytov variance (dimensionless)")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--modes", type=str,
                       help="mode tokens, e.g. '00 01 10' (default: 10-mode grid)")
    modes.add_argument("--max-sum", dest="max_sum", type=int,
                       help="expand all modes with m+n <= S")
    parser.add_argument("--normalize", choices=[NORMALIZATION_RAW,
                                                NORMALIZATION_CALIBRATED])
    parser.add_argument("--format", dest="format", choices=["csv", "json"])
    parser.add_argument("--output", type=str, help="output path (default stdout)")
    parser.add_argument("--config", type=str,
                        help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgspdc",
        description="Joint detection probabilities of photon pairs in "
                    "Hermite-Gaussian modes through atmospheric turbulence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="compute a probability matrix")
    _add_common(p_matrix)

    p_sweep = sub.add_parser("sweep", help="sweep probabilities over rytov values")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", type=str,
                         help="comma-separated ascending rytov values "
                              "(default 0,0.01,...,0.1)")
    p_sweep.add_argument("--pairs", type=str, default="00:00 00:01",
                         help="pair tokens 'ss:ii', space separated")

    p_rank = sub.add_parser("rank", help="rank mode pairs by turbulence robustness")
    _add_common(p_rank)

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
        cfg = _build_run_config(args)
        if args.command == "matrix":
            return cmd_matrix(cfg)
        if args.command == "sweep":
            grid = ([_number(float, "grid value", tok) for tok in args.grid.split(",")]
                    if args.grid else list(DEFAULT_GRID))
            pairs = [_parse_pair(tok) for tok in args.pairs.split()]
            return cmd_sweep(cfg, grid, pairs)
        if args.command == "rank":
            if cfg.turbulence == TurbulenceSpec():
                raise DomainError("rank needs a turbulent channel: give --rytov or --cn2")
            return cmd_rank(cfg)
        raise DomainError(f"unknown command {args.command!r}")
    except DomainError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
