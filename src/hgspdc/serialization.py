"""CSV / JSON emission and parsing for probability matrices and sweeps.

CSV matrices carry '#'-prefixed key=value header lines (wavelength_m,
distance_m, pump_waist_m, rytov, gamma, w_variant, normalization, ...), a
label row/column, and cells with 12 significant digits. Rows go through the
stdlib csv module with minimal quoting, so a label holding a comma (the
order-10 mode 0,10, the sweep series P(00,01)) is one quoted field. JSON
carries full float precision (round-trips bit-exactly through json) with
params, ordering, matrix and normalization objects.
"""

from __future__ import annotations

import csv
import io
import json

from .channel import DEFAULT_STRENGTH_COEFF, DEFAULT_W_VARIANT, OpticalConfig
from .engine import ProbabilityMatrix

CSV_SIGNIFICANT_DIGITS = 12
_CSV_FMT = f"%.{CSV_SIGNIFICANT_DIGITS}g"


def matrix_params(matrix: ProbabilityMatrix) -> dict:
    c = matrix.consts
    t = matrix.turbulence
    params = {
        "wavelength_m": c.cfg.wavelength,
        "distance_m": c.cfg.distance,
        "pump_waist_m": c.cfg.pump_waist,
        "cn2": t.cn2 if t is not None else None,
        "rytov": t.rytov if t is not None else None,
        "gamma": c.gamma,
        "strength_coeff": t.strength_coeff if t is not None else None,
        "w_variant": c.w_variant,
        "normalization": matrix.normalization.mode,
    }
    return params


def _normalization_obj(matrix: ProbabilityMatrix) -> dict:
    n = matrix.normalization
    return {
        "mode": n.mode,
        "reference_pair": n.reference_pair.label(),
        "reference_value": n.reference_value,
        "calibration_factor": n.calibration_factor,
        "raw_reference_value": n.raw_reference_value,
    }


def matrix_to_json(matrix: ProbabilityMatrix) -> str:
    doc = {
        "params": matrix_params(matrix),
        "ordering": [m.label() for m in matrix.ordering],
        "matrix": [list(row) for row in matrix.values],
        "normalization": _normalization_obj(matrix),
    }
    return json.dumps(doc, indent=2)


def matrix_to_csv(matrix: ProbabilityMatrix) -> str:
    out = io.StringIO()
    for key, val in matrix_params(matrix).items():
        if val is None:
            continue
        out.write(f"# {key}={val!r}\n" if isinstance(val, str) else f"# {key}={val}\n")
    norm = _normalization_obj(matrix)
    if norm["reference_value"] is not None:
        out.write(f"# reference_pair={norm['reference_pair']}\n")
        out.write(f"# reference_value={norm['reference_value']}\n")
    out.write(f"# calibration_factor={norm['calibration_factor']}\n")
    out.write(f"# raw_reference_value={norm['raw_reference_value']}\n")
    labels = [m.label() for m in matrix.ordering]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["signal\\idler", *labels])
    for label, row in zip(labels, matrix.values):
        writer.writerow([label, *(_CSV_FMT % v for v in row)])
    return out.getvalue()


def parse_matrix_json(text: str) -> dict:
    """Parse a matrix JSON document back into plain python structures."""
    doc = json.loads(text)
    doc["ordering"] = [str(label) for label in doc["ordering"]]
    return doc


def parse_matrix_csv(text: str) -> dict:
    """Parse the CSV emission: header params, labels, and the value grid."""
    params: dict = {}
    table: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            params[key.strip()] = val.strip()
            continue
        table.append(line)
    cells = list(csv.reader(table))
    labels = cells[0][1:] if cells else []
    rows = [[float(v) for v in row[1:]] for row in cells[1:]]
    return {"params": params, "ordering": labels, "matrix": rows}


def format_matrix_table(matrix: ProbabilityMatrix, decimals: int = 5) -> str:
    """Human-readable fixed-point table (reference tables use 5 decimals)."""
    labels = [m.label() for m in matrix.ordering]
    width = max(decimals + 3, max(len(s) for s in labels) + 1)
    head = " " * 6 + "".join(f"{s:>{width}}" for s in labels)
    lines = [head]
    for label, row in zip(labels, matrix.values):
        lines.append(f"{label:>5} " + "".join(f"{v:>{width}.{decimals}f}" for v in row))
    return "\n".join(lines)


def sweep_params(cfg: OpticalConfig, normalization: str) -> dict:
    """Header params of a rytov_sweep over the geometry cfg."""
    return {
        "wavelength_m": cfg.wavelength,
        "distance_m": cfg.distance,
        "pump_waist_m": cfg.pump_waist,
        "strength_coeff": DEFAULT_STRENGTH_COEFF,
        "w_variant": DEFAULT_W_VARIANT,
        "normalization": normalization,
    }


def sweep_to_csv(grid: list[float], series: dict[str, list[float]],
                 params: dict | None = None) -> str:
    out = io.StringIO()
    for key, val in (params or {}).items():
        if val is not None:
            out.write(f"# {key}={val}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rytov", *series])
    for i, s2 in enumerate(grid):
        writer.writerow([_CSV_FMT % s2, *(_CSV_FMT % series[k][i] for k in series)])
    return out.getvalue()


def sweep_to_json(grid: list[float], series: dict[str, list[float]],
                  params: dict | None = None) -> str:
    return json.dumps({"params": params or {}, "grid": list(grid),
                       "series": series}, indent=2)
