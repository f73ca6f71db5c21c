"""CSV / JSON result files and the run manifest.

This module only formats and writes: it runs no engine arm.  The CLI runs
each mode's and each figure family's arms and hands their results here.

A table is written column by column with one ``%`` format over all its
cells, the spec chosen by each column's dtype: floats get 6 significant
digits (``%.6g``, round-half-even, so golden files stay stable across
platforms), integers are written exactly (``%d``), anything else as text
(``%s``).  A float column made mostly of runs of one value (a step
policy's adherence and spend) has each run's value formatted once, and the
run's cells enter the ``%`` pass as that text; runs are found on the bit
pattern, so ``0.0`` and ``-0.0`` stay apart.  The grid's time column, the
same in every trajectory and curve file, is formatted once per grid
(``_time_cells``, cached by its bytes: the cache holds only this grid
constant, never a result column).  A trajectory or curve cell that is not
finite is an error that names its column; the analyses check their own
costs (``roi``, ``breakeven_gamma``).  Every JSON file, the manifest too,
is written by ``json_bytes``.  A run stages every payload and the manifest,
then renames them into place, the manifest last.  A failed write names its
path and removes the staged files; renames already made are not undone.
Reruns on one host with one numpy write the same bytes.  Across hosts the
committed output corpus holds: CSV cells to their 6 digits, JSON to rel 1e-12.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .analytics import CONTOUR_LEVELS, CONTOUR_LEVELS_DESIGN, CONTOUR_LEVELS_SIGN, RoiGrid, reachable
from .costmodel import Trajectory
from .scenarios import StressKind

_FAMILY_AXES = {
    "severity": ("time (years)", "disease severity"),
    "adherence": ("time (years)", "adherence fraction"),
    "cost": ("time (years)", "cumulative discounted cost (dollars)"),
    "mc": ("roi_percent bins", "draw count"),
    "stress": ("stress kind", "roi_percent"),
}
PLOT_FAMILIES = tuple(_FAMILY_AXES)

# %-spec per numpy dtype kind; every other kind is written as text.
_SPECS = {"f": "%.6g", "i": "%d", "u": "%d"}


def csv_bytes(header: list[str], columns: list) -> bytes:
    """Header line, then row i holding element i of every column.

    The columns must have equal lengths.  A column of strings is text, taken
    element by element as given, so a list of strings is written unchanged.
    """
    n, k = len(columns[0]), len(columns)
    cells: list = [None] * (n * k)
    specs = []
    for j, column in enumerate(columns):
        if len(column) != n:
            raise ValueError(f"column {header[j]!r} has {len(column)} rows, expected {n}")
        cells[j::k], spec = _column_cells(column)
        specs.append(spec)
    row = ",".join(specs) + "\n"
    return (",".join(header) + "\n" + row * n % tuple(cells)).encode()


def _column_cells(column: Sequence) -> tuple[Sequence, str]:
    """A column's cells and the ``%`` spec they are written with."""
    if len(column) and isinstance(column[0], str):
        return column, "%s"
    values = np.asarray(column)
    spec = _SPECS.get(values.dtype.kind)
    if spec is None:
        return column, "%s"
    if values.dtype == np.float64:
        bits = values.view(np.int64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if 2 * (starts.size + 1) <= len(values):
            # Mostly runs: one formatted string per run, repeated over its rows.
            starts = np.concatenate(([0], starts))
            text = np.array([spec % v for v in values[starts].tolist()], dtype=object)
            return np.repeat(text, np.diff(starts, append=len(values))).tolist(), "%s"
    return values.tolist(), spec


@functools.lru_cache(maxsize=4)
def _time_cells(raw: bytes) -> tuple[str, ...]:
    """The ``%.6g`` text of a grid's time column, given as its float64 bytes."""
    return tuple("%.6g" % t for t in np.frombuffer(raw).tolist())


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """An engine column, checked: no analysis guards these, so an overflow or
    invalid operation that reached one is an error that names the column."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{name}: row {i + 1} is {values[i]}; the inputs take it out of the float range")
    return values


def trajectory_csv(traj: Trajectory) -> bytes:
    header = ["time", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"]
    columns = [traj.adherence, traj.severity, traj.policy_cost, traj.instantaneous_cost, traj.cumulative_cost]
    return csv_bytes(header, [_time_cells(traj.times.tobytes()), *map(_finite, header[1:], columns)])


def roi_grid_csv(grid: RoiGrid) -> bytes:
    """Row-major by delta then gamma: header delta,gamma,roi_percent,total_cost."""
    delta, gamma = np.meshgrid(grid.delta_axis, grid.gamma_axis, indexing="ij")
    return csv_bytes(["delta", "gamma", "roi_percent", "total_cost"],
                     [delta.ravel(), gamma.ravel(), grid.roi_percent.ravel(), grid.total_cost.ravel()])


def breakeven_csv(deltas, gammas) -> bytes:
    """One row per delta; gamma_star is empty where no break-even exists."""
    gamma_star = ["" if g is None else "%.6g" % g for g in gammas]
    return csv_bytes(["delta", "gamma_star"], [deltas, gamma_star])


def json_bytes(payload: dict) -> bytes:
    """A JSON file's bytes: two-space indent, sorted keys, one closing newline.
    JSON has no NaN or infinity, so either raises ValueError."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def contours_json(grid: RoiGrid) -> bytes:
    """A sweep's contour levels in ``units`` (percent ROI) and its iso-ROI curves.

    ``levels_sign_bands`` and ``levels_design_space`` list the levels drawn over
    ``roi_grid_file``, and ``curve_levels`` each once, ascending.  ``gamma_at_level``
    has a row per ``delta_axis`` value and a column per curve level: gamma_L, with
    ROI >= L exactly for gamma <= gamma_L, or ``null`` where no finite gamma >= 0
    reaches L (the arm misses L even at gamma = 0, or spends nothing)."""
    return json_bytes({
        "roi_grid_file": "roi_grid.csv",
        "levels_sign_bands": list(CONTOUR_LEVELS_SIGN),
        "levels_design_space": list(CONTOUR_LEVELS_DESIGN),
        "units": "roi_percent",
        "delta_axis": grid.delta_axis.tolist(),
        "curve_levels": list(CONTOUR_LEVELS),
        "gamma_at_level": reachable(grid.iso_roi_gamma),
    })


def draws_csv(draws: np.ndarray) -> bytes:
    names = ["draw_index", "delta", "total_cost", "roi_percent"]
    return csv_bytes(names, [draws[name] for name in names])


def histogram_csv(values: np.ndarray, n_bins: int = 40) -> bytes:
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=n_bins)
    return csv_bytes(["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts])


def curve_csv(times: np.ndarray, values: np.ndarray) -> bytes:
    return csv_bytes(["time", "value"], [_time_cells(times.tobytes()), _finite("value", values)])


def stress_csv(pairs: dict[str, tuple[float, float]]) -> bytes:
    """One row per stress kind, its ROI beside the unstressed one; ``pairs``
    maps "unstressed" and each stress kind to an arm's (ROI, cost)."""
    kinds = [kind.value for kind in StressKind]
    return csv_bytes(["stress_kind", "roi_unstressed_percent", "roi_stressed_percent"],
                     [kinds, [pairs["unstressed"][0]] * len(kinds), [pairs[kind][0] for kind in kinds]])


def write_run_outputs(output_dir: str | Path, files: dict[str, bytes], config_echo: str) -> list[str]:
    """Stage every file, then rename, the manifest last.  Returns the written file names."""
    from . import __version__

    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output_dir: cannot create {out}: {exc.strerror or exc}") from None

    manifest = {
        "engine_version": __version__,
        "config_echo": config_echo,
        "files": [
            {
                "name": name,
                "rows": _data_rows(payload),
                "checksum": hashlib.sha256(payload).hexdigest(),
            }
            for name, payload in sorted(files.items())
        ],
    }
    staged: list[tuple[Path, Path]] = []
    try:
        for name, payload in [*files.items(), ("manifest.json", json_bytes(manifest))]:
            tmp = out / (name + ".tmp")
            staged.append((tmp, out / name))
            tmp.write_bytes(payload)
        for tmp, final in staged:
            os.replace(tmp, final)
    except OSError as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):  # a blocking directory stays
                tmp.unlink(missing_ok=True)
        path = exc.filename2 or exc.filename or out  # a failed write() names no file
        raise ValueError(f"output_dir: cannot write {path}: {exc.strerror or exc}") from None
    return sorted(files) + ["manifest.json"]


def _data_rows(payload: bytes) -> int:
    """Lines after the header of a CSV payload; JSON payloads carry no row count."""
    if payload.startswith((b"{", b"[")):
        return 0
    return max(payload.count(b"\n") - 1, 0)
