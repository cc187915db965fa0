"""File formats: CSV datasets, JSON test reports, power-study configs.

Datasets are plain comma-separated files, one observation per row, decimal
point, optional single header row (auto-detected when the first row fails
numeric parsing), UTF-8, LF or CRLF.  Numbers are written with 17 significant
digits so doubles round-trip exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, typed
from .simulate import scenario_config

POWER_SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextmanager
def open_text(path: str, mode: str = "r"):
    """``path`` opened as UTF-8 text for reading (``"r"``, any line ends) or
    writing (``"w"``, LF line ends).  An ``OSError`` while it is open
    becomes ``InvalidInputError``: "cannot read|write <path>: <reason>", and
    so do bytes read that are not UTF-8."""
    try:
        with open(path, mode, encoding="utf-8", newline=None if mode == "r" else "\n") as fh:
            yield fh
    except OSError as err:
        verb = "read" if mode == "r" else "write"
        raise InvalidInputError(f"cannot {verb} {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise InvalidInputError(f"{path}: not UTF-8 text ({err.reason})") from None


def _parse_row(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(",")]


def read_dataset(path: str) -> np.ndarray:
    """Read a dataset file into an (n, d) float matrix.

    Parse failures name the offending row and column (1-based, counting the
    header row if present).
    """
    with open_text(path) as fh:
        lines = [ln.rstrip("\r\n") for ln in fh]
    rows = [(i + 1, _parse_row(ln)) for i, ln in enumerate(lines) if ln.strip() != ""]
    if not rows:
        raise InvalidInputError(f"{path}: file is empty")

    def values(rowno: int, cells: list[str]) -> list[float]:
        out = []
        for c, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise InvalidInputError(
                    f"{path}: row {rowno}, column {c}: could not parse {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise InvalidInputError(
                    f"{path}: row {rowno}, column {c}: non-finite value {cell!r}"
                )
            out.append(value)
        return out

    start = 0
    try:
        values(*rows[0])
    except InvalidInputError:
        start = 1  # header row
        if len(rows) == 1:
            raise InvalidInputError(f"{path}: no data rows after the header")
    data_rows = rows[start:]
    if len(data_rows) < 2:
        raise InvalidInputError(f"{path}: need at least 2 data rows, got {len(data_rows)}")
    width = len(data_rows[0][1])
    parsed = []
    for rowno, cells in data_rows:
        if len(cells) != width:
            raise InvalidInputError(
                f"{path}: row {rowno} has {len(cells)} columns, expected {width}"
            )
        parsed.append(values(rowno, cells))
    return np.asarray(parsed, dtype=float)


def write_dataset(path: str, data: np.ndarray) -> None:
    arr = np.asarray(data, dtype=float)
    with open_text(path, "w") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(_fmt(v) for v in row))
            fh.write("\n")


def report_to_json(report, levels, tool_version: str) -> str:
    """Serialize a test report; key order is fixed for reproducible bytes."""
    import json

    doc = {
        "statistic": {
            "functional": report.spec.functional.value,
            "metric_x": report.spec.metric_x.value,
            "metric_y": report.spec.metric_y.value,
        },
        "n": report.n,
        "observed": report.observed,
        "p_value": report.p_value,
        "m": report.m,
        "seed": report.seed,
        "alpha_decisions": {format(a, "g"): bool(report.p_value <= a) for a in levels},
        "elapsed_ms": report.elapsed * 1000.0,
        "tool_version": tool_version,
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class GroupSpec:
    name: str
    start: int
    stop: int  # half-open [start, stop)


def parse_groups(text: str, n_columns: int) -> list[GroupSpec]:
    """Parse a column-partition spec "name=c0:c1;name=c2:c3;..." (half-open)."""
    groups: list[GroupSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, equals, span = chunk.partition("=")
        if not equals or ":" not in span:
            raise InvalidInputError(f"group {chunk!r} is not of the form name=start:stop")
        name = name.strip()
        lo_txt, _, hi_txt = span.partition(":")
        try:
            lo, hi = int(lo_txt), int(hi_txt)
        except ValueError:
            raise InvalidInputError(f"group {chunk!r}: column bounds must be integers") from None
        if not (0 <= lo < hi <= n_columns):
            raise InvalidInputError(
                f"group {name!r}: range {lo}:{hi} is out of bounds for {n_columns} columns"
            )
        groups.append(GroupSpec(name=name, start=lo, stop=hi))
    if len(groups) < 2:
        raise InvalidInputError("need at least 2 groups")
    used = np.zeros(n_columns, dtype=bool)
    for g in groups:
        if used[g.start : g.stop].any():
            raise InvalidInputError(f"group {g.name!r}: columns overlap a previous group")
        used[g.start : g.stop] = True
    return groups


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise InvalidInputError(f"{where}: missing required key {key!r}")
    return typed(doc[key], kind, f"{where}: key {key!r} must be {kind.__name__}")


def _reject_unknown_keys(doc: dict, known, where: str) -> None:
    for key in doc:
        if key not in known:
            raise InvalidInputError(f"{where}: unknown key {key!r} (expected {', '.join(known)})")


def read_power_config(path: str):
    """Parse a power-study config file (JSON, schema below; unknown keys are
    rejected, and the optional scenario keys are those of
    ``simulate.SCENARIO_PARAMETERS``).

    {
      "schema_version": 1,
      "scenario": {"id": "D3", "n": 50, "len": 100, "phi": [0.1], ...},
      "specs": [{"functional": "l2", "metric_x": "l1", "metric_y": "l1"}, ...],
      "reps": 200, "m": 100, "alpha": 0.05, "seed": 0
    }
    """
    import json

    from .harness import PowerStudySpec
    from .stats_core import StatisticSpec

    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{path}: invalid JSON: {err}") from None
    where = path
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where}: the config must be a JSON object")
    _reject_unknown_keys(doc, ("schema_version", "scenario", "specs", "reps", "m", "alpha", "seed"), where)
    version = _require(doc, "schema_version", int, where)
    if version != POWER_SCHEMA_VERSION:
        raise InvalidInputError(
            f"{where}: schema_version {version} unsupported (expected {POWER_SCHEMA_VERSION})"
        )
    sc = _require(doc, "scenario", dict, where)
    sc_id = _require(sc, "id", str, f"{where}: scenario")
    sc_n = _require(sc, "n", int, f"{where}: scenario")
    params = {key: value for key, value in sc.items() if key not in ("id", "n")}
    try:
        scenario = scenario_config(sc_id, sc_n, params)
    except InvalidInputError as err:
        raise InvalidInputError(f"{where}: scenario: {err}") from None

    raw_specs = _require(doc, "specs", list, where)
    if not raw_specs:
        raise InvalidInputError(f"{where}: key 'specs' must be a non-empty list")
    specs = []
    for i, raw in enumerate(raw_specs):
        if not isinstance(raw, dict):
            raise InvalidInputError(f"{where}: specs[{i}] must be an object")
        keys = ("functional", "metric_x", "metric_y")
        _reject_unknown_keys(raw, keys, f"{where}: specs[{i}]")
        specs.append(StatisticSpec.parse(*(_require(raw, k, str, f"{where}: specs[{i}]") for k in keys)))
    return PowerStudySpec(
        scenario=scenario,
        specs=tuple(specs),
        reps=_require(doc, "reps", int, where),
        m=_require(doc, "m", int, where),
        alpha=_require(doc, "alpha", float, where),
        seed=_require(doc, "seed", int, where),
    )


def power_result_to_csv(result) -> str:
    """Fixed-column CSV: scenario,functional,metric_x,metric_y,rate,se,reps,m,alpha,seconds."""
    lines = ["scenario,functional,metric_x,metric_y,rate,se,reps,m,alpha,seconds"]
    study = result.study
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    study.scenario.scenario,
                    row.spec.functional.value,
                    row.spec.metric_x.value,
                    row.spec.metric_y.value,
                    _fmt(row.rate),
                    _fmt(row.se),
                    str(study.reps),
                    str(study.m),
                    format(study.alpha, "g"),
                    format(row.seconds, ".3f"),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def dependogram_to_csv(dep) -> str:
    """Fixed-column CSV: pair,observed,critical@...,reject@... per level."""
    level_txt = [format(a, "g") for a in dep.levels]
    header = (
        ["pair", "observed"]
        + [f"critical@{t}" for t in level_txt]
        + [f"reject@{t}" for t in level_txt]
    )
    lines = [",".join(header)]
    for entry in dep.entries:
        cells = [f"{entry.label_a}:{entry.label_b}", _fmt(entry.observed)]
        cells += [_fmt(entry.critical_values[a]) for a in dep.levels]
        cells += [str(entry.rejects[a]).lower() for a in dep.levels]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
