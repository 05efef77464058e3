"""Composite dataset: trial rows pooled with external-control rows.

Each row carries the outcome ``y``, covariates ``x``, a treatment indicator
``t`` and a data-source indicator ``d`` (1 = trial, 0 = external control).
External rows are always controls, so ``d = 0`` forces ``t = 0``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from numbers import Real
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation, MissingColumn, ParseError

OUTCOME_BINARY = "binary"
OUTCOME_CONTINUOUS = "continuous"
NO_TRIAL_ROWS = "no trial rows (d=1) present"


@dataclass(frozen=True)
class ColumnSchema:
    """Maps dataset roles to CSV column names.

    ``x`` lists covariate columns; when ``None`` every column other than
    d/t/y is treated as a covariate, in header order.
    """

    d: str = "d"
    t: str = "t"
    y: str = "y"
    x: tuple[str, ...] | None = None

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ColumnSchema":
        """The schema of a JSON object; a key or value of the wrong type is a ConfigError."""
        if not isinstance(mapping, dict):
            raise ConfigError(f"schema must be an object of column names, got {mapping!r}")
        unknown = sorted(set(mapping) - {"d", "t", "y", "x"})
        if unknown:
            raise ConfigError(f"unknown schema keys: {unknown}")
        for role in ("d", "t", "y"):
            if not isinstance(mapping.get(role, role), str):
                raise ConfigError(
                    f"schema key {role!r} must be a column name, got {mapping[role]!r}")
        x = mapping.get("x")
        if x is not None and not (
                isinstance(x, (list, tuple)) and all(isinstance(c, str) for c in x)):
            raise ConfigError(f"schema key 'x' must be a list of column names, got {x!r}")
        return cls(
            d=mapping.get("d", "d"),
            t=mapping.get("t", "t"),
            y=mapping.get("y", "y"),
            x=tuple(x) if x is not None else None,
        )


class CompositeDataset:
    """Immutable pooled sample of trial and external-control rows.

    Stored column-wise as read-only numpy arrays, with ``n1`` the number of
    trial rows. ``x`` is (n, k), one row per unit; a 1-D ``x`` is one
    covariate.
    """

    def __init__(
        self,
        y: np.ndarray,
        x: np.ndarray,
        t: np.ndarray,
        d: np.ndarray,
        covariate_names: Sequence[str] | None = None,
        outcome_kind: str | None = None,
    ):
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        t = np.asarray(t, dtype=int)
        d = np.asarray(d, dtype=int)
        n = y.shape[0]
        if n == 0:
            raise InvariantViolation("dataset is empty")
        if x.ndim != 2 or x.shape[0] != n or t.shape[0] != n or d.shape[0] != n:
            raise InvariantViolation(
                f"column shapes disagree: y={y.shape}, x={x.shape}, t={t.shape}, d={d.shape}"
            )
        if not ((t == 0) | (t == 1)).all():
            raise InvariantViolation("t must be coded 0/1")
        if not ((d == 0) | (d == 1)).all():
            raise InvariantViolation("d must be coded 0/1")
        n1 = int(d.sum())
        if n1 < 1:
            raise InvariantViolation(NO_TRIAL_ROWS)
        if outcome_kind is None:
            outcome_kind = detect_outcome_kind(y)
        elif outcome_kind not in (OUTCOME_BINARY, OUTCOME_CONTINUOUS):
            raise InvariantViolation(f"unknown outcome kind {outcome_kind!r}")
        if covariate_names is None:
            covariate_names = tuple(f"x{i + 1}" for i in range(x.shape[1]))
        else:
            covariate_names = tuple(covariate_names)
            if len(covariate_names) != x.shape[1]:
                raise InvariantViolation(
                    f"{len(covariate_names)} covariate names for {x.shape[1]} columns"
                )
        for arr in (y, x, t, d):
            arr.setflags(write=False)
        self.y = y
        self.x = x
        self.t = t
        self.d = d
        self.n1 = n1
        self.covariate_names = covariate_names
        self.outcome_kind = outcome_kind

    # ------------------------------ counts ------------------------------

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def q_hat(self) -> float:
        return self.n1 / self.n

    @property
    def k(self) -> int:
        return self.x.shape[-1]

    def take(self, indices: np.ndarray) -> "CompositeDataset":
        """Row subset/resample preserving metadata."""
        idx = np.asarray(indices)
        return CompositeDataset(
            self.y[idx],
            self.x[idx],
            self.t[idx],
            self.d[idx],
            covariate_names=self.covariate_names,
            outcome_kind=self.outcome_kind,
        )

    def __repr__(self) -> str:
        return (
            f"CompositeDataset(n={self.n}, n1={self.n1}, n2={self.n2}, "
            f"k={self.k}, outcome={self.outcome_kind})"
        )


class DatasetBlock:
    """K datasets with one row count, covariate set and outcome kind, stacked.

    Each column gains a leading axis of K: ``y``, ``t`` and ``d`` are (K, n),
    and ``x`` is (K, n, k). ``n1``, ``n2`` and ``q_hat`` hold one count per
    dataset as (K, 1), so that they broadcast against the columns. Working
    models fit on a block are stacked (``nuisance.BlockFitter``), and each
    estimator then gives one point per dataset.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray, t: np.ndarray, d: np.ndarray,
                 covariate_names: tuple, outcome_kind: str):
        self.y, self.x = y, x
        # float codes are taken as they are, so that twin blocks share them
        self.t, self.d = t.astype(float, copy=False), d.astype(float, copy=False)
        self.n1 = self.d.sum(axis=1, keepdims=True)
        self.covariate_names = covariate_names
        self.outcome_kind = outcome_kind

    @classmethod
    def stack(cls, datasets: Sequence[CompositeDataset]) -> "DatasetBlock":
        """The block of ``datasets``, which share one row count, covariate set and outcome kind."""
        first = datasets[0]
        if any((ds.n, ds.covariate_names, ds.outcome_kind)
               != (first.n, first.covariate_names, first.outcome_kind) for ds in datasets):
            raise InvariantViolation(
                "a dataset block needs one row count, covariate set and outcome kind")
        return cls(*(np.stack([getattr(ds, name) for ds in datasets]) for name in "yxtd"),
                   first.covariate_names, first.outcome_kind)

    def select(self, keep: np.ndarray) -> "DatasetBlock":
        """The block of the datasets where the (K,) mask ``keep`` holds."""
        return DatasetBlock(self.y[keep], self.x[keep], self.t[keep], self.d[keep],
                            self.covariate_names, self.outcome_kind)

    def dataset(self, index: int) -> CompositeDataset:
        """Dataset ``index`` of the block, its columns copied out with the bits stacked."""
        y, x, t, d = (column[index].copy() for column in (self.y, self.x, self.t, self.d))
        return CompositeDataset(y, x, t, d, self.covariate_names, self.outcome_kind)

    # the counts read the (K, n) columns as they read a dataset's (n,) ones
    n, n2, q_hat, k = (CompositeDataset.n, CompositeDataset.n2, CompositeDataset.q_hat,
                       CompositeDataset.k)


def is_finite_number(value) -> bool:
    """Whether a value read from configuration is a finite real number (not a bool)."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def detect_outcome_kind(y: np.ndarray) -> str:
    y = np.asarray(y, dtype=float)
    finite = y[np.isfinite(y)]
    if finite.size and np.isin(finite, (0.0, 1.0)).all():
        return OUTCOME_BINARY
    return OUTCOME_CONTINUOUS


# ------------------------------ CSV I/O ------------------------------


def load_csv(path: str | Path, schema: ColumnSchema | dict | None = None) -> CompositeDataset:
    """Read a UTF-8 CSV with a header row into a dataset.

    Raises MissingColumn / ParseError / InvariantViolation identifying the
    offending location. Each row is checked as it is read, so the dataset
    holds no invariant ``validate`` reports as violated. Blank lines are
    skipped but keep their row numbers. Row order is preserved.
    """
    if schema is None:
        schema = ColumnSchema()
    elif isinstance(schema, dict):
        schema = ColumnSchema.from_mapping(schema)
    path = Path(path)
    if not path.is_file():
        raise MissingColumn(f"input file not found: {path}", path=str(path))
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvariantViolation(f"empty CSV: {path}") from None
        header = [h.strip() for h in header]
        for name in header:
            if header.count(name) > 1:
                # row -1 is the header line; data rows count from 0
                raise ParseError(f"duplicate column {name!r} in header", row=-1, column=name)
        for role, name in (("d", schema.d), ("t", schema.t), ("y", schema.y)):
            if name not in header:
                raise MissingColumn(f"column {name!r} (role {role}) not in header", column=name)
        if schema.x is None:
            reserved = {schema.d, schema.t, schema.y}
            x_names = tuple(h for h in header if h not in reserved)
        else:
            x_names = schema.x
            for name in x_names:
                if name not in header:
                    raise MissingColumn(f"covariate column {name!r} not in header", column=name)
        if not x_names:
            raise MissingColumn("no covariate columns found")
        col = {name: header.index(name) for name in header}

        def parse_float(text: str, row: int, column: str) -> float:
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"cannot parse {text!r} as a number", row=row, column=column
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {text!r}", row=row, column=column)
            return value

        def parse_indicator(text: str, row: int, column: str) -> int:
            value = parse_float(text, row, column)
            if value not in (0.0, 1.0):
                raise ParseError(f"expected 0/1, got {text!r}", row=row, column=column)
            return int(value)

        ys, ts, ds, xs = [], [], [], []
        for i, record in enumerate(reader):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"row has {len(record)} fields, header has {len(header)}",
                    row=i,
                    column="",
                )
            d = parse_indicator(record[col[schema.d]], i, schema.d)
            t = parse_indicator(record[col[schema.t]], i, schema.t)
            if d == 0 and t == 1:
                raise InvariantViolation(
                    "external row (d=0) marked treated (t=1); external units are controls",
                    row=i,
                )
            ys.append(parse_float(record[col[schema.y]], i, schema.y))
            ts.append(t)
            ds.append(d)
            xs.append([parse_float(record[col[name]], i, name) for name in x_names])

    if not ys:
        raise InvariantViolation(f"no data rows in {path}")
    return CompositeDataset(
        np.array(ys), np.array(xs), np.array(ts), np.array(ds), covariate_names=x_names
    )


def write_csv(ds: CompositeDataset, path: str | Path, schema: ColumnSchema | None = None) -> None:
    """Write the dataset back out; floats use shortest round-trip text."""
    if schema is None:
        schema = ColumnSchema(x=ds.covariate_names)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        x_names = schema.x if schema.x is not None else ds.covariate_names
        writer.writerow([schema.d, schema.t, schema.y, *x_names])
        for i in range(ds.n):
            writer.writerow(
                [
                    int(ds.d[i]),
                    int(ds.t[i]),
                    repr(float(ds.y[i])),
                    *[repr(float(v)) for v in ds.x[i]],
                ]
            )


# ----------------------------- validation -----------------------------


@dataclass
class ValidationReport:
    violations: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    column_checks: dict = field(default_factory=dict)
    detected_outcome_kind: str = OUTCOME_CONTINUOUS
    declared_outcome_kind: str = OUTCOME_CONTINUOUS

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def validate(ds: CompositeDataset) -> ValidationReport:
    """Report-only check of every dataset invariant."""
    report = ValidationReport(
        detected_outcome_kind=detect_outcome_kind(ds.y),
        declared_outcome_kind=ds.outcome_kind,
    )
    bad_t = np.where((ds.d == 0) & (ds.t == 1))[0]
    for i in bad_t:
        report.violations.append(
            {
                "row": int(i),
                "kind": "external_treated",
                "message": "external row (d=0) marked treated (t=1)",
            }
        )
    y_bad = np.where(~np.isfinite(ds.y))[0]
    for i in y_bad:
        report.violations.append(
            {"row": int(i), "kind": "nonfinite_outcome", "message": "y is not finite"}
        )
    x_bad = np.where(~np.isfinite(ds.x))
    for i, j in zip(*x_bad):
        report.violations.append(
            {
                "row": int(i),
                "kind": "nonfinite_covariate",
                "message": f"covariate {ds.covariate_names[j]!r} is not finite",
            }
        )
    if ds.outcome_kind == OUTCOME_BINARY:
        off = np.where(np.isfinite(ds.y) & ~np.isin(ds.y, (0.0, 1.0)))[0]
        for i in off:
            report.violations.append(
                {
                    "row": int(i),
                    "kind": "kind_mismatch",
                    "message": f"y={ds.y[i]!r} outside {{0,1}} but outcome kind is binary",
                }
            )
    report.column_checks = {
        "y_finite": int(np.isfinite(ds.y).sum()),
        "x_finite": int(np.isfinite(ds.x).all(axis=1).sum()),
        "n": ds.n,
    }
    if ds.n2 == 0:
        report.warnings.append(
            "no external controls; only trial-based estimators available"
        )
    if int(((ds.d == 1) & (ds.t == 1)).sum()) == 0:
        report.warnings.append("trial has no treated rows")
    if int(((ds.d == 1) & (ds.t == 0)).sum()) == 0:
        report.warnings.append(
            "trial has no control rows; treated-only estimation required"
        )
    return report


# ----------------------------- summaries ------------------------------


@dataclass
class CellStats:
    count: int
    y_mean: float | None
    y_sd: float | None
    x_mean: list[float] | None
    x_sd: list[float] | None


@dataclass
class DescriptiveStats:
    n: int
    n1: int
    n2: int
    q_hat: float
    trial_treated_fraction: float | None
    outcome_kind: str
    covariate_names: tuple[str, ...]
    cells: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _cell(ds: CompositeDataset, mask: np.ndarray) -> CellStats:
    count = int(mask.sum())
    if count == 0:
        return CellStats(0, None, None, None, None)
    y = ds.y[mask]
    x = ds.x[mask]
    y_sd = float(np.std(y, ddof=1)) if count > 1 else None
    x_sd = [float(v) for v in np.std(x, axis=0, ddof=1)] if count > 1 else None
    return CellStats(
        count,
        float(np.mean(y)),
        y_sd,
        [float(v) for v in np.mean(x, axis=0)],
        x_sd,
    )


def summarize(ds: CompositeDataset) -> DescriptiveStats:
    """Per (d, t) cell counts and moments plus design fractions."""
    cells = {}
    for d_val, t_val in ((1, 1), (1, 0), (0, 0), (0, 1)):
        mask = (ds.d == d_val) & (ds.t == t_val)
        if d_val == 0 and t_val == 1 and not mask.any():
            continue
        cells[f"d={d_val},t={t_val}"] = _cell(ds, mask)
    n_trial = ds.n1
    treated_fraction = (
        float(((ds.d == 1) & (ds.t == 1)).sum() / n_trial) if n_trial else None
    )
    return DescriptiveStats(
        n=ds.n,
        n1=ds.n1,
        n2=ds.n2,
        q_hat=ds.q_hat,
        trial_treated_fraction=treated_fraction,
        outcome_kind=ds.outcome_kind,
        covariate_names=ds.covariate_names,
        cells=cells,
    )
