"""Typed errors with stable machine-readable codes.

Every error carries a ``code`` (stable string for machine consumption) and an
``exit_code`` (CLI process exit status: 2 config, 3 data, 4 numeric,
5 out of memory).
"""

from __future__ import annotations

from typing import Any


class EcborrowError(Exception):
    code = "ERROR"
    exit_code = 4

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_dict(self) -> dict:
        out = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = {k: v for k, v in sorted(self.details.items())}
        return out


class ConfigError(EcborrowError):
    code = "CONFIG"
    exit_code = 2


# ---------------------------- data errors -----------------------------


class MissingColumn(EcborrowError):
    code = "MISSING_COLUMN"
    exit_code = 3


class ParseError(EcborrowError):
    code = "PARSE_ERROR"
    exit_code = 3

    def __init__(self, message: str, row: int, column: str, **details: Any):
        super().__init__(message, row=row, column=column, **details)
        self.row = row
        self.column = column


class InvariantViolation(EcborrowError):
    code = "INVARIANT_VIOLATION"
    exit_code = 3

    def __init__(self, message: str, row: int | None = None, **details: Any):
        if row is not None:
            details["row"] = row
        super().__init__(message, **details)
        self.row = row


class EmptyCell(EcborrowError):
    code = "EMPTY_CELL"
    exit_code = 3


class OverlapNoExternal(EmptyCell):
    code = "OVERLAP_NO_EXTERNAL"
    exit_code = 3


# --------------------------- numeric errors ---------------------------


class NonConvergence(EcborrowError):
    code = "NON_CONVERGENCE"
    exit_code = 4


class RankDeficient(EcborrowError):
    code = "RANK_DEFICIENT"
    exit_code = 4

    def __init__(self, message: str, columns: list | None = None, **details: Any):
        if columns is not None:
            details["columns"] = list(columns)
        super().__init__(message, **details)
        self.columns = columns or []


class SeparationDetected(EcborrowError):
    code = "SEPARATION"
    exit_code = 4


class DegenerateVariance(EcborrowError):
    code = "DEGENERATE_VARIANCE"
    exit_code = 4


class VarianceModelRequired(EcborrowError):
    code = "VARIANCE_MODEL_REQUIRED"
    exit_code = 4


class MismatchedPoint(EcborrowError):
    code = "MISMATCHED_POINT"
    exit_code = 4


class ReplicateFailure(EcborrowError):
    code = "REPLICATE_FAILURE"
    exit_code = 4


class NonFiniteResult(EcborrowError):
    code = "NON_FINITE"
    exit_code = 4


class OutOfMemory(EcborrowError):
    code = "OUT_OF_MEMORY"
    exit_code = 5
