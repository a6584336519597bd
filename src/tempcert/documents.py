"""JSON document formats for states, channels, processes, ensembles, tables, reports.

Complex numbers are encoded as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays; dimensions are always explicit.  Unknown fields are
rejected so that a document either parses exactly or fails loudly.  Numbers
must be finite JSON numbers (not booleans) that fit a float64.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .channels import CptpReport, Process, SuperOp
from .ensembles import ProductEnsemble
from .sot import CorrelationTable
from .temporal import CertificationResult, CompatibilityReport

__all__ = [
    "SCHEMA_VERSION",
    "encode_matrix",
    "decode_matrix",
    "state_document",
    "parse_state_document",
    "channel_document",
    "parse_channel_document",
    "process_document",
    "parse_process_document",
    "ensemble_document",
    "parse_ensemble_document",
    "correlations_document",
    "parse_correlations_document",
    "report_document",
    "load_document",
    "dump_document",
]

SCHEMA_VERSION = "1"

_KIND_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    "state": ({"dim_a", "dim_b", "matrix"}, set()),
    "channel": ({"dim_in", "dim_out", "choi"}, {"diagnostics"}),
    "process": ({"dim_in", "dim_out", "choi", "input_state"}, set()),
    "ensemble": ({"dim_a", "dim_b", "weights", "states_a", "states_b"}, set()),
    "correlations": ({"qubits", "table"}, set()),
    "report": ({"tolerance", "ppt", "ppt_min_eigenvalue", "sides"}, set()),
}


def _check_fields(doc: dict[str, Any], kind: str) -> None:
    required, optional = _KIND_FIELDS[kind]
    required = required | {"schema_version", "kind"}
    unknown = set(doc) - required - optional
    if unknown:
        raise ValueError(f"unknown fields in {kind} document: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing fields in {kind} document: {sorted(missing)}")


def _check_header(doc: Any, kind: str | None) -> str:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    actual = doc.get("kind")
    if actual not in _KIND_FIELDS:
        raise ValueError(f"unknown document kind {actual!r}")
    if kind is not None and actual != kind:
        raise ValueError(f"expected a {kind} document, got kind {actual!r}")
    _check_fields(doc, actual)
    return actual


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def _all_are(values: list, cls: type | tuple[type, ...]) -> bool:
    """Whether every value is a ``cls`` instance and none is a ``bool``, from the set of their types."""
    return all(issubclass(t, cls) and t is not bool for t in set(map(type, values)))


def _nested_floats(obj: Any, shape: tuple[int, ...]) -> np.ndarray | None:
    """``obj`` as a float64 array when it is nested lists of ``shape`` holding numbers, else ``None``.

    Each nesting level is checked in bulk, so no Python loop runs per entry.
    Numbers are ints or floats, not booleans, and must fit a float64.
    """
    level = [obj]
    for n in shape:
        if not _all_are(level, list) or set(map(len, level)) != {n}:
            return None
        level = list(chain.from_iterable(level))
    if not _all_are(level, (int, float)):
        return None
    try:
        return np.array(level, dtype=np.float64).reshape(shape)
    except OverflowError:
        return None


def _matrix_error(obj: Any, dim: int, what: str) -> str:
    """Name the first malformed row or entry of a matrix that :func:`_nested_floats` rejected."""
    if isinstance(obj, list) and len(obj) == dim:
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != dim:
                return f"{what} row {i} must have {dim} entries"
            for j, entry in enumerate(row):
                if not isinstance(entry, list) or len(entry) != 2 or not _all_are(entry, (int, float)):
                    return f"{what}[{i}][{j}] must be a [re, im] pair"
                if _nested_floats(entry, (2,)) is None:
                    return f"{what}[{i}][{j}] is out of range for a float"
    return f"{what} must be a {dim}x{dim} nested array"


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    finite = np.isfinite(values)
    if not finite.all():
        index = "".join(f"[{k}]" for k in np.argwhere(~finite)[0])
        raise ValueError(f"{what} contains non-finite entries, first at {what}{index}")
    return values


def decode_matrix(obj: Any, dim: int, what: str = "matrix") -> np.ndarray:
    values = _nested_floats(obj, (dim, dim, 2))
    if values is None:
        raise ValueError(_matrix_error(obj, dim, what))
    return _require_finite(values.view(np.complex128).reshape(dim, dim), what)


def _positive_dim(doc: dict[str, Any], key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{key} must be a positive integer")
    return value


def state_document(tau: np.ndarray, dims: tuple[int, int]) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "state",
        "dim_a": dims[0],
        "dim_b": dims[1],
        "matrix": encode_matrix(tau),
    }


def parse_state_document(doc: dict[str, Any]) -> tuple[np.ndarray, tuple[int, int]]:
    _check_header(doc, "state")
    da = _positive_dim(doc, "dim_a")
    db = _positive_dim(doc, "dim_b")
    return decode_matrix(doc["matrix"], da * db), (da, db)


def _diagnostics_payload(report: CptpReport) -> dict[str, Any]:
    return {
        "cp": report.cp,
        "tp": report.tp,
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
        "trace_residual": report.trace_residual,
    }


def channel_document(e: SuperOp, diagnostics: CptpReport | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "channel",
        "dim_in": e.dim_in,
        "dim_out": e.dim_out,
        "choi": encode_matrix(e.choi),
    }
    if diagnostics is not None:
        doc["diagnostics"] = _diagnostics_payload(diagnostics)
    return doc


def parse_channel_document(doc: dict[str, Any]) -> SuperOp:
    _check_header(doc, "channel")
    din = _positive_dim(doc, "dim_in")
    dout = _positive_dim(doc, "dim_out")
    return SuperOp(din, dout, decode_matrix(doc["choi"], din * dout, "choi"))


def process_document(process: Process) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "process",
        "dim_in": process.channel.dim_in,
        "dim_out": process.channel.dim_out,
        "choi": encode_matrix(process.channel.choi),
        "input_state": encode_matrix(process.input_state),
    }


def parse_process_document(doc: dict[str, Any]) -> Process:
    _check_header(doc, "process")
    din = _positive_dim(doc, "dim_in")
    dout = _positive_dim(doc, "dim_out")
    channel = SuperOp(din, dout, decode_matrix(doc["choi"], din * dout, "choi"))
    return Process(channel=channel, input_state=decode_matrix(doc["input_state"], din, "input_state"))


def ensemble_document(ensemble: ProductEnsemble) -> dict[str, Any]:
    da, db = ensemble.dims
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "dim_a": da,
        "dim_b": db,
        "weights": ensemble.weights.tolist(),
        "states_a": [encode_matrix(s) for s in ensemble.states_a],
        "states_b": [encode_matrix(s) for s in ensemble.states_b],
    }


def parse_ensemble_document(doc: dict[str, Any]) -> ProductEnsemble:
    _check_header(doc, "ensemble")
    da = _positive_dim(doc, "dim_a")
    db = _positive_dim(doc, "dim_b")
    weights = doc["weights"]
    w = _nested_floats(weights, (len(weights),)) if isinstance(weights, list) else None
    if w is None:
        raise ValueError("weights must be an array of numbers that fit a float")
    _require_finite(w, "weights")
    for key in ("states_a", "states_b"):
        if not isinstance(doc[key], list) or len(doc[key]) != len(w):
            raise ValueError(f"{key} must list one matrix per weight")
    states_a = tuple(decode_matrix(s, da, f"states_a[{i}]") for i, s in enumerate(doc["states_a"]))
    states_b = tuple(decode_matrix(s, db, f"states_b[{i}]") for i, s in enumerate(doc["states_b"]))
    return ProductEnsemble(weights=w, states_a=states_a, states_b=states_b)


def correlations_document(corr: CorrelationTable) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "correlations",
        "qubits": corr.qubits,
        "table": corr.table.tolist(),
    }


def _table_error(table: Any, size: int) -> str:
    """Name the first malformed row of a table that :func:`_nested_floats` rejected."""
    if isinstance(table, list) and len(table) == size:
        for i, row in enumerate(table):
            if not isinstance(row, list) or len(row) != size or not _all_are(row, (int, float)):
                return f"incomplete table: row {i} must hold {size} numbers"
            if _nested_floats(row, (size,)) is None:
                return f"table row {i} holds a number out of range for a float"
    return f"incomplete table: expected {size} rows"


def parse_correlations_document(doc: dict[str, Any]) -> CorrelationTable:
    _check_header(doc, "correlations")
    qubits = _positive_dim(doc, "qubits")
    table = doc["table"]
    rows = len(table) if isinstance(table, list) else 0
    if 2 * qubits >= rows.bit_length():  # 4**qubits > rows, told without building 4**qubits
        raise ValueError(f"incomplete table: {qubits} qubits need 4^{qubits} rows, got {rows}")
    size = 4**qubits
    values = _nested_floats(table, (size, size))
    if values is None:
        raise ValueError(_table_error(table, size))
    return CorrelationTable(qubits=qubits, table=_require_finite(values, "table"))


def _side_payload(report: CompatibilityReport) -> dict[str, Any]:
    return {
        "compatible": report.compatible,
        "test_min_eigenvalue": report.test_min_eigenvalue,
        "choi_min_eigenvalue": report.cptp.choi_min_eigenvalue,
        "trace_residual": report.cptp.trace_residual,
        "reconstruction_residual": report.reconstruction_residual,
        "faithful_marginal": report.faithful_marginal,
        "boundary": report.boundary,
    }


def report_document(result: CertificationResult) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "tolerance": result.side_a.tolerance,
        "ppt": result.ppt,
        "ppt_min_eigenvalue": result.ppt_min_eigenvalue,
        "sides": {"a": _side_payload(result.side_a), "b": _side_payload(result.side_b)},
    }


def load_document(path: str | Path, kind: str | None = None) -> dict[str, Any]:
    """Read and header-validate a JSON document from disk."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # json.loads recurses once per nesting level
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    _check_header(doc, kind)
    return doc


def dump_document(doc: dict[str, Any], path: str | Path | None = None) -> str:
    """Serialize a document; write it to ``path`` when given, always return the text.

    Each top-level field is written on its own line and its value on one line,
    so the whole text comes from json's C encoder (``indent`` would select the
    pure-Python one).
    """
    fields = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    text = "{\n" + fields + "\n}"
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text
