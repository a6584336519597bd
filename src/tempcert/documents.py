"""JSON document formats for states, channels, processes, ensembles, tables, reports.

Complex numbers are encoded as two-element ``[re, im]`` arrays and matrices as
row-major nested arrays; dimensions are always explicit.  Unknown fields are
rejected so that a document either parses exactly or fails loudly.  Numbers
must be finite JSON numbers (not booleans) that fit a float64.
"""

from __future__ import annotations

import json
import math
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

# kind: (dimension fields in the order they are read, the other required fields, the optional ones)
_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "state": (("dim_a", "dim_b"), ("matrix",), ()),
    "channel": (("dim_in", "dim_out"), ("choi",), ("diagnostics",)),
    "process": (("dim_in", "dim_out"), ("choi", "input_state"), ()),
    "ensemble": (("dim_a", "dim_b"), ("weights", "states_a", "states_b"), ()),
    "correlations": (("qubits",), ("table",), ()),
    "report": ((), ("tolerance", "ppt", "ppt_min_eigenvalue", "sides"), ()),
}


def _document(kind: str, **fields: Any) -> dict[str, Any]:
    """A ``kind`` document: the header, then ``fields`` in the order given, numpy integer dimensions as ints."""
    for key in _KINDS[kind][0]:
        if isinstance(fields[key], np.integer):  # a bool is no np.integer: it stays, for the parsers to reject
            fields[key] = int(fields[key])
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _header(doc: Any, kind: str | None) -> str:
    """The kind of ``doc``, once its header and then its field names are checked against ``_KINDS``."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    actual = doc.get("kind")
    if not isinstance(actual, str) or actual not in _KINDS:
        raise ValueError(f"unknown document kind {actual!r}")
    if kind is not None and actual != kind:
        raise ValueError(f"expected a {kind} document, got kind {actual!r}")
    dims, required, optional = _KINDS[actual]
    required = {"schema_version", "kind", *dims, *required}
    for problem, names in (("unknown", set(doc) - required - set(optional)), ("missing", required - set(doc))):
        if names:
            raise ValueError(f"{problem} fields in {actual} document: {sorted(names)}")
    return actual


def _dims(doc: Any, kind: str) -> tuple[int, ...]:
    """The dimension fields of a ``kind`` document in table order, each a positive int, once its header is checked."""
    keys = _KINDS[_header(doc, kind)][0]
    for key in keys:
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 1:
            raise ValueError(f"{key} must be a positive integer")
    return tuple(doc[key] for key in keys)


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
        if not _all_are(level, list) or not set(map(len, level)) <= {n}:  # an empty level has no lengths
            return None
        level = list(chain.from_iterable(level))
    if not _all_are(level, (int, float)):
        return None
    try:
        return np.array(level, dtype=np.float64).reshape(shape)
    except OverflowError:
        return None


def _first_bad(obj: Any, shape: tuple[int, ...], what: str, where: str) -> str | None:
    """The error naming the first entry at or below ``where``, in row-major order, that breaks ``shape``
    or is not a finite number; ``what`` names the field.  ``None`` when every entry is good."""
    if shape:
        if not isinstance(obj, list):
            return f"{where} must be an array"
        if len(obj) != shape[0]:
            return f"{where} must have {shape[0]} entries"
        children = (_first_bad(x, shape[1:], what, f"{where}[{i}]") for i, x in enumerate(obj))
        return next(filter(None, children), None)
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        return f"{where} must be a number"
    try:
        finite = math.isfinite(obj)
    except OverflowError:
        return f"{where} is out of range for a float"
    return None if finite else f"{what} contains non-finite entries, first at {where}"


def _decoded(obj: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The numeric field ``what`` as a finite array of ``shape``, or a ``ValueError`` naming its first bad entry.

    A field of three or more axes holds complex matrices, decoded from a last ``[re, im]`` axis."""
    values = _nested_floats(obj, shape)
    if values is None or not np.isfinite(values).all():
        raise ValueError(_first_bad(obj, shape, what, what))
    return values.view(np.complex128).reshape(shape[:-1]) if len(shape) > 2 else values


def decode_matrix(obj: Any, dim: int, what: str = "matrix") -> np.ndarray:
    return _decoded(obj, (dim, dim, 2), what)


def state_document(tau: np.ndarray, dims: tuple[int, int]) -> dict[str, Any]:
    return _document("state", dim_a=dims[0], dim_b=dims[1], matrix=encode_matrix(tau))


def parse_state_document(doc: dict[str, Any]) -> tuple[np.ndarray, tuple[int, int]]:
    da, db = _dims(doc, "state")
    return decode_matrix(doc["matrix"], da * db), (da, db)


def _diagnostics_payload(report: CptpReport) -> dict[str, Any]:
    return {
        "cp": report.cp,
        "tp": report.tp,
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
        "trace_residual": report.trace_residual,
    }


def _channel_document(kind: str, e: SuperOp, **fields: Any) -> dict[str, Any]:
    """A ``kind`` document that opens with the dims and Choi matrix of ``e``, then ``fields``."""
    return _document(
        kind,
        dim_in=e.dim_in,
        dim_out=e.dim_out,
        choi=encode_matrix(e.choi),
        **fields,
    )


def _parse_channel(doc: dict[str, Any], kind: str) -> SuperOp:
    din, dout = _dims(doc, kind)
    return SuperOp(din, dout, decode_matrix(doc["choi"], din * dout, "choi"))


def channel_document(e: SuperOp, diagnostics: CptpReport | None = None) -> dict[str, Any]:
    extra = {} if diagnostics is None else {"diagnostics": _diagnostics_payload(diagnostics)}
    return _channel_document("channel", e, **extra)


def parse_channel_document(doc: dict[str, Any]) -> SuperOp:
    return _parse_channel(doc, "channel")


def process_document(process: Process) -> dict[str, Any]:
    return _channel_document("process", process.channel, input_state=encode_matrix(process.input_state))


def parse_process_document(doc: dict[str, Any]) -> Process:
    channel = _parse_channel(doc, "process")
    return Process(channel=channel, input_state=decode_matrix(doc["input_state"], channel.dim_in, "input_state"))


def ensemble_document(ensemble: ProductEnsemble) -> dict[str, Any]:
    return _document(
        "ensemble",
        dim_a=ensemble.dims[0],
        dim_b=ensemble.dims[1],
        weights=ensemble.weights.tolist(),
        states_a=[encode_matrix(s) for s in ensemble.states_a],
        states_b=[encode_matrix(s) for s in ensemble.states_b],
    )


def parse_ensemble_document(doc: dict[str, Any]) -> ProductEnsemble:
    da, db = _dims(doc, "ensemble")
    k = len(doc["weights"]) if isinstance(doc["weights"], list) else 0
    w = _decoded(doc["weights"], (k,), "weights")
    states_a = _decoded(doc["states_a"], (k, da, da, 2), "states_a")
    states_b = _decoded(doc["states_b"], (k, db, db, 2), "states_b")
    return ProductEnsemble(weights=w, states_a=states_a, states_b=states_b)


def correlations_document(corr: CorrelationTable) -> dict[str, Any]:
    return _document("correlations", qubits=corr.qubits, table=corr.table.tolist())


def parse_correlations_document(doc: dict[str, Any]) -> CorrelationTable:
    (qubits,) = _dims(doc, "correlations")
    table = doc["table"]
    rows = len(table) if isinstance(table, list) else 0
    if 2 * qubits >= rows.bit_length():  # 4**qubits > rows, told without building 4**qubits
        raise ValueError(f"incomplete table: {qubits} qubits need 4^{qubits} rows, got {rows}")
    return CorrelationTable(qubits=qubits, table=_decoded(table, (4**qubits,) * 2, "table"))


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
    return _document(
        "report",
        tolerance=result.side_a.tolerance,
        ppt=result.ppt,
        ppt_min_eigenvalue=result.ppt_min_eigenvalue,
        sides={"a": _side_payload(result.side_a), "b": _side_payload(result.side_b)},
    )


def load_document(path: str | Path, kind: str | None = None) -> dict[str, Any]:
    """Read and header-validate a JSON document from disk."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # json.loads recurses once per nesting level
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    _header(doc, kind)
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
