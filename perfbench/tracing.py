"""Span recorder that wraps tempcert's public functions from the outside.

The library has no tracing of its own, so the benchmark replaces every public
function of every ``tempcert`` module, in every module namespace that binds it
(names are imported with ``from .operators import ...``, so one function is
bound in several namespaces), with a wrapper that records a span.  It also
wraps ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``, recording the
matrix size, so that eigensolves can be counted by dimension.

A span is (name, parent, start, end, size).  Spans live in flat arrays while
the run goes on and are written out once, at the end.  A layer's self time is
its span's duration minus the time its child spans cover; children of one
span never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = "bench.op"
LINALG = ("eigh", "eigvalsh")
CERTIFY = "temporal.certify"
PPT = "temporal.is_ppt"

_clock = time.perf_counter


class Recorder:
    """In-memory span store; records only while an operation is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.choi_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, size: int = -1) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def op_stats(self, first: int, dims: tuple[int, int] | None) -> dict:
        """Self times, call counts and eigensolve classes of the spans from ``first`` on.

        ``first`` is the operation's root span.  Eigensolves are classed by
        matrix size against the operation's dims: ``m*n`` is a full-size
        solve, ``m`` or ``n`` a marginal one; only those inside a
        ``temporal.certify`` span are counted, so they can be given per call.
        """
        n = len(self.name) - first
        names = self.names
        certify_id = self._ids.get(CERTIFY, -2)
        ppt_id = self._ids.get(PPT, -2)
        dur = [self.end[first + k] - self.start[first + k] for k in range(n)]
        child = [0.0] * n
        inside = [False] * n
        self_s: Counter = Counter()
        calls: Counter = Counter()
        full = marginal = certify = ppt = 0
        top = 0.0
        for k in range(1, n):
            p = self.parent[first + k] - first
            child[p] += dur[k]
            nid = self.name[first + k]
            inside[k] = inside[p] or nid == certify_id
            if p == 0:
                top += dur[k]
            if nid == certify_id and not inside[p]:
                certify += 1
            if nid == ppt_id and inside[p]:
                ppt += 1
            size = self.size[first + k]
            if size >= 0 and inside[k] and dims is not None:
                if size == dims[0] * dims[1]:
                    full += 1
                elif size in dims:
                    marginal += 1
        for k in range(n):
            name = names[self.name[first + k]]
            self_s[name] += dur[k] - child[k]
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "certify": certify,
            "eig_full": full,
            "eig_marginal": marginal,
            "ppt_in_certify": ppt,
            "covered_s": top,
        }

    def save(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            size=np.frombuffer(self.size, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            env=np.array(repr(env)),
        )


def _span_wrapper(rec: Recorder, fn, name: str, hook=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.stack:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, out)
        return out

    return wrapper


def _linalg_wrapper(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if not rec.stack:
            return fn(a, *args, **kwargs)
        idx = rec.open(nid, int(np.shape(a)[-1]))
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _count_choi(rec: Recorder, args, kwargs, out) -> None:
    # Computed, not measured: the dense m^2 x m^2 complex128 Choi matrix.
    rec.choi_bytes += 16 * out.dim_in**4


def _count_written(rec: Recorder, args, kwargs, out) -> None:
    rec.bytes_written += len(out.encode("utf-8"))


def _count_read(rec: Recorder, args, kwargs, out) -> None:
    path = args[0] if args else kwargs["path"]
    rec.bytes_read += Path(path).stat().st_size


_HOOKS = {
    "temporal.dephasing_channel": _count_choi,
    "documents.dump_document": _count_written,
    "documents.load_document": _count_read,
}


class Instrumentation:
    """Installs the span wrappers into tempcert and numpy, and removes them again."""

    def __init__(self, rec: Recorder, package) -> None:
        self.rec = rec
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _namespaces(self):
        pkg = self.package
        yield pkg
        for attr in sorted(vars(pkg)):
            mod = getattr(pkg, attr)
            if isinstance(mod, types.ModuleType) and mod.__name__.startswith(pkg.__name__ + "."):
                yield mod

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        prefix = self.package.__name__ + "."
        for ns in self._namespaces():
            for attr, obj in sorted(vars(ns).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[id(obj)] = _span_wrapper(self.rec, obj, name, _HOOKS.get(name))
                self._saved.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, _linalg_wrapper(self.rec, fn, f"linalg.{attr}"))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def __enter__(self) -> Instrumentation:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
