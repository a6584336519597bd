"""tempcert benchmark: four closed-loop workloads timed from outside the library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each run is one process and one closed loop: it generates the workload's
inputs from the seed (set-up, repeated before and after the timed loop and
reported as ``setup_s``), makes one warm-up call, then cycles through the
workload's items, one call at a time, until ``--seconds`` have passed and
every item has run at least once.  Every output is checked.  Times are
reported paced: scaled by a reference kernel timed between calls, so that the
host's drift cancels (see ``pace.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment record and the
per-workload detail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half with every public tempcert
function wrapped (see ``tracing.py``), and reports the per-layer metrics,
including the tracing overhead measured between the two halves.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOAD_NAMES = ("dense", "population", "pauli", "cli")
# Set-up runs in two batches, before and after the timed loop, so that one
# burst of interference on the host cannot cover all of it.  Each batch runs
# at least SETUP_MIN times and until SETUP_SECONDS have passed (at most
# SETUP_MAX times); the median over both batches is reported.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 0.5
BLAS_THREADS = 1  # pinned for steadier timings on a shared machine; at most nproc
MMAP_THRESHOLD = 32 << 20
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

_clock = time.perf_counter

# Per-layer metrics read from the traced half: self time per pass.
SELF_TIMED = (
    "temporal.dephasing_channel",
    "channels.apply_to_factor",
    "operators.partial_transpose",
    "temporal.temporal_channel",
    "channels.is_cptp",
    "operators.require_hermitian",
    "retrodiction.bayesian_inverse",
    "ensembles.assemble_state",
    "sot.correlations_from_process",
    "sot.pdm_from_correlations",
    "documents.encode_matrix",
    "documents.dump_document",
    "documents.load_document",
    "documents.decode_matrix",
    "linalg.eigh",
    "linalg.eigvalsh",
)
# Exact call counts per pass.
COUNTED = (
    "operators.require_hermitian",
    "operators.sqrt_pinv",
    "operators.partial_trace",
    "sot.two_time_expectation",
    "sot.pauli_string",
    "linalg.eigh",
    "linalg.eigvalsh",
)
LAYERS = (
    "operators", "channels", "temporal", "sot", "retrodiction",
    "ensembles", "documents", "cli", "linalg", "bench",
)  # fmt: skip


def _pin_malloc() -> str:
    """Fix glibc's large-allocation policy at its steady state.

    By default glibc raises its mmap threshold each time a large block is
    freed, so whether a 5 MB temporary costs fresh page faults depends on what
    ran before; the dense stages' times then drift by a factor of two within a
    process.  Fixing the threshold at glibc's own ceiling (32 MiB, with the
    matching 64 MiB trim threshold) makes every run see that steady state.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if libc.mallopt(m_mmap_threshold, MMAP_THRESHOLD) and libc.mallopt(m_trim_threshold, 2 * MMAP_THRESHOLD):
        return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={2 * MMAP_THRESHOLD}"
    return "default"


def _environment(seed: int, malloc: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "malloc": malloc,
        "machine": platform.machine(),
        "seed": seed,
    }


@dataclass
class Loop:
    """What one timed loop measured."""

    times: list[list[float]]  # per item, one entry per repetition
    spans: list[list[tuple[float, float]]]  # per item, (start, end) of each repetition
    stats: list[list[dict]]  # per item span statistics, traced loops only
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # after the first pass, so later passes cannot move it


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _paced(loop: Loop, pace) -> list[list[float]]:
    """Each repetition's time, scaled by the host's pace around it."""
    return [[t * pace.factor(*span) for t, span in zip(ts, spans)] for ts, spans in zip(loop.times, loop.spans)]


def _run_loop(workload, seconds: float, pace, rec=None, root_id: int = 0) -> Loop:
    """Cycle through the items for ``seconds``, running each at least once.

    After the first pass an item whose last time would overrun the deadline
    is skipped, so the time left goes to the items that still fit, and the
    loop ends when the cheapest item no longer fits.
    """
    import tempcert as tc

    items = workload.items
    loop = Loop([[] for _ in items], [[] for _ in items], [[] for _ in items])
    deadline = _clock() + seconds
    cheapest = 0.0
    k = 0
    while True:
        i = k % len(items)
        item = items[i]
        k += 1
        if k > len(items):
            now = _clock()
            if now + cheapest > deadline:
                break
            if now + loop.times[i][-1] > deadline:
                continue
        exc = None
        pace.tick()
        if rec is not None:
            counters = (rec.bytes_written, rec.bytes_read, rec.choi_bytes)
            first = rec.open(root_id)
        t0 = _clock()
        try:
            result = item.call()
        except Exception as e:  # every failing call is counted, never hidden
            exc = e
        t1 = _clock()
        if rec is not None:
            rec.close(first)
            st = rec.op_stats(first, item.dims)
            st["bytes_written"] = rec.bytes_written - counters[0]
            st["bytes_read"] = rec.bytes_read - counters[1]
            st["choi_bytes"] = rec.choi_bytes - counters[2]
            st["mismatch"] = int(isinstance(exc, tc.VerdictMismatchError))
            loop.stats[i].append(st)
        loop.times[i].append(t1 - t0)
        loop.spans[i].append((t0, t1))
        loop.attempted += 1
        if exc is None:
            try:
                item.check(result)
            except Exception as e:
                exc = e
        if exc is not None:
            loop.failures.append(f"{item.group}: {type(exc).__name__}: {exc}")
        if k == len(items):
            loop.peak_rss_mb = _peak_rss_mb()
            cheapest = min(t[0] for t in loop.times)
    pace.sample()
    return loop


def _set_up(build, seed: int, workdir: Path, pace):
    """Build the workload repeatedly; return the last build and every paced build time."""
    times: list[float] = []
    spans: list[tuple[float, float]] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        pace.tick()
        t0 = _clock()
        workload = build(seed, workdir)
        t1 = _clock()
        times.append(t1 - t0)
        spans.append((t0, t1))
    pace.sample()
    return workload, [t * pace.factor(*span) for t, span in zip(times, spans)]


def _run_ill_conditioned(workload) -> dict:
    """Run the ill-conditioned instances once and count how many miss."""
    import tempcert as tc

    failed = mismatch = 0
    for item in workload.ill_conditioned:
        try:
            item.check(item.call())
        except Exception as e:
            failed += 1
            mismatch += isinstance(e, tc.VerdictMismatchError)
    total = len(workload.ill_conditioned) + len(workload.items)
    return {
        "attempted": len(workload.ill_conditioned),
        "failed": failed,
        "verdict_mismatch": mismatch,
        "share": len(workload.ill_conditioned) / total,
        "failed_frac": failed / total,
    }


def _middle(paced: list[float]) -> int:
    """Index of the repetition at the median rank (the lower one of two)."""
    return sorted(range(len(paced)), key=paced.__getitem__)[(len(paced) - 1) // 2]


def _timing_summary(workload, loop: Loop, paced: list[list[float]]) -> dict:
    """One pass of the workload, each item at the median of its paced repetitions.

    The host's drift is removed by pacing; the median then takes out the
    short stalls that pacing, sampled between calls, cannot see.  The latency
    percentiles are taken across the items of one pass.
    """
    import numpy as np

    per_item = [statistics.median(p) for p in paced]
    total = sum(per_item)
    p50, p99 = np.percentile(per_item, [50, 99])
    groups: dict[str, float] = {}
    for item, t in zip(workload.items, per_item):
        groups[item.group] = groups.get(item.group, 0.0) + t
    return {
        "pass_s": total,
        "pass_s_unpaced": sum(statistics.median(t) for t in loop.times),
        "ops_per_s": len(workload.items) / total,
        "op_p50_ms": float(p50) * 1e3,
        "op_p99_ms": float(p99) * 1e3,
        "percentile_samples": len(per_item),
        "samples_beyond_p99": int(np.count_nonzero(np.asarray(per_item) > p99)),
        "repetitions_median": statistics.median([len(t) for t in paced]),
        "calls_timed": sum(len(t) for t in paced),
        "passes": sum(len(t) for t in paced) / len(workload.items),
        "groups": groups,
    }


# Workload-specific end-to-end figures, each the summed paced median time of
# the named items in one pass.
NAMED = {
    "dense": {"certify_16x16_s": "16x16", "certify_12x16_s": "12x16"},
    "pauli": {"pauli_q1_s": "q1", "pauli_q2_s": "q2", "pauli_q3_s": "q3"},
    "cli": {"cli_certify_s": "certify", "cli_channel_s": "channel", "cli_pdm_s": "pdm", "cli_expect_s": "expect"},
    "population": {},
}


def _layer_metrics(traced: Loop, paced: list[list[float]], untraced_pass: float, traced_pass: float) -> dict:
    """Per-pass per-layer figures.

    Self times are measured seconds of each item's traced repetition at the
    median rank of its paced times, so they add up to ``trace.wall_s``, the
    measured time of those repetitions.  Counts come from the first pass and
    repeat exactly.  The overhead compares the paced traced and untraced
    pass times.
    """
    chosen = [_middle(p) for p in paced]
    middle = [reps[k] for k, reps in zip(chosen, traced.stats)]
    traced_wall = sum(t[k] for k, t in zip(chosen, traced.times))
    self_s: dict[str, float] = {}
    for st in middle:
        for n, v in st["self_s"].items():
            self_s[n] = self_s.get(n, 0.0) + v
    first = [reps[0] for reps in traced.stats]

    def total(key):
        return sum(st[key] for st in first)

    def calls(name):
        return sum(st["calls"].get(name, 0) for st in first)

    certify = total("certify")
    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(v for n, v in self_s.items() if n.split(".")[0] == layer), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (calls(name), "count")
    per_certify = (lambda x: x / certify) if certify else (lambda x: 0.0)
    m["temporal.is_ppt.calls"] = (per_certify(sum(st["ppt_in_certify"] for st in first)), "calls/certify")
    m["linalg.eigensolves_full.calls"] = (per_certify(total("eig_full")), "calls/certify")
    m["linalg.eigensolves_marginal.calls"] = (per_certify(total("eig_marginal")), "calls/certify")
    m["temporal.certify.calls"] = (certify, "count")
    m["temporal.verdict_mismatch.count"] = (total("mismatch"), "count")
    m["temporal.dephasing_channel.choi_bytes"] = (total("choi_bytes"), "bytes_computed")
    m["documents.bytes_written"] = (total("bytes_written"), "bytes")
    m["documents.bytes_read"] = (total("bytes_read"), "bytes")
    covered = sum(st["covered_s"] for st in middle)
    m["trace.covered_frac"] = (covered / traced_wall, "fraction")
    m["trace.self_sum_s"] = (sum(self_s.values()), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace_overhead_frac"] = (traced_pass / untraced_pass - 1.0, "fraction")
    return m


def _counts_repeat(stats) -> bool:
    """Call counts of every repeated item equal those of its first repetition."""
    keys = ("calls", "eig_full", "eig_marginal", "choi_bytes", "bytes_written", "bytes_read", "mismatch")
    return all(all(st[k] == reps[0][k] for k in keys) for reps in stats for st in reps[1:])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "tempcert" / "__init__.py").is_file():
        print(f"error: no tempcert sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    malloc = _pin_malloc()
    sys.path.insert(0, str(src))
    import tempcert
    import tempcert.cli  # noqa: F401  (bound before the tracer wraps the namespaces)
    import tempcert.documents  # noqa: F401

    if not Path(tempcert.__file__).resolve().is_relative_to(src):
        print(f"error: imported tempcert from {tempcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    import pace as pacing
    import tracing
    import workloads

    env = _environment(seed, malloc)
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    try:
        pace = pacing.Pace()
        workload, setup = _set_up(workloads.WORKLOADS[name], seed, workdir, pace)
        try:
            workload.items[0].call()  # warm-up
        except Exception:
            pass  # the same call runs, and is counted and checked, in the loop

        detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env}
        detail["setup_s"] = setup
        detail["inputs_sha256"] = workloads.fingerprint(workload)
        if not trace:
            loop = _run_loop(workload, seconds, pace)
            attempted, failures = loop.attempted, loop.failures
            summary = _timing_summary(workload, loop, _paced(loop, pace))
            named = {k: summary["groups"][g] for k, g in NAMED[name].items()}
            detail.update(summary=summary, named=named)
        else:
            rec = tracing.Recorder()
            root_id = rec.name_id(tracing.ROOT)
            plain = _run_loop(workload, seconds / 2, pace)
            with tracing.Instrumentation(rec, tempcert):
                traced = _run_loop(workload, seconds / 2, pace, rec, root_id)
            attempted, failures = plain.attempted + traced.attempted, plain.failures + traced.failures
            traced_paced = _paced(traced, pace)
            untraced_summary = _timing_summary(workload, plain, _paced(plain, pace))
            traced_summary = _timing_summary(workload, traced, traced_paced)
            metrics = _layer_metrics(traced, traced_paced, untraced_summary["pass_s"], traced_summary["pass_s"])
            detail.update(untraced=untraced_summary, traced=traced_summary, counts_repeat=_counts_repeat(traced.stats))
            rec.save(OUT / f"trace-{name}-seed{seed}.npz", env)
            detail["spans"] = len(rec.name)
        if workload.ill_conditioned:
            detail["ill_conditioned"] = ill = _run_ill_conditioned(workload)
            if trace:
                # Counted as part of a pass here, so the open defect shows.
                value, unit = metrics["temporal.verdict_mismatch.count"]
                metrics["temporal.verdict_mismatch.count"] = (value + ill["verdict_mismatch"], unit)
        setup += _set_up(workloads.WORKLOADS[name], seed, workdir, pace)[1]
        detail["pace"] = pace.summary()
        if not trace:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (summary["pass_s"], "s"),
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "op_p50_ms": (summary["op_p50_ms"], "ms"),
                "op_p99_ms": (summary["op_p99_ms"], "ms"),
                "peak_rss_mb": (loop.peak_rss_mb, "MB"),
            }
        detail["failed_frac"] = len(failures) / attempted
        detail["failures"] = failures[:5]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = {k: (v, u) for k, (v, u) in metrics.items()}
    if not trace:
        shown.update({k: (v, "s") for k, v in detail["named"].items()})
        shown["percentile_samples"] = (detail["summary"]["percentile_samples"], "count")
    shown["failed_frac"] = (detail["failed_frac"], "fraction")
    if "ill_conditioned" in detail:
        shown["ill_conditioned.failed_frac"] = (detail["ill_conditioned"]["failed_frac"], "fraction")
    for key, (value, unit) in shown.items():
        print(f"{name:<11} {key:<40} {value:>16.6g} {unit}")
    print(json.dumps({"perfbench": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a process of its own, so no peak memory is inherited."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
