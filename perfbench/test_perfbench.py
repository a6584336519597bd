"""Self-tests of the benchmark: inputs, margins, the ill-conditioned family, counts and output.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import tempcert as tc  # noqa: E402

SEEDS = (0, 1, 2)


def test_generation_is_deterministic_per_seed(tmp_path):
    for name, build in wl.WORKLOADS.items():
        first = wl.fingerprint(build(7, tmp_path / f"{name}-a"))
        again = wl.fingerprint(build(7, tmp_path / f"{name}-b"))
        other = wl.fingerprint(build(8, tmp_path / f"{name}-c"))
        assert first == again, name
        assert first != other, name


def _threshold_items(seed: int, tmp_path: Path):
    """Known answers that rest on a threshold: Werner, isotropic and PPT random states."""
    items = [i for i in wl.population(seed, tmp_path).items if i.group in ("werner", "random")]
    items = [i for i in items if i.expected is not None]
    return items + wl.dense(seed, tmp_path).items[-len(wl.ISOTROPIC_FACTORS) :]


@pytest.mark.parametrize("seed", SEEDS)
def test_known_answers_keep_their_margin(seed, tmp_path):
    items = _threshold_items(seed, tmp_path)
    assert any(i.group == "werner" for i in items)
    for item in items:
        # The PT minimum eigenvalue is (1-3p)/4 for Werner states and
        # (1-p)/d^2 - p/d for isotropic ones: at least PPT_MARGIN from zero,
        # 100 times the boundary zone.
        lam = wl._min_pt_eigenvalue(item.inputs, item.dims)
        assert abs(lam) >= wl.PPT_MARGIN, (item.group, lam)
        assert (lam > 0) == item.expected
    for item in items:
        if item.dims == (2, 2):
            result = item.call()
            assert not result.side_a.boundary and not result.side_b.boundary
            assert result.compatible_both == item.expected


@pytest.mark.parametrize("seed", SEEDS)
def test_ill_conditioned_family_keeps_its_share(seed, tmp_path):
    workload = wl.population(seed, tmp_path)
    ill = workload.ill_conditioned
    total = len(ill) + len(workload.items)
    assert total == wl.POPULATION_SIZE
    assert len(ill) / total == pytest.approx(0.05)
    for item in ill:
        w = np.linalg.eigvalsh(wl._ptrace(item.inputs, (3, 3), "a"))
        # Faithful (far above the rank threshold 1e-12 * p_max) but ill-conditioned.
        assert 0.5 * wl.ILL_EPS < w[0] < 2 * wl.ILL_EPS
        assert item.expected is True


def test_generic_marginals_are_clearly_faithful_or_deficient(tmp_path):
    workload = wl.population(0, tmp_path)
    for item in workload.items:
        if isinstance(item.inputs, np.ndarray):
            assert wl._clear_margins(item.inputs, item.dims), item.group


def _traced_counts(seed: int, tmp_path: Path) -> list[dict]:
    workload = wl.population(seed, tmp_path)
    workload.items = workload.items[:60]
    rec = tracing.Recorder()
    with tracing.Instrumentation(rec, tc):
        loop = run._run_loop(workload, 0.0, pace.Pace(), rec, rec.name_id(tracing.ROOT))
    assert not loop.failures
    keys = ("calls", "certify", "eig_full", "eig_marginal", "ppt_in_certify", "choi_bytes", "mismatch")
    return [{k: reps[0][k] for k in keys} for reps in loop.stats]


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    first = _traced_counts(3, tmp_path / "a")
    assert first == _traced_counts(3, tmp_path / "b")
    certify = [c for c in first if c["certify"]]
    assert certify and all(c["eig_full"] == 7 and c["eig_marginal"] == 16 for c in certify)


def test_pace_scales_by_the_samples_around_a_call():
    p = pace.Pace()
    p.at, p.kernel_s = [1.0, 2.0, 3.0], [pace.REF_S, 2 * pace.REF_S, 4 * pace.REF_S]
    assert p.factor(1.5, 1.9) == pytest.approx(2 / 3)  # mean of the samples at 1.0 and 2.0
    assert p.factor(2.1, 2.9) == pytest.approx(1 / 3)
    assert p.factor(1.5, 2.5) == pytest.approx(2 / 5)  # a call spanning a sample uses the next one
    p.at, p.kernel_s = [], []
    p.tick()
    assert len(p.kernel_s) == 1 and p.kernel_s[0] > 0


def test_instrumentation_is_removed():
    before = (tc.certify, tc.temporal.is_ppt, np.linalg.eigh)
    with tracing.Instrumentation(tracing.Recorder(), tc):
        assert tc.certify is not before[0]
        assert tc.temporal.certify is tc.certify  # one wrapper per function
    assert (tc.certify, tc.temporal.is_ppt, np.linalg.eigh) == before


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", "pauli", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_meets_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    detail = json.loads(proc.stdout.splitlines()[-2])["perfbench"]
    assert detail["env"]["blas_threads"] <= detail["env"]["nproc"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
