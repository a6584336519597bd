"""Inputs, timed calls and output checks of the four benchmark workloads.

Every workload is a fixed list of items generated from the seed.  An item is
one call into the public API of ``tempcert`` (the timed part) plus a check of
its output, run after the timer stops.  The first successful result of an item
gets the full independent check; later repetitions of the same item must
reproduce that result.

Workloads
---------
dense       single large certifications, where the per-side dense stages
            (dephasing Choi matrix, factor conjugations, 7 full eigensolves)
            dominate.
population  ~1,500 small instances at (2,2)..(4,4), where per-call Python
            work, validation and tiny eigensolves dominate.
pauli       Pauli correlation tables of qubit processes and their inversion,
            where the ``sot`` layer does nearly all the work.
cli         the command line run in process on documents written during
            set-up, where ``documents`` does most of the work.

The population workload also generates the ill-conditioned separable family
(marginal smallest eigenvalue 1e-9, 5% of the instances) that reproduces the
open ``VerdictMismatchError`` defect.  Its instances are run and reported on
every run (``Workload.ill_conditioned``), outside the timed list, so that the
timed workloads have no failing operation.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tempcert as tc
from tempcert import cli, documents

TOL = 1e-9  # certification tolerance, the library default
BOUNDARY = 10 * TOL  # the library's boundary zone, relative to max(1, lambda_max)

# Known-answer margins: no known-answer instance is generated closer than these
# to its threshold, so a boundary flag never fires on one by chance.
WERNER_GAP = 1e-3  # |p - 1/3| >= WERNER_GAP
ISOTROPIC_FACTORS = (0.9, 1.1)  # p = factor / (d + 1)
PPT_MARGIN = 1e-6  # random states count as PPT only with min PT eigenvalue >= this
# Generic marginals are kept either clearly faithful (smallest eigenvalue at
# least FAITHFUL_MIN times the largest) or clearly rank deficient (at most
# KERNEL_MAX times the largest); anything between is resampled.
FAITHFUL_MIN = 1e-6
KERNEL_MAX = 1e-14

# The ill-conditioned family: ROADMAP item 1's reproducer.
ILL_EPS = 1e-9
ILL_NOISE = 1e-15
ILL_EVERY = 20  # one instance in 20, a 5% share

# Reconstruction bound: max|E * rho - tau| <= RECON_TOL * max(1, kappa), where
# kappa is the marginal's condition number on its support.
RECON_TOL = 1e-12
PDM_TOL = 1e-12  # pauli round trip against star_product
CLI_TOL = 1e-12  # documents parsed back against in-process results

POPULATION_SIZE = 1500
POPULATION_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4))
# One cycle of 19 timed families; the ill-conditioned slot makes it 20.
POPULATION_PATTERN = (
    "separable", "random", "bayes", "hermitian", "separable", "werner", "random",
    "bayes", "separable", "hermitian", "separable", "bayes", "random", "separable",
    "werner", "hermitian", "bayes", "separable", "random",
)  # fmt: skip
PAULI_COUNTS = ((1, 4), (2, 8), (3, 2))  # (qubits, processes); medians fall on q=2, p99 on q=3


class Miss(Exception):
    """An output failed its check."""


@dataclass
class Item:
    """One timed call into tempcert and the check of its output."""

    group: str
    dims: tuple[int, int] | None
    call: Callable[[], Any]
    verify: Callable[[Any], Any]  # full check of a first result; returns its signature
    signature: Callable[[Any], Any]  # cheap summary compared on later repetitions
    inputs: Any = field(default=None, repr=False)  # what was generated, for fingerprints and tests
    expected: bool | None = None  # known verdict in both directions, if any
    reference: Any = field(default=None, repr=False)

    def check(self, result: Any) -> None:
        if self.reference is None:
            self.reference = self.verify(result)
        elif not _same(self.signature(result), self.reference):
            raise Miss(f"{self.group}: result differs from the first verified repetition")


@dataclass
class Workload:
    items: list[Item]
    # Run and reported on every run, but kept out of the timed list.
    ill_conditioned: list[Item] = field(default_factory=list)


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))))
    if isinstance(a, float):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))
    return a == b


# --------------------------------------------------------------------------
# Instance generators.  They use numpy and tempcert's random generators only;
# partial traces and transposes are written here, so that generation and the
# checks do not depend on the code under test.


def _hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _ptrace(tau: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    m, n = dims
    r = tau.reshape(m, n, m, n)
    return np.einsum("axbx->ab", r) if keep == "a" else np.einsum("axay->xy", r)


def _conditioning(rho: np.ndarray) -> tuple[float, float]:
    """(smallest / largest eigenvalue, condition number on the support)."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    support = w[w > KERNEL_MAX * w[-1]]
    return float(w[0] / w[-1]), float(w[-1] / support[0])


def _clear_margins(tau: np.ndarray, dims: tuple[int, int]) -> bool:
    """Both marginals are clearly faithful or clearly rank deficient."""
    for keep in ("a", "b"):
        ratio, _ = _conditioning(_ptrace(tau, dims, keep))
        if KERNEL_MAX < ratio < FAITHFUL_MIN:
            return False
    return True


def _min_pt_eigenvalue(tau: np.ndarray, dims: tuple[int, int]) -> float:
    m, n = dims
    pt = tau.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def _local_unitary(tau: np.ndarray, dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    u = np.kron(tc.random_unitary(dims[0], seed=rng), tc.random_unitary(dims[1], seed=rng))
    return u @ tau @ u.conj().T


def isotropic(d: int, p: float) -> np.ndarray:
    """``p |phi+><phi+| + (1 - p) 1/d^2``; compatible both ways iff ``p <= 1/(d+1)``."""
    v = np.eye(d).ravel() / np.sqrt(d)
    return p * np.outer(v, v).astype(complex) + (1 - p) * np.eye(d * d, dtype=complex) / d**2


def random_state(dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    while True:
        tau = tc.random_density(dims[0] * dims[1], seed=rng)
        if _clear_margins(tau, dims):
            return tau


def random_separable(dims: tuple[int, int], rng: np.random.Generator) -> tc.ProductEnsemble:
    while True:
        ens = tc.random_separable(dims[0], dims[1], dims[0] + dims[1], seed=rng)
        if _clear_margins(tc.assemble_state(ens), dims):
            return ens


def rank_deficient_separable(dims: tuple[int, int], rank_a: int, terms: int, rng) -> np.ndarray:
    """Separable state whose first marginal has rank ``rank_a`` exactly."""
    m, n = dims
    basis = tc.random_unitary(m, seed=rng)[:, :rank_a]
    states_a = tuple(basis @ tc.random_density(rank_a, seed=rng) @ basis.conj().T for _ in range(terms))
    states_b = tuple(tc.random_density(n, seed=rng) for _ in range(terms))
    ens = tc.ProductEnsemble(weights=rng.dirichlet(np.ones(terms)), states_a=states_a, states_b=states_b)
    return tc.assemble_state(ens)


def nonpositive_hermitian(dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Trace-one Hermitian operator, not PSD, with the faithful marginals of a random state."""
    m, n = dims
    while True:
        base = random_state(dims, rng)
        h = _hermitian(m * n, rng)
        h = (
            h
            - np.kron(np.eye(m) / m, _ptrace(h, dims, "b"))
            - np.kron(_ptrace(h, dims, "a"), np.eye(n) / n)
            + np.trace(h).real * np.eye(m * n) / (m * n)
        )
        tau = base + 0.5 * h / max(np.max(np.abs(h)), 1.0)
        if np.linalg.eigvalsh(tau)[0] < -1e-3:
            return tau


def werner_p(rng: np.random.Generator) -> float:
    while True:
        p = float(rng.uniform(0.0, 1.0))
        if abs(p - 1 / 3) >= WERNER_GAP:
            return p


def ill_conditioned_separable(rng: np.random.Generator) -> np.ndarray:
    """Separable 3x3 state whose first marginal is faithful with smallest eigenvalue ILL_EPS.

    Every ``rho_{a;t}`` is ``U diag(q0, q1, eps) U^dag`` with one ``U``; the
    ``B`` states and weights are random, and a Hermitian perturbation of size
    ILL_NOISE with vanishing partial traces is added.
    """
    terms = int(rng.integers(2, 6))
    u = tc.random_unitary(3, seed=rng)
    states_a = []
    for _ in range(terms):
        q = rng.dirichlet(np.ones(2)) * (1 - ILL_EPS)
        states_a.append(u @ np.diag([q[0], q[1], ILL_EPS]) @ u.conj().T)
    states_b = tuple(tc.random_density(3, seed=rng) for _ in range(terms))
    ens = tc.ProductEnsemble(weights=rng.dirichlet(np.ones(terms)), states_a=tuple(states_a), states_b=states_b)
    h = _hermitian(9, rng)
    h = h - np.kron(np.eye(3) / 3, _ptrace(h, (3, 3), "b")) - np.kron(_ptrace(h, (3, 3), "a"), np.eye(3) / 3)
    h = h + np.trace(h).real * np.eye(9) / 9
    return tc.assemble_state(ens) + ILL_NOISE * h / np.max(np.abs(h))


def random_process(d_in: int, d_out: int, rng: np.random.Generator) -> tc.Process:
    while True:
        e = tc.random_cptp(d_in, d_out, 2, seed=rng)
        rho = tc.random_density(d_in, seed=rng)
        ratio, _ = _conditioning(tc.apply(e, rho))
        if not KERNEL_MAX < ratio < FAITHFUL_MIN:
            return tc.Process(channel=e, input_state=rho)


# --------------------------------------------------------------------------
# Checks.


def _side_check(report, tau: np.ndarray, dims: tuple[int, int]) -> None:
    """Independent check of one direction: Choi sign and reconstruction."""
    if report.side == "a":
        rho = _ptrace(tau, dims, "a")
        rebuilt = tc.star_product(report.channel, rho)
    else:
        rho = _ptrace(tau, dims, "b")
        rebuilt = tc.reverse_star(report.channel, rho)
    choi = report.channel.choi
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    if abs(w[0]) > BOUNDARY * max(1.0, w[-1]) and (w[0] > 0) != report.compatible:
        raise Miss(f"side {report.side}: verdict {report.compatible} but Choi min eigenvalue {w[0]:.3e}")
    _, kappa = _conditioning(rho)
    residual = float(np.max(np.abs(rebuilt - tau)))
    if residual > RECON_TOL * max(1.0, kappa):
        raise Miss(f"side {report.side}: reconstruction residual {residual:.3e} (kappa {kappa:.3e})")


def _certify_signature(res) -> tuple:
    a, b = res.side_a, res.side_b
    return (
        a.compatible, b.compatible, res.ppt,
        a.test_min_eigenvalue, b.test_min_eigenvalue,
        a.cptp.choi_min_eigenvalue, b.cptp.choi_min_eigenvalue,
    )  # fmt: skip


def certify_item(group: str, tau: np.ndarray, dims: tuple[int, int], expected: bool | None) -> Item:
    """``tc.certify`` on ``tau``; ``expected`` is the known verdict in both directions, if any."""

    def verify(res):
        if expected is not None and (res.side_a.compatible, res.side_b.compatible) != (expected, expected):
            raise Miss(f"{group}: verdicts {res.side_a.compatible}/{res.side_b.compatible}, expected {expected}")
        _side_check(res.side_a, tau, dims)
        _side_check(res.side_b, tau, dims)
        return _certify_signature(res)

    return Item(group, dims, lambda: tc.certify(tau, dims), verify, _certify_signature, tau, expected)


def separable_item(group: str, ens: tc.ProductEnsemble) -> Item:
    """``assemble_state`` then ``certify``: separable, so compatible both ways."""
    dims = ens.dims
    item = certify_item(group, tc.assemble_state(ens), dims, True)
    item.call = lambda: tc.certify(tc.assemble_state(ens), dims)
    item.inputs = ens
    return item


def bayes_item(group: str, process: tc.Process) -> Item:
    dims = (process.channel.dim_in, process.channel.dim_out)
    tau = tc.star_product(process.channel, process.input_state)

    def signature(out):
        channel, report = out
        return (channel is None, report.compatible, report.test_min_eigenvalue, report.cptp.choi_min_eigenvalue)

    def verify(out):
        channel, report = out
        if (channel is None) == report.compatible:
            raise Miss(f"{group}: inverse returned {channel is not None} for verdict {report.compatible}")
        _side_check(report, tau, dims)
        return signature(out)

    return Item(group, dims, lambda: tc.bayesian_inverse(process), verify, signature, process)


def pauli_item(qubits: int, process: tc.Process) -> Item:
    expected = tc.star_product(process.channel, process.input_state)

    def call():
        return tc.pdm_from_correlations(tc.correlations_from_process(process, qubits))

    def verify(r):
        gap = float(np.max(np.abs(r - expected)))
        if gap > PDM_TOL:
            raise Miss(f"q={qubits}: pdm round trip off by {gap:.3e}")
        return r

    return Item(f"q{qubits}", (2**qubits, 2**qubits), call, verify, lambda r: r, process)


# --------------------------------------------------------------------------
# Workloads.


def dense(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    # No (24,24) or (12,24) item: such calls take 2-7 s, and the host's pace,
    # sampled between calls, does not hold over a call that long (see
    # pace.py); their paced times spread by more than the bound allows.
    # (12,16) keeps a case with unequal sides.
    items = [
        certify_item("16x16", random_state((16, 16), rng), (16, 16), None),
        certify_item("12x16", random_state((12, 16), rng), (12, 16), None),
        certify_item("16x16", random_state((16, 16), rng), (16, 16), None),
        certify_item("16x16", random_state((16, 16), rng), (16, 16), None),
        certify_item("16x16", rank_deficient_separable((16, 16), 12, 20, rng), (16, 16), True),
    ]
    for factor in ISOTROPIC_FACTORS:
        tau = _local_unitary(isotropic(16, factor / 17), (16, 16), rng)
        items.append(certify_item("16x16", tau, (16, 16), factor < 1))
    return Workload(items)


def population(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    items, ill = [], []
    uses: dict[str, int] = {}
    for k in range(POPULATION_SIZE):
        if k % ILL_EVERY == ILL_EVERY - 1:
            ill.append(certify_item("ill", ill_conditioned_separable(rng), (3, 3), True))
            continue
        family = POPULATION_PATTERN[(k - k // ILL_EVERY) % len(POPULATION_PATTERN)]
        dims = POPULATION_DIMS[uses.get(family, 0) % len(POPULATION_DIMS)]
        uses[family] = uses.get(family, 0) + 1
        if family == "separable":
            items.append(separable_item(family, random_separable(dims, rng)))
        elif family == "random":
            tau = random_state(dims, rng)
            ppt = _min_pt_eigenvalue(tau, dims) >= PPT_MARGIN
            items.append(certify_item(family, tau, dims, True if ppt else None))
        elif family == "hermitian":
            items.append(certify_item(family, nonpositive_hermitian(dims, rng), dims, None))
        elif family == "werner":
            p = werner_p(rng)
            tau = _local_unitary(isotropic(2, p), (2, 2), rng)
            items.append(certify_item(family, tau, (2, 2), p < 1 / 3))
        else:
            items.append(bayes_item(family, random_process(dims[0], dims[1], rng)))
    return Workload(items, ill)


def pauli(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    pools = {q: [pauli_item(q, random_process(2**q, 2**q, rng)) for _ in range(count)] for q, count in PAULI_COUNTS}
    # Interleave the sizes so that a partial pass keeps the mix.
    items = []
    while any(pools.values()):
        for q in sorted(pools):
            if pools[q]:
                items.append(pools[q].pop(0))
    return Workload(items)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_item(group: str, argv: list[str], out: Path, dims, verify_output: Callable[[Path], None], code) -> Item:
    """``tempcert.cli.main(argv)``; ``code`` returns the expected exit code."""

    def signature(rc):
        return (rc, _digest(out))

    def verify(rc):
        if rc != code():
            raise Miss(f"{group}: exit code {rc}, expected {code()}")
        verify_output(out)
        return signature(rc)

    return Item(group, dims, lambda: cli.main(argv), verify, signature, Path(argv[1]))


def _close(a: np.ndarray, b: np.ndarray, what: str) -> None:
    gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    if gap > CLI_TOL:
        raise Miss(f"{what}: parsed output differs from in-process result by {gap:.3e}")


def _same_report(doc: dict, expected: dict, what: str) -> None:
    if set(doc) != set(expected):
        raise Miss(f"{what}: report fields {sorted(doc)}")
    for key, value in expected.items():
        got = doc[key]
        if isinstance(value, dict):
            _same_report(got, value, what)
        elif isinstance(value, float):
            if abs(got - value) > CLI_TOL * max(1.0, abs(value)):
                raise Miss(f"{what}: {key} = {got!r}, in process {value!r}")
        elif got != value:
            raise Miss(f"{what}: {key} = {got!r}, in process {value!r}")


def check_channel(expected: Callable[[], tc.SuperOp]) -> Callable[[Path], None]:
    """The channel document parses back to the in-process channel and its CPTP verdicts."""

    def check(path: Path) -> None:
        doc = documents.load_document(path, "channel")
        e = expected()
        _close(documents.parse_channel_document(doc).choi, e.choi, "channel")
        cptp = tc.is_cptp(e, TOL)
        if (doc["diagnostics"]["cp"], doc["diagnostics"]["tp"]) != (cptp.cp, cptp.tp):
            raise Miss("channel: diagnostics differ from the in-process CPTP check")

    return check


def cli_workload(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    items = []

    def write(name: str, doc: dict) -> Path:
        path = workdir / name
        documents.dump_document(doc, path)
        return path

    states = {d: random_state((d, d), rng) for d in (16, 8, 12)}
    paths = {d: write(f"state{d}.json", documents.state_document(tau, (d, d))) for d, tau in states.items()}
    for d, side in ((16, "A"), (12, "B")):
        out = workdir / f"channel{d}.json"
        expected = functools.cache(lambda d=d, side=side: tc.temporal_channel(states[d], (d, d), side.lower()))
        argv = ["channel", str(paths[d]), "--side", side, "--out", str(out)]
        items.append(_cli_item("channel", argv, out, (d, d), check_channel(expected), lambda: 0))

    ens = random_separable((4, 4), rng)
    paths["ensemble"] = write("ensemble.json", documents.ensemble_document(ens))
    states["ensemble"] = tc.assemble_state(ens)
    for key in (8, 12, "ensemble"):
        dims = (key, key) if key != "ensemble" else ens.dims
        out = workdir / f"report-{key}.json"
        expected = functools.cache(lambda key=key, dims=dims: tc.certify(states[key], dims, TOL))

        def check_report(path: Path, expected=expected, key=key) -> None:
            _same_report(documents.load_document(path, "report"), documents.report_document(expected()), str(key))

        def code(expected=expected, separable=key == "ensemble") -> int:
            # A separable state is compatible both ways: a known answer.
            return 0 if separable or expected().compatible_both else 2

        argv = ["certify", str(paths[key]), "--json", "--out", str(out)]
        items.append(_cli_item("certify", argv, out, dims, check_report, code))

    process = random_process(4, 4, rng)
    table = tc.correlations_from_process(process, 2)
    corr = write("correlations.json", documents.correlations_document(table))
    out = workdir / "pdm.json"
    pdm_expected = tc.star_product(process.channel, process.input_state)

    def check_pdm(path: Path) -> None:
        r, _ = documents.parse_state_document(documents.load_document(path, "state"))
        _close(r, pdm_expected, "pdm")

    items.append(_cli_item("pdm", ["pdm", str(corr), "--out", str(out)], out, (4, 4), check_pdm, lambda: 0))

    proc = write("process.json", documents.process_document(process))
    out = workdir / "table.json"

    def check_table(path: Path) -> None:
        got = documents.parse_correlations_document(documents.load_document(path, "correlations"))
        _close(got.table, table.table, "expect")

    argv = ["expect", str(proc), "--m", "2", "--out", str(out)]
    items.append(_cli_item("expect", argv, out, (4, 4), check_table, lambda: 0))
    return Workload(items)


def _arrays(inputs: Any):
    if isinstance(inputs, np.ndarray):
        yield inputs
    elif isinstance(inputs, Path):
        yield np.frombuffer(inputs.read_bytes(), dtype=np.uint8)
    elif isinstance(inputs, tc.ProductEnsemble):
        yield inputs.weights
        yield from inputs.states_a
        yield from inputs.states_b
    elif isinstance(inputs, tc.Process):
        yield inputs.channel.choi
        yield inputs.input_state


def fingerprint(workload: Workload) -> str:
    """SHA-256 of every generated input; equal seeds give equal digests."""
    digest = hashlib.sha256()
    for item in workload.items + workload.ill_conditioned:
        for a in _arrays(item.inputs):
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "dense": dense,
    "population": population,
    "pauli": pauli,
    "cli": cli_workload,
}
