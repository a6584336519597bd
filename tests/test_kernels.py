"""Properties of the Choi-contraction kernels against Kraus sums, and the guard on their cost.

``apply`` is the one contraction kernel: ``apply_to_factor`` and ``compose``
run it on block stacks.  Each is checked against ``sum_k K X K^dag`` built from
an independent Kraus set, on asymmetric dims and stacks with leading axes.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import rank_deficient_separable
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tempcert as tc
from tempcert.cli import _bloch_points
from tempcert.operators import _pairings

DIMS = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda d: d[0] != d[1])
SEEDS = st.integers(0, 2**32 - 1)
LEADING = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def kraus_set(rng: np.random.Generator, dim_out: int, dim_in: int) -> list[np.ndarray]:
    """One to three operators of shape (dim_out, dim_in); no CPTP constraint, the maps are linear."""
    return [complex_normal(rng, (dim_out, dim_in)) / np.sqrt(dim_in) for _ in range(rng.integers(1, 4))]


def kraus_sum(ops: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``sum_k K X K^dag`` on the last two axes of ``x``."""
    return sum(k @ x @ k.conj().T for k in ops)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=DIMS, lead=LEADING, seed=SEEDS)
    def test_apply_is_the_kraus_sum(self, dims, lead, seed):
        dim_in, dim_out = dims
        rng = np.random.default_rng(seed)
        ops = kraus_set(rng, dim_out, dim_in)
        x = complex_normal(rng, lead + (dim_in, dim_in))
        got = tc.apply(tc.from_kraus(ops), x)
        assert got.shape == lead + (dim_out, dim_out)
        np.testing.assert_allclose(got, kraus_sum(ops, x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["a", "b"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=DIMS, other=st.integers(1, 4), seed=SEEDS)
    def test_apply_to_factor_is_the_kraus_sum_on_one_factor(self, side, dims, other, seed):
        dim_in, dim_out = dims
        rng = np.random.default_rng(seed)
        ops = kraus_set(rng, dim_out, dim_in)
        one = np.eye(other)
        t = complex_normal(rng, (dim_in * other, dim_in * other))
        if side == "a":
            got = tc.apply_to_factor(tc.from_kraus(ops), t, (dim_in, other), "a")
            want = kraus_sum([np.kron(k, one) for k in ops], t)
        else:
            got = tc.apply_to_factor(tc.from_kraus(ops), t, (other, dim_in), "b")
            want = kraus_sum([np.kron(one, k) for k in ops], t)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=DIMS, dim_last=st.integers(1, 5), seed=SEEDS)
    def test_compose_is_the_product_kraus_set(self, dims, dim_last, seed):
        dim_in, dim_mid = dims
        rng = np.random.default_rng(seed)
        inner = kraus_set(rng, dim_mid, dim_in)
        outer = kraus_set(rng, dim_last, dim_mid)
        got = tc.compose(tc.from_kraus(outer), tc.from_kraus(inner))
        assert (got.dim_in, got.dim_out) == (dim_in, dim_last)
        want = tc.from_kraus([f @ e for f in outer for e in inner])
        np.testing.assert_allclose(got.choi, want.choi, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=DIMS, seed=SEEDS)
    def test_superoperator_matrix_acts_on_row_major_vectors(self, dims, seed):
        dim_in, dim_out = dims
        rng = np.random.default_rng(seed)
        e = tc.from_kraus(kraus_set(rng, dim_out, dim_in))
        x = complex_normal(rng, (dim_in, dim_in))
        np.testing.assert_allclose(
            tc.superoperator_matrix(e) @ x.ravel(), tc.apply(e, x).ravel(), rtol=0, atol=1e-12
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 4), l=st.integers(1, 4), d=st.integers(1, 5), hermitian=st.booleans(), seed=SEEDS)
    @example(k=1, l=1, d=3, hermitian=False, seed=0)
    def test_pairings_are_traces_of_products(self, k, l, d, hermitian, seed):
        # Tr[a_s b_t] for every pair, on general complex stacks: the kernel must not assume b is Hermitian.
        rng = np.random.default_rng(seed)
        a, b = complex_normal(rng, (k, d, d)), complex_normal(rng, (l, d, d))
        if hermitian:
            a, b = a + a.conj().transpose(0, 2, 1), b + b.conj().transpose(0, 2, 1)
        want = np.array([[np.trace(x @ y) for y in b] for x in a])
        got = _pairings(a, b)
        assert got.shape == (k, l)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * d)


def _swap(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The factor exchange written out, independent of ``operators._oriented``."""
    da, db = dims
    return t.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), dim_out=st.integers(1, 4), seed=SEEDS)
@example(dims=(1, 4), dim_out=3, seed=0)
@example(dims=(5, 1), dim_out=1, seed=1)
@example(dims=(3, 3), dim_out=2, seed=2)
def test_factor_operations_match_their_per_side_forms(dims, dim_out, seed):
    # Every factor operation is written once, for the factor placed first by operators._oriented.  The
    # per-side forms it replaced are the oracles, on non-Hermitian inputs, to the last bit.
    da, db = dims
    rng = np.random.default_rng(seed)
    t = complex_normal(rng, (da * db, da * db))
    r = t.reshape(da, db, da, db)
    assert np.array_equal(tc.partial_trace(t, dims, "b"), np.einsum("axbx->ab", r))
    assert np.array_equal(tc.partial_trace(t, dims, "a"), np.einsum("axay->xy", r))
    assert np.array_equal(tc.partial_transpose(t, dims, "a"), r.transpose(2, 1, 0, 3).reshape(t.shape))
    assert np.array_equal(tc.partial_transpose(t, dims, "b"), r.transpose(0, 3, 2, 1).reshape(t.shape))
    assert np.array_equal(tc.swap_factors(t, dims), _swap(t, dims))

    # Side b is side a between two factor exchanges.
    f = tc.from_kraus(kraus_set(rng, dim_out, db))
    side_a = tc.apply_to_factor(f, _swap(t, dims), (db, da), "a")
    assert np.array_equal(tc.apply_to_factor(f, t, dims, "b"), _swap(side_a, (dim_out, da)))

    # compose applies the outer map to the blocks of the inner map's Choi matrix at fixed input indices.
    e = tc.from_kraus(kraus_set(rng, db, da))
    ce = e.choi.reshape(da, db, da, db)
    blocks = tc.apply(f, ce.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    assert np.array_equal(tc.compose(f, e).choi, blocks.reshape(da * dim_out, da * dim_out))


def test_kernels_make_no_multi_operand_einsum(monkeypatch):
    # An unoptimized np.einsum over two or more operands does not reach BLAS; every contraction
    # below is a matmul.  Single-operand einsums (the traces in partial_trace) stay allowed.
    # np.tensordot costs a transpose copy and a reshape per call, so the Pauli tables avoid it too.
    calls = []
    original_einsum, original_tensordot = np.einsum, np.tensordot

    def counting(*args, **kwargs):
        if isinstance(args[0], str) and len(args) > 2:
            calls.append(args[0])
        return original_einsum(*args, **kwargs)

    def counting_tensordot(*args, **kwargs):
        calls.append("tensordot")
        return original_tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    monkeypatch.setattr(np, "tensordot", counting_tensordot)
    np.einsum("ij,jk->ik", np.eye(2), np.eye(2))
    np.tensordot(np.eye(2), np.eye(2), axes=1)
    assert calls == ["ij,jk->ik", "tensordot"]  # the patches are live
    calls.clear()

    rng = np.random.default_rng(12)
    e = tc.random_cptp(3, 2, 2, seed=rng)
    tc.apply(e, complex_normal(rng, (2, 4, 3, 3)))
    tc.apply_to_factor(e, tc.random_density(12, seed=rng), (3, 4), "a")
    tc.apply_to_factor(e, tc.random_density(12, seed=rng), (4, 3), "b")
    tc.compose(tc.random_cptp(2, 4, 2, seed=rng), e)
    tc.pgm_map(tc.random_density(6, seed=rng), (2, 3), "a")
    tc.pgm_map(tc.assemble_state(rank_deficient_separable((3, 2), 2, 4, rng)), (3, 2), "a")
    for q in (1, 2, 3):
        d = 2**q
        p = tc.Process(tc.random_cptp(d, d, 2, seed=rng), tc.random_density(d, seed=rng))
        tc.pdm_from_correlations(tc.correlations_from_process(p, q))
    for stage in ("input", "dephased", "output"):
        _bloch_points(tc.random_density(4, seed=rng), (2, 2), stage, 8, 0)
    assert calls == []

