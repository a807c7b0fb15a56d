"""Linear algebra under the engine: move adjoints, the partial trace, and the test-only helpers."""

import cmath
import itertools
import math

import numpy as np
import pytest

from linalg import basis_ket, is_unitary, matrix_exp
from unruhpd.unruh import partial_trace

RNG = np.random.default_rng(20240811)

D1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def random_unit_vector(dim):
    v = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return v / np.linalg.norm(v)


def move_matrix(alpha, theta):
    return np.array(
        [
            [np.exp(1j * alpha) * math.cos(theta / 2), 1j * math.sin(theta / 2)],
            [1j * math.sin(theta / 2), np.exp(-1j * alpha) * math.cos(theta / 2)],
        ]
    )


def brute_force_partial_trace(rho, dims, which):
    """Independent double-index summation over the traced subsystem."""
    keep = [k for k in range(len(dims)) if k != which]
    keep_dims = [dims[k] for k in keep]
    out_dim = math.prod(keep_dims)
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def flat(index, sizes):
        value = 0
        for pos, size in zip(index, sizes):
            value = value * size + pos
        return value

    for row in itertools.product(*(range(d) for d in dims)):
        for col in itertools.product(*(range(d) for d in dims)):
            if row[which] != col[which]:
                continue
            r_keep = flat([row[k] for k in keep], keep_dims)
            c_keep = flat([col[k] for k in keep], keep_dims)
            out[r_keep, c_keep] += rho[flat(row, dims), flat(col, dims)]
    return out


def test_basis_ket_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_ket(4, 4)
    with pytest.raises(ValueError):
        basis_ket(4, -1)


@pytest.mark.parametrize("alpha,theta", [(0.0, 0.0), (0.3, 1.1), (math.pi / 2, math.pi / 2), (5.0, 3.0)])
def test_adjoint_of_move_is_inverse(alpha, theta):
    u = move_matrix(alpha, theta)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12
    assert is_unitary(u)


def test_partial_trace_matches_brute_force_over_region_ii():
    for _ in range(20):
        v = random_unit_vector(8)
        want = brute_force_partial_trace(np.outer(v, v.conj()), [2, 2, 2], which=2)
        assert np.abs(partial_trace(v) - want).max() <= 1e-14


def test_partial_trace_preserves_trace():
    for _ in range(20):
        assert abs(np.trace(partial_trace(random_unit_vector(8))) - 1.0) <= 1e-12


def test_partial_trace_rejects_a_unit_vector_of_the_wrong_size():
    for dim in (4, 16):
        with pytest.raises(ValueError, match=rf"^expected a dim-8 state, got shape \({dim},\)$"):
            partial_trace(random_unit_vector(dim))


def test_partial_trace_rejects_a_vector_that_is_not_normalized():
    with pytest.raises(ValueError, match="^state is not normalized"):
        partial_trace(2.0 * random_unit_vector(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_partial_trace_rejects_a_non_finite_entry(bad):
    v = random_unit_vector(8)
    v[5] = bad
    norm_sq = "nan" if cmath.isnan(bad) else "inf"
    with pytest.raises(ValueError, match=rf"^state is not normalized: \|psi\|\^2 = {norm_sq}$"):
        partial_trace(v)


def test_matrix_exp_zero_is_identity():
    assert np.abs(matrix_exp(np.zeros((3, 3), dtype=complex)) - np.eye(3)).max() <= 1e-15


def test_matrix_exp_of_entangling_generator_closed_form():
    # (D1 x D1)^2 = I, so exp(i a D1xD1) = cos(a) I + i sin(a) D1xD1.
    arg = 1j * (math.pi / 4) * np.kron(D1, D1)
    want = math.cos(math.pi / 4) * np.eye(4) + 1j * math.sin(math.pi / 4) * np.kron(D1, D1)
    assert np.abs(matrix_exp(arg) - want).max() <= 1e-13


@pytest.mark.parametrize("gamma", [0.0, math.pi / 4, math.pi / 2])
def test_matrix_exp_unitary_on_entangling_arguments(gamma):
    u = matrix_exp(1j * (gamma / 2) * np.kron(D1, D1))
    assert is_unitary(u, tol=1e-12)


def test_matrix_exp_requires_at_least_one_term():
    with pytest.raises(ValueError):
        matrix_exp(np.eye(2), terms=0)
