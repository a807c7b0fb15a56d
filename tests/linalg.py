"""Dense linear algebra used only by the tests: basis kets, a unitarity check, and a series exp."""

import numpy as np


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def is_unitary(u: np.ndarray, tol: float = 1e-12) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= tol


def matrix_exp(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated power series for exp(a); adequate for argument norms <= pi/4.

    The cross-check oracle for the entangler, which the engine builds from
    its closed form.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exp needs a square matrix, got {a.shape}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out
