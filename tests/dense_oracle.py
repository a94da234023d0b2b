"""Dense reference constructions for tests at small d.

The library is matrix-free; these build the objects it avoids, from
independent pieces: every S_w as a Kronecker product of single-subsystem
matrices (PhasedOperator.matrix), the symplectic Fourier matrix
eta^{v o w} / N from the kernel's index vectors, and each MUB projector as a
product of powers of dense generator matrices. Memory grows as d^4, so keep
them to d <= 27.
"""

import numpy as np

from mubwigner.spins import PhasedOperator, eta, phased_spin


def spin_stack(p, n, vectors):
    """S_w for every row w of `vectors`: shape (N, d, d)."""
    return np.array([PhasedOperator(p, n, tuple(w)).matrix() for w in vectors])


def ft_matrix(kernel):
    """[v, w] = eta^{v o w} / N, with v o w = sum_b v_y w_x - v_x w_y."""
    X, Y = kernel.vectors[:, 0::2], kernel.vectors[:, 1::2]
    return eta(kernel.p) ** ((Y @ X.T - X @ Y.T) % kernel.p) / kernel.N


class DenseKernel:
    """The transforms of one WignerKernel, by dense linear algebra."""

    def __init__(self, kernel):
        self.k = kernel
        self.S = spin_stack(kernel.p, kernel.n, kernel.vectors)
        self.ft = ft_matrix(kernel)

    def traces(self, A):
        return np.einsum("ij,wji->w", A, self.S)

    def combine(self, c):
        return np.tensordot(c, self.S, axes=(0, 0))

    def char_function(self, rho):
        return self.k.phases * self.traces(rho)

    def wigner_from_char(self, chi):
        return self.ft @ chi

    def char_from_wigner(self, W):
        return self.k.N * (self.ft.conj().T @ W)

    def reconstruct_density(self, W):
        chi = self.char_from_wigner(W)
        G_dag = np.conj(self.k.phases[:, None, None] * self.S).transpose(0, 2, 1)
        return np.tensordot(chi, G_dag, axes=(0, 0)) / self.k.dim


def class_generator_ops(geom, alpha):
    """The alpha-corrected generator operators T_r; each satisfies T_r^p = 1."""
    return [phased_spin(geom.p, g, with_alpha=True) for g in geom.generator_sets[alpha].gens]


def mub_projector_matrix(geom, alpha, s):
    """P_alpha(s) = prod_r (1/p) sum_b (eta^{s_r} T_r)^b, from dense powers of
    the Kronecker-product generator matrices."""
    p, d = geom.p, geom.dim
    P = np.eye(d, dtype=complex)
    for r, T in enumerate(class_generator_ops(geom, alpha)):
        Tm = T.matrix()
        acc = np.zeros((d, d), dtype=complex)
        M = np.eye(d, dtype=complex)
        for b in range(p):
            acc += eta(p) ** ((s[r] % p) * b) * M
            M = M @ Tm
        P = P @ (acc / p)
    return P
