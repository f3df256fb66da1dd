"""Recompute POINCARE_BALL_REF of workloads.py without using grushin3d.

    python3 bench/poincare_reference.py

Assembles the cell-centred 7-point stencil of -Delta_x - |x|^{2a} d2/dy2
(alpha = 1) on the cells of [-1, 1]^3, n = 32 per axis, whose centres lie
in the ball of radius 0.95.  Dirichlet data sits on the faces next to
inactive or outside cells through odd-reflection ghosts (ghost = -u),
which adds one 1/h^2 (times the weight on the y axis) to the diagonal per
missing neighbour.  The smallest eigenvalue comes from shift-invert
Lanczos on the sparse matrix.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla


def ball_matrix(n=32, radius=0.95, alpha=1.0):
    h = 2.0 / n
    c = -1.0 + (np.arange(n) + 0.5) * h
    X1, X2, Y = np.meshgrid(c, c, c, indexing="ij")
    active = X1**2 + X2**2 + Y**2 < radius**2
    weight = (X1**2 + X2**2) ** alpha
    index = -np.ones(active.shape, dtype=int)
    index[active] = np.arange(active.sum())
    cells = np.argwhere(active)
    size = len(cells)
    diag = np.zeros(size)
    rows, cols, vals = [], [], []
    for axis in range(3):
        coef = weight[active] / h**2 if axis == 2 else np.full(size, 1.0 / h**2)
        for step in (-1, 1):
            nb = cells.copy()
            nb[:, axis] += step
            inside = (nb[:, axis] >= 0) & (nb[:, axis] < n)
            nb = np.clip(nb, 0, n - 1)
            linked = inside & active[nb[:, 0], nb[:, 1], nb[:, 2]]
            # 2u - (neighbour or ghost -u): one coef per side, one more per ghost
            diag += coef * np.where(linked, 1.0, 2.0)
            rows.append(np.flatnonzero(linked))
            cols.append(index[nb[linked, 0], nb[linked, 1], nb[linked, 2]])
            vals.append(-coef[linked])
    off = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size))
    return off + sp.diags(diag)


if __name__ == "__main__":
    lam = sla.eigsh(ball_matrix(), k=1, sigma=0.0, which="LM", tol=1e-14)[0][0]
    print(repr(float(lam)))
