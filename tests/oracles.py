"""Pointwise and file-format references that the tests compare batlab against.

Each one is the plain, unvectorized form of something batlab computes in
bulk: the tests assert that both give the same numbers.
"""

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from batlab.hydro import CharGrid
from batlab.jets import Jet2
from batlab.residuals import ResidualSample


def sn_polynomial(u: float, v: float, n: int) -> float:
    """Complete homogeneous symmetric polynomial S_n(u, v) at one point:
    S_0 = 1, S_n = u^n + v S_{n-1} (``hydro.sn_polynomial_grid`` on grids)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = 1.0
    for m in range(1, n + 1):
        s = u**m + v * s
    return s


def _abs_permanent(a: np.ndarray) -> float:
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        p = 1.0
        for i, s in enumerate(perm):
            p *= a[i, s]
            if p == 0.0:
                break
        total += p
    return total


def multifield_det(phi1: Jet2, phi2: Jet2, phibar1: Jet2, phibar2: Jet2,
                   j: int) -> ResidualSample:
    """5x5 determinant equation over (x1, x2, x3) for field index j in {1, 2}
    at one point (``residuals.multifield_det_grid`` on batches of nodes).

    Rows 1-2 hold the barred-field gradients, rows 3-5 pair the unbarred
    gradients with the Hessian rows of field j.  The scale is the permanent of
    absolute values.
    """
    for f in (phi1, phi2, phibar1, phibar2):
        if f.k != 3:
            raise ValueError("expected arity 3 jets")
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    hj = (phi1 if j == 1 else phi2).hess
    m = np.zeros((5, 5))
    m[0, 2:] = phibar1.grad
    m[1, 2:] = phibar2.grad
    for r in range(3):
        m[2 + r, 0] = phi1.grad[r]
        m[2 + r, 1] = phi2.grad[r]
        m[2 + r, 2:] = hj[r, :]
    return ResidualSample(float(np.linalg.det(m)), _abs_permanent(np.abs(m)))


def load_char_grid(csv_path) -> CharGrid:
    """Read back a grid written by ``hydro.dump_char_grid`` (CSV plus its
    ``.meta.json`` sidecar)."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text())
    nt, nx = meta["levels"], meta["nodes"]
    u = np.empty((nt, nx))
    v = np.empty((nt, nx))
    t_levels = np.empty(nt)
    x_nodes = np.empty(nx)
    with csv_path.open() as fh:
        reader = csv.reader(fh)
        next(reader)
        for idx, row in enumerate(reader):
            m, i = divmod(idx, nx)
            t_levels[m] = float(row[1])
            x_nodes[i] = float(row[2])
            u[m, i] = float(row[3])
            v[m, i] = float(row[4])
    return CharGrid(t_levels, x_nodes, u, v, meta["h"], meta["dt"], meta["cfl"],
                    meta["bc"])
