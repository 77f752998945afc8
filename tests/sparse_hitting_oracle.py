"""General-purpose sparse solve of the hitting system, as a test oracle.

:func:`gwrange.quenched.hit_before_return_oracle` eliminates the harmonic
system leaf-first, which only works because the graph is a tree. This
module keeps the solve that assumes nothing of the sparsity pattern: I - P
assembled over every materialized vertex and factored by a sparse direct
solver. It imports ``scipy.sparse``, which the package itself never does.
"""

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from gwrange.errors import AncestryError
from gwrange.tree import MarkedTree, is_ancestor


def sparse_hit_before_return(tree: MarkedTree, z: int, x: int) -> float:
    """Same probability via the harmonic system h = P h, h(x)=1, h(reflector)=0.

    The system runs over every materialized vertex; at the truncation
    frontier the unmaterialized children contribute a self-loop (the walk
    returns from below with probability one without hitting x, which lies
    in the materialized part). I - P is assembled as a sparse matrix, with
    row x replaced by the boundary condition, and solved once by a sparse
    direct solve.
    """
    tree.require_complete()
    if not is_ancestor(tree, z, x):
        raise AncestryError(f"{z} is not on the ancestral line of {x}")
    n = tree.size
    w = tree.exp_neg_v
    down = np.zeros(n)
    down[tree.gen_offsets[tree.depth] : tree.gen_offsets[tree.depth + 1]] = tree.halo_weight
    kids = np.flatnonzero(tree.parent >= 0)
    par = tree.parent[kids]
    total = w + np.bincount(par, weights=w[kids], minlength=n) + down
    diag = np.arange(n)
    rows = np.concatenate((diag, kids, par))
    cols = np.concatenate((diag, par, kids))
    vals = np.concatenate((1.0 - down / total, -w[kids] / total[kids], -w[kids] / total[par]))
    keep = rows != x
    A = csc_matrix(
        (np.append(vals[keep], 1.0), (np.append(rows[keep], x), np.append(cols[keep], x))),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[x] = 1.0
    return float(spsolve(A, b)[z])
