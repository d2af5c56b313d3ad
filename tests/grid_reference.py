"""The full growth grid: the reference that the tests compare the sweep
``sampler.grow_profile`` with, and the boundary of such a grid."""
from schursample import rules
from schursample.partitions import EMPTY


def run_growth(plan, inputs, order="row_major"):
    """Fill the shape of ``plan`` box by box with the local rules, box (i, j)
    taking the input ``inputs[(i, j)]``, and return the grid {(i, j): tau}.

    Any traversal that respects the coordinatewise partial order grows the
    same grid: ``"row_major"`` fills ``plan.boxes()`` in order, and
    ``"diagonal"`` fills by i + j, which is domino shuffling on Aztec words.
    The kernels are looked up in ``rules.GROW`` on every box, so a test may
    substitute them."""
    if order == "row_major":
        boxes = plan.boxes()
    elif order == "diagonal":
        boxes = sorted(plan.boxes(), key=sum)
    else:
        raise ValueError(f"unknown traversal order {order!r}")
    tau = {}
    get = tau.get
    for i, j in boxes:
        kind = plan.row_kinds[j - 1][i - 1]
        lam, mu, kap = get((i - 1, j), EMPTY), get((i, j - 1), EMPTY), get((i - 1, j - 1), EMPTY)
        tau[(i, j)] = rules.GROW[kind](lam, mu, kap, inputs[(i, j)])
    return tau


def boundary_lambdas(plan, grid):
    """The partitions at the plan's boundary points, lambda(0) first."""
    return tuple(grid.get(pt, EMPTY) for pt in plan.boundary_points())


def truncation_params(params, m):
    """The 2m parameters of ``unbounded.truncation_word(convention, m)``:
    a_{m-1}, ..., a_0, then b_0, ..., b_{m-1}."""
    a, b = params.a, params.b
    return tuple(a[i] for i in range(m - 1, -1, -1)) + tuple(b[j] for j in range(m))


def pyramid_rows(inputs, m):
    """The ``rows[j][i]`` that ``unbounded.grow_pyramidal`` takes, from a
    dict {(i, j): input} over the m x m corner; a box without an entry
    takes input 0."""
    return [[inputs.get((i, j), 0) for i in range(m)] for j in range(m)]
