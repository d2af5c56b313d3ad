"""The boundary of a full growth grid, for the tests that compare the sweep
with ``sampler.run_growth``."""
from schursample.partitions import EMPTY


def boundary_lambdas(plan, grid):
    """The partitions at the plan's boundary points, lambda(0) first."""
    return tuple(grid.get(pt, EMPTY) for pt in plan.boundary_points())


def pyramid_rows(inputs, m):
    """The ``rows[j][i]`` that ``unbounded.grow_pyramidal`` takes, from a
    dict {(i, j): input} over the m x m corner; a box without an entry
    takes input 0."""
    return [[inputs.get((i, j), 0) for i in range(m)] for j in range(m)]
