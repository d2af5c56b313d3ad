"""The boundary of a full growth grid, for the tests that compare the sweep
with ``sampler.run_growth``."""
from schursample.partitions import EMPTY


def boundary_lambdas(plan, grid):
    """The partitions at the plan's boundary points, lambda(0) first."""
    return tuple(grid.get(pt, EMPTY) for pt in plan.boundary_points())
