"""The solver against a manufactured solution of the equation itself.

u*(t) = eps e^(-rate t) w, with w a fixed solenoidal trigonometric field,
and the pressure pi*(t) = eps e^(-rate t) phi solve

    u' + A u + u . grad u + grad pi = f,   div u = 0,

when f = u*' + A u* + u* . grad u* + grad pi*.  The convection u* . grad u*
is written out as trig products, so the check does not use convective_term:
it tests the convection, the projection (which must send grad pi* to the
pressure), the Duhamel quadrature and the Picard loop against the equation.

With rate = 1 the hold in the Duhamel step is the only error, first order
in time: the nodal error halves with every doubling of the node count,
and, since the data are band-limited, it does not depend on the grid size.
With rate = 0 the forcing is constant in time, which the hold integrates
exactly, so the solve must return u* up to the Picard tolerance.
"""

import math

import numpy as np
import pytest

from gnslab import (
    Grid, SolverConfig, SolverConstants, SpectralField, check_hypotheses, picard_solve,
)

EPS = 1e-2
HORIZON = 0.5
UNIT_CONSTANTS = SolverConstants(1.0, 1.0, 1.0)
H0_2D = dict(m=1.0, n=2, p=2.0, rho=3.0, alpha=1.0)
H0_3D = dict(m=1.0, n=3, p=2.0, rho=4.0, alpha=1.0)
L_3D = 8.0 * math.pi / 3.0  # k0 = 3/4, so N = 32 resolves three dyadic blocks


def _planar(X, Y):
    """w = (d_Y psi, -d_X psi) for psi = sin X sin Y + 1/2 cos 2X sin Y, split
    into its parts on |z|^2 = 2 and |z|^2 = 5, and the convection (w . grad) w,
    all in the scaled coordinates X, Y."""
    a2, b2 = np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)
    a5, b5 = 0.5 * np.cos(2 * X) * np.cos(Y), np.sin(2 * X) * np.sin(Y)
    a, b = a2 + a5, b2 + b5
    a_x = np.cos(X) * np.cos(Y) - np.sin(2 * X) * np.cos(Y)
    a_y = -np.sin(X) * np.sin(Y) - 0.5 * np.cos(2 * X) * np.sin(Y)
    b_x = np.sin(X) * np.sin(Y) + 2.0 * np.cos(2 * X) * np.sin(Y)
    b_y = -np.cos(X) * np.cos(Y) + np.sin(2 * X) * np.cos(Y)
    conv = np.stack([a * a_x + b * a_y, a * b_x + b * b_y])
    return np.stack([a2, b2]), np.stack([a5, b5]), conv


def _manufactured(grid, alpha):
    """Physical w, A w, (w . grad) w and grad phi on the grid.  In 3-D w
    carries a cos Z factor and a zero third component, so it stays
    solenoidal and its convection is cos^2 Z times the planar one."""
    k0 = grid.k0
    X = np.meshgrid(*[k0 * grid.axis_coordinates()] * grid.n, indexing="ij")
    part2, part5, conv = _planar(X[0], X[1])
    lift = 0
    if grid.n == 3:
        c = np.cos(X[2])
        zero = np.zeros((1,) + grid.shape)
        part2 = np.concatenate([c * part2, zero])
        part5 = np.concatenate([c * part5, zero])
        conv = np.concatenate([c**2 * conv, zero])
        lift = 1
    w = part2 + part5
    aw = (k0**2 * (2 + lift)) ** alpha * part2 + (k0**2 * (5 + lift)) ** alpha * part5
    # phi = cos(X + 2Y + Z) in 3-D, cos(X + 2Y) in 2-D
    phase = sum((1, 2, 1)[axis] * X[axis] for axis in range(grid.n))
    grad_phi = np.stack([-(1, 2, 1)[axis] * k0 * np.sin(phase) for axis in range(grid.n)])
    return w, aw, k0 * conv, grad_phi


def _nodal_error(hyp, N, J, L=2.0 * math.pi, rate=1.0):
    """Largest relative L^2 error of the solve over the nodes, and its iteration count."""
    grid = Grid(hyp["n"], N, L)
    cfg = SolverConfig(
        hypothesis=check_hypotheses(**hyp),
        grid=grid,
        horizon=HORIZON,
        time_nodes=J,
        constants=UNIT_CONSTANTS,
    )
    w, aw, conv, grad_phi = _manufactured(grid, hyp["alpha"])
    times = cfg.times()
    forcing = np.stack([
        SpectralField.from_physical(
            grid,
            EPS * math.exp(-rate * t) * (aw - rate * w + grad_phi)
            + EPS**2 * math.exp(-2.0 * rate * t) * conv,
        ).coeffs
        for t in times
    ])
    traj, diag = picard_solve(SpectralField.from_physical(grid, EPS * w), forcing, cfg)
    # the L^2 norm of a band-limited field does not depend on the grid size
    worst = 0.0
    for j, t in enumerate(times):
        exact = SpectralField.from_physical(grid, EPS * math.exp(-rate * t) * w)
        worst = max(worst, (SpectralField(grid, traj.u[j]) - exact).l2_norm() / exact.l2_norm())
    return worst, diag.iterations


@pytest.fixture(scope="module")
def errors_2d():
    return {J: _nodal_error(H0_2D, 64, J)[0] for J in (16, 32, 64, 128)}


def test_solver_is_first_order_in_time(errors_2d):
    orders = [math.log2(errors_2d[J] / errors_2d[2 * J]) for J in (16, 32, 64)]
    assert all(0.9 <= order <= 1.2 for order in orders), orders


def test_error_does_not_depend_on_the_grid(errors_2d):
    fine, _ = _nodal_error(H0_2D, 128, 16)
    assert fine == pytest.approx(errors_2d[16], rel=1e-9)


@pytest.mark.parametrize("hyp, N, L", [(H0_2D, 64, 2.0 * math.pi), (H0_3D, 32, L_3D)],
                         ids=["2d", "3d"])
def test_steady_solution_is_reproduced(hyp, N, L):
    worst, iterations = _nodal_error(hyp, N, 4, L, rate=0.0)
    assert worst < 1e-10
    assert iterations <= 6
