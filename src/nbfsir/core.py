"""Model state, parameters, and the coupled susceptible/infected flow.

The model tracks per-node susceptible fractions x and infected
fractions y; removed fractions are the remainder 1 - x - y.  The flow
is

    dx_i/dt = -x_i * (A(x, y) y)_i
    dy_i/dt =  x_i * (A(x, y) y)_i - gamma * y_i

with A the state-dependent interaction matrix.  The feasible set is
{0 <= x, 0 <= y, x + y <= 1} componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelValidityError
from .interaction import InteractionSpec

__all__ = [
    "FEASIBILITY_TOL",
    "EpidemicState",
    "ModelParams",
    "is_feasible",
    "vector_field",
]

FEASIBILITY_TOL = 1e-9


def is_feasible(x, y, tol: float = FEASIBILITY_TOL) -> bool:
    """Membership in the feasible set within slack tol."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = -tol
    return bool(
        np.all(x >= lo) and np.all(y >= lo) and np.all(x + y <= 1.0 + tol)
    )


@dataclass(frozen=True, eq=False)
class EpidemicState:
    """One feasible state; arrays are copied and frozen on construction."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True)
        if x.ndim != 1 or x.shape != y.shape:
            raise ConfigurationError(
                f"state arrays must be 1-D with equal length, got {x.shape} and {y.shape}")
        if not is_feasible(x, y):
            raise ModelValidityError(
                f"state outside the feasible set: x={x.tolist()}, y={y.tolist()}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def z(self) -> np.ndarray:
        """Removed fractions, derived as 1 - x - y."""
        return 1.0 - self.x - self.y


@dataclass(frozen=True)
class ModelParams:
    """Interaction spec plus the recovery rate gamma."""

    gamma: float
    interaction: InteractionSpec

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.interaction.n


def vector_field(params: ModelParams, x: np.ndarray, y: np.ndarray,
                 *, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Raw flow evaluation on state arrays of shape (..., n).  The
    transfer x * (A y) is the interaction's incidence, computed once, so
    dx + dy == -gamma * y exactly, and a state's result does not depend
    on the batch it is in.  The integrator computes the same two
    expressions straight into its stage buffer.

    No feasibility check runs either way, so probe states slightly
    outside the feasible set (finite-difference stencils) are accepted.
    check=True also builds A(x, y), only to raise ModelValidityError on a
    negative entry; check=False skips that.
    """
    v = params.interaction.incidence(x, y, check=check)
    return -v, v - params.gamma * y

