"""A small mixed-integer linear program builder over scipy's HiGHS solver.

The paper solves its query-planning ILP with Gurobi; this wrapper gives the
planner an equivalent declarative interface (named variables, bounded
linear constraints, minimization objective) on top of
:func:`scipy.optimize.milp`, which drives the bundled HiGHS solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.core.errors import PlanningError


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    lower: float
    upper: float


class MilpModel:
    """Incrementally built MILP: minimize c@x subject to lb <= A@x <= ub."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._integrality: list[int] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._objective: dict[int, float] = {}
        self._constraints: list[_Constraint] = []

    # -- variables --------------------------------------------------------
    def add_binary(self, name: str) -> str:
        return self.add_var(name, integer=True, lower=0.0, upper=1.0)

    def add_var(
        self,
        name: str,
        integer: bool = False,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> str:
        if name in self._index:
            raise PlanningError(f"duplicate MILP variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._integrality.append(1 if integer else 0)
        self._lower.append(lower)
        self._upper.append(upper)
        return name

    def has_var(self, name: str) -> bool:
        return name in self._index

    @property
    def n_vars(self) -> int:
        return len(self._names)

    @property
    def n_constraints(self) -> int:
        return len(self._constraints)

    # -- constraints / objective ---------------------------------------------
    def add_constraint(
        self,
        coeffs: dict[str, float],
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> None:
        """Add ``lower <= sum(coeff * var) <= upper``."""
        indexed = {self._index[name]: value for name, value in coeffs.items() if value}
        if not indexed:
            if lower > 0 or upper < 0:
                raise PlanningError("infeasible constant constraint")
            return
        self._constraints.append(_Constraint(indexed, lower, upper))

    def add_equality(self, coeffs: dict[str, float], value: float) -> None:
        self.add_constraint(coeffs, lower=value, upper=value)

    def set_objective(self, coeffs: dict[str, float]) -> None:
        self._objective = {
            self._index[name]: value for name, value in coeffs.items()
        }

    # -- solve ------------------------------------------------------------------
    def solve(self, time_limit: float | None = 60.0, mip_rel_gap: float = 1e-4) -> "MilpSolution":
        c = np.zeros(self.n_vars)
        for index, value in self._objective.items():
            c[index] = value

        constraints = []
        if self._constraints:
            rows, cols, data = [], [], []
            lowers, uppers = [], []
            for i, constraint in enumerate(self._constraints):
                for col, value in constraint.coeffs.items():
                    rows.append(i)
                    cols.append(col)
                    data.append(value)
                lowers.append(constraint.lower)
                uppers.append(constraint.upper)
            matrix = csr_matrix(
                (data, (rows, cols)), shape=(len(self._constraints), self.n_vars)
            )
            constraints.append(
                LinearConstraint(matrix, np.array(lowers), np.array(uppers))
            )

        options: dict[str, float] = {"mip_rel_gap": mip_rel_gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        result = milp(
            c=c,
            integrality=np.array(self._integrality),
            bounds=Bounds(np.array(self._lower), np.array(self._upper)),
            constraints=constraints,
            options=options,
        )
        if result.x is None:
            raise PlanningError(
                f"MILP {self.name!r} failed: {result.message} (status {result.status})"
            )
        values = {name: float(result.x[i]) for i, name in enumerate(self._names)}
        return MilpSolution(
            values=values,
            objective=float(result.fun),
            status=int(result.status),
            message=str(result.message),
        )


@dataclass
class MilpSolution:
    """Solved variable assignment."""

    values: dict[str, float]
    objective: float
    status: int
    message: str

    def value(self, name: str) -> float:
        return self.values[name]

    def binary(self, name: str) -> bool:
        return self.values[name] > 0.5
