"""Hand-sized stage template shared by the stage and cut tests.

Three nonnegative variables, two equality rows, two-component target:

    min c(d) @ y   s.t.   y1 + y2 = r1 - w1,   y2 + y3 = r2 - w2.
"""

from dataclasses import dataclass

import numpy as np

from hmpc.lp import VarMap
from hmpc.stage import StageTemplate

W_TOY = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
T_TOY = np.eye(2)


@dataclass(frozen=True)
class TinyData:
    cost: tuple
    rhs: tuple = (5.0, 3.0)

    @property
    def key(self):
        return (self.cost, self.rhs)


def toy_template(matrix=W_TOY):
    n_rows, n_cols = matrix.shape
    return StageTemplate(
        n_cols=n_cols,
        coupling_T=T_TOY[:n_rows],
        cost_builder=lambda d: np.asarray(d.cost, dtype=float),
        rhs_builder=lambda d: np.asarray(d.rhs, dtype=float),
        matrix_builder=lambda d: matrix,
        var_map=VarMap(
            n_orig=n_cols,
            n_eq=n_rows,
            n_ub=0,
            lower=np.zeros(n_cols),
            bound_cols=np.zeros(0, dtype=int),
            objective_offset=0.0,
        ),
        row_tags={},
        col_tags={},
    )
