"""Linearization of 0-1 product terms: Fortet vs Glover-Woolsey.

Section 4 of the paper contrasts two ways to replace a non-linear
product ``c = a * b`` of 0-1 variables with linear constraints:

**Fortet** (eqs 15-16) — ``c`` must itself be a 0-1 *integer* variable::

    a + b - c <= 1          (forces c = 1 when a = b = 1)
    -a - b + 2c <= 0        (forces c = 0 when either is 0)

**Glover-Woolsey** (eqs 15, 17-18) — ``c`` may be a *continuous*
variable in [0, 1]::

    a + b - c <= 1
    c <= a
    c <= b

Glover's version is tighter: its LP relaxation already confines ``c``
to the convex hull of the product, so branch and bound never needs to
branch on ``c``.  Fortet's version admits fractional ``c`` (e.g.
``a=1, b=0`` allows ``c`` up to 0.5), so ``c`` must be integer and the
relaxation is weaker.  The paper reports a marked runtime difference;
Ablation A in ``scripts/run_experiments.py`` checks the larger integer
search space and reports which rows each method completes.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.ilp.expr import Var
from repro.ilp.model import Model

#: Names accepted by formulation options.
METHODS = ("glover", "fortet")


def check_method(method: str) -> str:
    """Validate a linearization-method name and return it."""
    if method not in METHODS:
        raise ModelError(
            f"unknown linearization method {method!r}; expected one of {METHODS}"
        )
    return method


def product_vars_need_integrality(method: str) -> bool:
    """Whether the product variables must be 0-1 integers.

    True for Fortet (the whole point of Glover's improvement is making
    them continuous).
    """
    return check_method(method) == "fortet"


def add_product_constraints(
    model: Model, a: Var, b: Var, c: Var, method: str, tag: str
) -> None:
    """Constrain ``c`` to equal ``a * b`` using the chosen method.

    The caller is responsible for having created ``c`` with the right
    integrality (see :func:`product_vars_need_integrality`).
    """
    check_method(method)
    model.add(a + b - c <= 1, tag=tag)
    if method == "glover":
        model.add(c <= a, tag=tag)
        model.add(c <= b, tag=tag)
    else:
        if not c.is_integer:
            raise ModelError(
                f"Fortet linearization requires integer product variable, "
                f"got continuous {c.name!r}"
            )
        model.add(-1 * a - b + 2 * c <= 0, tag=tag)
