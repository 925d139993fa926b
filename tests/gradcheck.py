"""Finite-difference gradient checks for the autodiff tests."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from cosmo.autodiff import Tape, Tensor, backward, zero_grads


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor] | dict,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` re-runs the forward pass from the current parameter values; it must
    be deterministic. Error per entry is |a - n| / max(1, |a|, |n|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    plist = list(params.values()) if isinstance(params, dict) else list(params)
    zero_grads(plist)
    with Tape() as tape:
        out = f()
        if not np.isfinite(out.data).all():
            raise FloatingPointError("grad_check: non-finite loss")
        backward(out, tape)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in plist]

    worst = 0.0
    for p, a in zip(plist, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f().data)
            flat[i] = orig - eps
            dn = float(f().data)
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(dn)):
                raise FloatingPointError("grad_check: non-finite loss at probe")
            num = (up - dn) / (2 * eps)
            err = abs(aflat[i] - num) / max(1.0, abs(aflat[i]), abs(num))
            worst = max(worst, err)
    zero_grads(plist)
    return worst
