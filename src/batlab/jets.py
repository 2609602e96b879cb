"""Second-order forward AD.

A ``Jet2`` carries the truncated Taylor data (value, gradient, Hessian) of a
scalar quantity with respect to ``k`` independent variables.  All arithmetic
propagates that data exactly, so PDE residuals evaluated on jets have no
finite-difference error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import JetDomainError

JET_BACKEND = "python"  # recorded in benchmark runs; jets are pure Python with numpy
MAX_ARITY = 6


def _check_arity(k: int) -> None:
    if not 1 <= k <= MAX_ARITY:
        raise ValueError(f"jet arity must be in 1..{MAX_ARITY}, got {k}")


class Jet2:
    """Value, gradient and symmetric Hessian over k variables."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = grad
        self.hess = hess

    @property
    def k(self) -> int:
        return self.grad.shape[0]

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()}, hess={self.hess.tolist()})"

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Jet2):
            if other.k != self.k:
                raise ValueError(f"arity mismatch: {self.k} vs {other.k}")
            return other
        if isinstance(other, (int, float)):
            return constant(float(other), self.k)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        cross = np.outer(self.grad, o.grad)
        # Summing only exactly-symmetric arrays keeps the Hessian symmetric
        # to the last bit (cross alone would break associativity symmetry).
        sym = cross + cross.T
        return Jet2(
            self.value * o.value,
            self.grad * o.value + self.value * o.grad,
            self.hess * o.value + self.value * o.hess + sym,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.value == 0.0:
            raise JetDomainError("div", 0.0)
        q = self.value / o.value
        g = (self.grad - q * o.grad) / o.value
        cross = np.outer(g, o.grad)
        sym = cross + cross.T
        h = (self.hess - q * o.hess - sym) / o.value
        _require_finite("div", q, g, h)
        return Jet2(q, g, h)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            return NotImplemented
        return powc(self, exponent)


def _require_finite(op: str, value: float, grad, hess) -> None:
    if not (math.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise JetDomainError(op, value)


def variable(index: int, value: float, k: int) -> Jet2:
    """Seed jet for independent variable ``index`` of ``k``."""
    _check_arity(k)
    if not 0 <= index < k:
        raise ValueError(f"variable index {index} out of range for arity {k}")
    g = np.zeros(k)
    g[index] = 1.0
    return Jet2(float(value), g, np.zeros((k, k)))


def constant(value: float, k: int) -> Jet2:
    _check_arity(k)
    return Jet2(float(value), np.zeros(k), np.zeros((k, k)))


def from_parts(value: float, grad, hess) -> Jet2:
    """Assemble a jet from raw arrays (e.g. finite-difference data).

    The Hessian is symmetrized; a clearly asymmetric input is rejected.
    """
    g = np.asarray(grad, dtype=float).copy()
    h = np.asarray(hess, dtype=float).copy()
    k = g.shape[0]
    _check_arity(k)
    if h.shape != (k, k):
        raise ValueError(f"hessian shape {h.shape} does not match arity {k}")
    scale = np.abs(h).max() if h.size else 0.0
    if scale > 0.0 and np.abs(h - h.T).max() > 1e-8 * scale:
        raise ValueError("hessian is not symmetric")
    h = 0.5 * (h + h.T)
    j = Jet2(float(value), g, h)
    _require_finite("from_parts", j.value, g, h)
    return j


def _univariate(a: Jet2, op: str, f0: float, f1: float, f2: float) -> Jet2:
    outer = np.outer(a.grad, a.grad)
    g = f1 * a.grad
    h = f2 * outer + f1 * a.hess
    _require_finite(op, f0, g, h)
    return Jet2(f0, g, h)


def exp(a: Jet2) -> Jet2:
    if a.value >= 709.0:
        raise JetDomainError("exp", a.value)
    e = math.exp(a.value)
    return _univariate(a, "exp", e, e, e)


def log(a: Jet2) -> Jet2:
    if a.value <= 0.0:
        raise JetDomainError("log", a.value)
    v = a.value
    return _univariate(a, "log", math.log(v), 1.0 / v, -1.0 / (v * v))


def sin(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _univariate(a, "sin", s, c, -s)


def cos(a: Jet2) -> Jet2:
    s, c = math.sin(a.value), math.cos(a.value)
    return _univariate(a, "cos", c, -s, -c)


def sqrt(a: Jet2) -> Jet2:
    if a.value <= 0.0:
        raise JetDomainError("sqrt", a.value)
    r = math.sqrt(a.value)
    return _univariate(a, "sqrt", r, 0.5 / r, -0.25 / (r * a.value))


def powc(a: Jet2, c) -> Jet2:
    """a**c.  Integer c up to 1000 in magnitude uses repeated multiplication;
    a larger one the closed form.  Both are valid for any base; non-integer c
    requires a positive base."""
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    if isinstance(c, int) and abs(c) <= 1000:
        if c < 0:
            if a.value == 0.0:
                raise JetDomainError("pow", 0.0)
            return constant(1.0, a.k) / powc(a, -c)
        result = constant(1.0, a.k)
        for _ in range(c):
            result = result * a
        # Checked once here rather than in every product: an overflowing
        # power is a singular sample, not an inf or NaN in a report.
        _require_finite("pow", result.value, result.grad, result.hess)
        return result
    v = a.value
    if v <= 0.0 and not isinstance(c, int):
        raise JetDomainError("pow", v)
    try:
        f0, f1, f2 = v**c, c * v ** (c - 1), c * (c - 1) * v ** (c - 2)
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: 0 ** -c
        raise JetDomainError("pow", v) from None
    return _univariate(a, "pow", f0, f1, f2)


FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}
