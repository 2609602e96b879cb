"""Second-order forward AD.

A ``Jet2`` carries the truncated Taylor data (value, gradient, Hessian) of a
scalar quantity with respect to ``k`` independent variables.  All arithmetic
propagates that data exactly, so PDE residuals evaluated on jets have no
finite-difference error.

A ``JetBatch`` holds the same data for a batch of ``N`` points as arrays
(value ``(N,)``, gradient ``(N, k)``, Hessian ``(N, k, k)``): Taylor-mode AD
over a batch axis.  Its arithmetic repeats ``Jet2``'s operation for operation,
and the values of ``exp``, ``log``, ``sin``, ``cos``, ``sqrt`` and non-integer
powers come point by point from ``math`` through the scalar guards, so every
point of a batch is bit for bit the ``Jet2`` of that point.  A batch operation
that fails raises what ``Jet2`` raises at the first failing point.  The
functions below (:func:`exp` ... :func:`powc`) take either kind of jet.
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

    def _constant(self, value: float) -> "Jet2":
        return constant(value, self.k)

    def _univariate(self, op: str, parts) -> "Jet2":
        """f(self) from ``parts(value) = (f, f', f'')``."""
        f0, f1, f2 = parts(self.value)
        outer = np.outer(self.grad, self.grad)
        g = f1 * self.grad
        h = f2 * outer + f1 * self.hess
        _require_finite(op, f0, g, h)
        return Jet2(f0, g, h)


class JetBatch:
    """Value ``(N,)``, gradient ``(N, k)`` and Hessian ``(N, k, k)`` of N
    jets over the same k variables."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def k(self) -> int:
        return self.grad.shape[1]

    def __repr__(self) -> str:
        return f"JetBatch(value={self.value.tolist()}, k={self.k})"

    def _head(self, n: int) -> "JetBatch":
        """The first n points."""
        return JetBatch(self.value[:n], self.grad[:n], self.hess[:n])

    def _constant(self, value: float) -> "JetBatch":
        n, k = self.grad.shape
        return JetBatch(np.full(n, float(value)), np.zeros((n, k)), np.zeros((n, k, k)))

    # -- arithmetic, as in Jet2 with a leading batch axis ---------------------

    def _coerced(self, other):
        if isinstance(other, JetBatch):
            if other.grad.shape != self.grad.shape:
                raise ValueError(f"batch shape mismatch: {self.grad.shape} vs {other.grad.shape}")
            return other
        if isinstance(other, Jet2):  # the same jet at every point
            if other.k != self.k:
                raise ValueError(f"arity mismatch: {self.k} vs {other.k}")
            n, k = self.grad.shape
            return JetBatch(np.full(n, other.value), np.broadcast_to(other.grad, (n, k)),
                            np.broadcast_to(other.hess, (n, k, k)))
        if isinstance(other, (int, float)):
            return self._constant(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return JetBatch(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return JetBatch(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        cross = self.grad[:, :, None] * o.grad[:, None, :]
        sym = cross + cross.transpose(0, 2, 1)
        return JetBatch(
            self.value * o.value,
            self.grad * o.value[:, None] + self.value[:, None] * o.grad,
            self.hess * o.value[:, None, None] + self.value[:, None, None] * o.hess + sym,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        zero = o.value == 0.0
        if zero.any():
            first = int(zero.argmax())
            self._head(first) / o._head(first)  # raises if an earlier point fails
            raise JetDomainError("div", 0.0)
        q = self.value / o.value
        g = (self.grad - q[:, None] * o.grad) / o.value[:, None]
        cross = g[:, :, None] * o.grad[:, None, :]
        sym = cross + cross.transpose(0, 2, 1)
        h = (self.hess - q[:, None, None] * o.hess - sym) / o.value[:, None, None]
        _require_finite("div", q, g, h)
        return JetBatch(q, g, h)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return JetBatch(-self.value, -self.grad, -self.hess)

    def _univariate(self, op: str, parts) -> "JetBatch":
        """f(self) from ``parts(value) = (f, f', f'')``, called point by point."""
        rows = []
        try:
            for v in self.value.tolist():
                rows.append(parts(v))
        except Exception:
            self._head(len(rows))._apply(op, rows)  # raises if an earlier point fails
            raise
        return self._apply(op, rows)

    def _apply(self, op: str, rows) -> "JetBatch":
        """f(self) from the parts ``rows`` at each point."""
        f0, f1, f2 = np.array(rows, dtype=float).reshape(-1, 3).T
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        g = f1[:, None] * self.grad
        h = f2[:, None, None] * outer + f1[:, None, None] * self.hess
        _require_finite(op, f0, g, h)
        return JetBatch(f0, g, h)


def _require_finite(op: str, value, grad, hess) -> None:
    """JetDomainError(op, value) unless every entry is finite; for a batch, at
    the first point that is not."""
    if isinstance(value, float):
        if not (math.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise JetDomainError(op, value)
        return
    bad = ~(np.isfinite(value) & np.isfinite(grad).all(axis=1)
            & np.isfinite(hess).all(axis=(1, 2)))
    if bad.any():
        raise JetDomainError(op, float(value[bad.argmax()]))


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


def batch_variables(values) -> list[JetBatch]:
    """Seed jets of the k = len(values) independent variables, variable i
    taking the values ``values[i]`` at the N points of a batch."""
    v = np.array(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("batch values must be k equally long sequences")
    k, n = v.shape
    _check_arity(k)
    seeds = []
    for i in range(k):
        g = np.zeros((n, k))
        g[:, i] = 1.0
        seeds.append(JetBatch(v[i], g, np.zeros((n, k, k))))
    return seeds


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


# Each function's value and first two derivatives at a float, with its domain
# guards; a jet applies them point by point (``_univariate``).

def _exp(v: float):
    if v >= 709.0:
        raise JetDomainError("exp", v)
    e = math.exp(v)
    return e, e, e


def _log(v: float):
    if v <= 0.0:
        raise JetDomainError("log", v)
    return math.log(v), 1.0 / v, -1.0 / (v * v)


def _sin(v: float):
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def _cos(v: float):
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def _sqrt(v: float):
    if v <= 0.0:
        raise JetDomainError("sqrt", v)
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def exp(a):
    return a._univariate("exp", _exp)


def log(a):
    return a._univariate("log", _log)


def sin(a):
    return a._univariate("sin", _sin)


def cos(a):
    return a._univariate("cos", _cos)


def sqrt(a):
    return a._univariate("sqrt", _sqrt)


def powc(a, c):
    """a**c.  Integer c up to 1000 in magnitude uses repeated multiplication;
    a larger one the closed form.  Both are valid for any base; non-integer c
    requires a positive base."""
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    if isinstance(c, int) and abs(c) <= 1000:
        if c < 0:
            zero = a.value == 0.0
            if np.any(zero):
                if isinstance(a, JetBatch):
                    powc(a._head(int(zero.argmax())), c)  # raises if an earlier point fails
                raise JetDomainError("pow", 0.0)
            return a._constant(1.0) / powc(a, -c)
        result = a._constant(1.0)
        for _ in range(c):
            result = result * a
        # Checked once here rather than in every product: an overflowing
        # power is a singular sample, not an inf or NaN in a report.
        _require_finite("pow", result.value, result.grad, result.hess)
        return result

    def parts(v: float):
        if v <= 0.0 and not isinstance(c, int):
            raise JetDomainError("pow", v)
        try:
            return v**c, c * v ** (c - 1), c * (c - 1) * v ** (c - 2)
        except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: 0 ** -c
            raise JetDomainError("pow", v) from None
    return a._univariate("pow", parts)


FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt}
