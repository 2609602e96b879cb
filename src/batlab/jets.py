"""Second-order forward AD.

A ``Jet2`` carries the truncated Taylor data (value, gradient, Hessian) of a
scalar quantity with respect to ``k`` independent variables.  All arithmetic
propagates that data exactly, so PDE residuals evaluated on jets have no
finite-difference error.

A ``Jet2`` holds that data at one point (value a float, gradient ``(k,)``,
Hessian ``(k, k)``) or at each of a batch of ``N`` points (value ``(N,)``,
gradient ``(N, k)``, Hessian ``(N, k, k)``): Taylor-mode AD over a leading
batch axis.  Each operation is written once for both, and the values of
``exp``, ``log``, ``sin``, ``cos``, ``sqrt`` and non-integer powers come point
by point from ``math`` through the scalar guards, so every point of a batch is
bit for bit the single-point jet of that point.  A single jet combined with a
batch is the same jet at every point.  A batch operation that fails raises
what the single-point operation raises at the first failing point.

Seeds (:func:`variable`, :func:`variables`) and one-point constants share
read-only gradients and Hessians, one unit matrix and one set of zero arrays
per arity, broadcast over a batch's points; no operation writes into its
operands, so a jet costs only its arithmetic.

:func:`central_differences` is the one centred finite-difference 2-jet, of the
stored grids and of the ad scenario's probe alike.
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


def _columns(value):
    """``value`` shaped to scale a gradient and a Hessian: the float itself
    twice, or a batch's values as ``(N, 1)`` and ``(N, 1, 1)`` columns."""
    if isinstance(value, float):
        return value, value
    return value[:, None], value[:, None, None]


class Jet2:
    """Value, gradient and symmetric Hessian over k variables, at one point
    or at each point of a batch."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value if type(value) is np.ndarray else float(value)
        self.grad = grad
        self.hess = hess

    @property
    def k(self) -> int:
        return self.grad.shape[-1]

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()}, hess={self.hess.tolist()})"

    def _head(self, n: int) -> "Jet2":
        """The first n points of a batch; a single jet is its own head."""
        if isinstance(self.value, float):
            return self
        return Jet2(self.value[:n], self.grad[:n], self.hess[:n])

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, Jet2):
            # A single jet broadcasts against a batch; two batches must match.
            mine, theirs = self.grad.shape, other.grad.shape
            if theirs != mine:
                if theirs[-1] != mine[-1]:
                    raise ValueError(f"arity mismatch: {self.k} vs {other.k}")
                if len(theirs) == len(mine):
                    raise ValueError(f"batch shape mismatch: {mine} vs {theirs}")
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
        cross = self.grad[..., :, None] * o.grad[..., None, :]
        # Summing only exactly-symmetric arrays keeps the Hessian symmetric
        # to the last bit (cross alone would break associativity symmetry).
        sym = cross + cross.swapaxes(-1, -2)
        vg, vh = _columns(self.value)
        wg, wh = _columns(o.value)
        return Jet2(
            self.value * o.value,
            self.grad * wg + vg * o.grad,
            self.hess * wh + vh * o.hess + sym,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if isinstance(o.value, float):
            if o.value == 0.0:
                raise JetDomainError("div", 0.0)
        else:
            zero = o.value == 0.0
            if zero.any():
                first = int(zero.argmax())
                self._head(first) / o._head(first)  # raises if an earlier point fails
                raise JetDomainError("div", 0.0)
        q = self.value / o.value
        qg, qh = _columns(q)
        wg, wh = _columns(o.value)
        g = (self.grad - qg * o.grad) / wg
        cross = g[..., :, None] * o.grad[..., None, :]
        sym = cross + cross.swapaxes(-1, -2)
        h = (self.hess - qh * o.hess - sym) / wh
        _require_finite("div", q, g, h)
        return Jet2(q, g, h)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def _univariate(self, op: str, parts) -> "Jet2":
        """f(self) from ``parts(value) = (f, f', f'')``, called point by point."""
        if isinstance(self.value, float):
            return self._apply(op, *parts(self.value))
        rows = []
        try:
            for v in self.value.tolist():
                rows.append(parts(v))
        except Exception:
            self._head(len(rows))._apply(op, *_stacked(rows))  # raises if an earlier point fails
            raise
        return self._apply(op, *_stacked(rows))

    def _apply(self, op: str, f0, f1, f2) -> "Jet2":
        """f(self) from f, f' and f'' at its value or values."""
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        f1g, f1h = _columns(f1)
        _, f2h = _columns(f2)
        g = f1g * self.grad
        h = f2h * outer + f1h * self.hess
        _require_finite(op, f0, g, h)
        return Jet2(f0, g, h)


def _stacked(rows):
    """The columns f, f', f'' of the per-point ``rows`` of parts."""
    return np.array(rows, dtype=float).reshape(-1, 3).T


def _require_finite(op: str, value, grad, hess) -> None:
    """JetDomainError(op, value) unless every entry is finite; for a batch, at
    the first point that is not.  One point's entries are checked as Python
    floats, which costs a fraction of a numpy call per array."""
    if isinstance(value, float):
        isfinite = math.isfinite
        if not (isfinite(value) and all(map(isfinite, grad.tolist()))
                and all(map(isfinite, hess.ravel().tolist()))):
            raise JetDomainError(op, value)
        return
    bad = ~(np.isfinite(value) & np.isfinite(grad).all(axis=1)
            & np.isfinite(hess).all(axis=(1, 2)))
    if bad.any():
        raise JetDomainError(op, float(value[bad.argmax()]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Per arity k, the parts every one-point seed and constant shares, read-only:
# the k unit gradients (the rows of one identity), a zero gradient and a zero
# Hessian.  No operation writes into its operands, so sharing them gives the
# bits of fresh arrays and allocates nothing per jet.
_UNITS = {k: tuple(_read_only(np.eye(k))) for k in range(1, MAX_ARITY + 1)}
_ZEROS = {k: (_read_only(np.zeros(k)), _read_only(np.zeros((k, k))))
          for k in range(1, MAX_ARITY + 1)}


def variable(index: int, value: float, k: int) -> Jet2:
    """Seed jet for independent variable ``index`` of ``k``; its gradient and
    Hessian are shared read-only arrays."""
    _check_arity(k)
    if not 0 <= index < k:
        raise ValueError(f"variable index {index} out of range for arity {k}")
    return Jet2(float(value), _UNITS[k][index], _ZEROS[k][1])


def constant(value: float, k: int, n: int | None = None) -> Jet2:
    """The constant ``value`` over k variables, at one point or, given ``n``,
    at each of a batch of n points.  At one point its gradient and Hessian
    are shared read-only zero arrays."""
    _check_arity(k)
    if n is None:
        return Jet2(float(value), *_ZEROS[k])
    return Jet2(np.full(n, float(value)), np.zeros((n, k)), np.zeros((n, k, k)))


def variables(values) -> list[Jet2]:
    """Seed jets of the k = len(values) independent variables, variable i
    taking the value ``values[i]`` at one point, or the values ``values[i]``
    at the N points of a batch.

    A seed's gradient and Hessian are read-only: at one point, the shared
    arrays of :func:`variable`; over a batch, broadcast views of one unit row
    and of one zero ``(k, k)`` Hessian shared by all k seeds.  So seeding
    allocates nothing per point, and every operation on them gives the bits
    it gives on dense arrays."""
    v = np.array(values, dtype=float)
    if v.ndim == 1:
        k = len(v)
        _check_arity(k)
        hess = _ZEROS[k][1]
        return [Jet2(value, unit, hess) for value, unit in zip(v.tolist(), _UNITS[k])]
    if v.ndim != 2:
        raise ValueError("batch values must be k equally long sequences")
    k, n = v.shape
    _check_arity(k)
    hess = np.broadcast_to(_ZEROS[k][1], (n, k, k))
    return [Jet2(v[i], np.broadcast_to(unit, (n, k)), hess) for i, unit in enumerate(_UNITS[k])]


def from_parts(value, grad, hess) -> Jet2:
    """Assemble a jet from raw arrays (e.g. finite-difference data): at one
    point from a value, a ``(k,)`` gradient and a ``(k, k)`` Hessian, or over
    a batch from ``(N, k)`` gradients and ``(N, k, k)`` Hessians, with one
    value per point or one for all.

    Each Hessian is symmetrized; a clearly asymmetric one is rejected.
    """
    g = np.array(grad, dtype=float)
    h = np.array(hess, dtype=float)
    k = g.shape[-1]
    _check_arity(k)
    if h.shape != g.shape + (k,):
        raise ValueError(f"hessian shape {h.shape} does not match arity {k}")
    ht = h.swapaxes(-1, -2)
    scale = np.abs(h).max(axis=(-2, -1))
    if (np.abs(h - ht).max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise ValueError("hessian is not symmetric")
    h = 0.5 * (h + ht)
    if g.ndim == 1:
        value = float(value)
    else:
        value = np.broadcast_to(np.asarray(value, dtype=float), g.shape[:-1]).copy()
    _require_finite("from_parts", value, g, h)
    return Jet2(value, g, h)


def _first_difference(at, unit, step: float) -> np.ndarray:
    """Centered first difference along the axis of the ``unit`` shift."""
    unit = np.asarray(unit)
    return (at(unit) - at(-unit)) / (2 * step)


def central_differences(at, steps):
    """Centered second-order (value, grad, hess) over k = len(steps) axes from
    ``at(shift)``, the values at the points moved by the k integers ``shift``
    along the axes, ``steps[a]`` apart along axis a: grad (..., k), hess
    (..., k, k)."""
    k = len(steps)
    e = np.eye(k, dtype=int)
    mid = at([0] * k)
    grad = np.empty(mid.shape + (k,))
    hess = np.empty(mid.shape + (k, k))
    for a in range(k):
        grad[..., a] = _first_difference(at, e[a], steps[a])
        hess[..., a, a] = (at(e[a]) - 2 * mid + at(-e[a])) / steps[a]**2
        for b in range(a + 1, k):
            hess[..., a, b] = hess[..., b, a] = (
                at(e[a] + e[b]) - at(e[a] - e[b]) - at(e[b] - e[a]) + at(-e[a] - e[b])
            ) / (4 * steps[a] * steps[b])
    return mid, grad, hess


# Each function at a float, with its domain guard: the float and array
# evaluations of an expression (``exprspec``) and a jet's value all call these.

def exp_float(v: float) -> float:
    if v >= 709.0:
        raise JetDomainError("exp", v)
    return math.exp(v)


def log_float(v: float) -> float:
    if v <= 0.0:
        raise JetDomainError("log", v)
    return math.log(v)


def sqrt_float(v: float) -> float:
    if v <= 0.0:
        raise JetDomainError("sqrt", v)
    return math.sqrt(v)


FLOAT_FUNCTIONS = {"exp": exp_float, "log": log_float, "sin": math.sin, "cos": math.cos,
                   "sqrt": sqrt_float}


# Each function's value and first two derivatives at a float; a jet applies
# them point by point (``_univariate``).  A second derivative whose
# denominator underflows to 0 overflows: the jet there is a JetDomainError.

def _exp(v: float):
    e = exp_float(v)
    return e, e, e


def _log(v: float):
    f = log_float(v)
    if v * v == 0.0:
        raise JetDomainError("log", v)
    return f, 1.0 / v, -1.0 / (v * v)


def _sin(v: float):
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def _cos(v: float):
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def _sqrt(v: float):
    r = sqrt_float(v)
    if r * v == 0.0:
        raise JetDomainError("sqrt", v)
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
                if not isinstance(a.value, float):
                    powc(a._head(int(zero.argmax())), c)  # raises if an earlier point fails
                raise JetDomainError("pow", 0.0)
            return constant(1.0, a.k) / powc(a, -c)
        # A base whose power overflows is named before any product, as the
        # float and array paths name it.
        if isinstance(a.value, float):
            try:
                a.value ** c
            except OverflowError:
                raise JetDomainError("pow", a.value) from None
        else:
            with np.errstate(over="ignore"):
                over = np.isfinite(a.value) & np.isinf(np.float_power(a.value, c))
            if over.any():
                at = int(over.argmax())
                powc(a._head(at), c)  # raises if an earlier point fails
                raise JetDomainError("pow", float(a.value[at]))
        result = constant(1.0, a.k)
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
