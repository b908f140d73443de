"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tape`` records every differentiable operation in execution order, which
is topological by construction: an op can only consume tensors that already
exist. ``backward`` replays the tape in reverse, accumulating gradients in
that fixed order so repeated runs with the same inputs are bitwise
reproducible.

Ops run forward-only (no recording) when no tape is active, which is how
inference passes avoid graph overhead. A tape may also carry the generator
that dropout draws its masks from, so a training pass is the only one that
drops anything. Custom layers register their own backward rules through
:func:`record`.

Every op is one node. ``matmul`` multiplies two matrices and adds an
optional bias inside its node, and ``add`` sums any number of tensors in
one; there is no implicit broadcasting.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError, StateError

FLOAT_DTYPES = (np.float32, np.float64)

_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class Tensor:
    """Dense n-dimensional array of reals, optionally tracked on a tape.

    ``data`` is a numpy array (float32 or float64). ``grad`` is an array of
    the same shape once gradients have been accumulated, else None. Leaf
    tensors created with ``requires_grad=True`` (parameters) keep their
    ``grad`` across tapes so per-sample gradients can be summed over a batch;
    call :meth:`zero_grad` between optimizer steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of the operations of one forward pass.

    Use as a context manager around the computation whose gradients are
    needed. Tapes are one-shot: ``backward`` drops the recorded nodes when
    it returns, and a second ``backward`` without ``reset`` raises
    :class:`StateError`. A tape and its intermediate tensors belong
    to a single worker; parameters may be shared read-only across tapes.

    ``rng`` is the generator that :func:`~multiconv.layers.dropout` draws
    its masks from while this is the innermost active tape. A tape without
    one, like a pass with no tape, applies no dropout.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._nodes: list[_Node] = []
        self._spent = False
        self.rng = rng

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def reset(self) -> None:
        """Drop recorded nodes and allow this tape to record and replay again."""
        self._nodes.clear()
        self._spent = False

    @staticmethod
    def active() -> "Tape | None":
        stack = _tape_stack()
        return stack[-1] if stack else None


def record(out: Tensor, inputs: Sequence[Tensor], backward_rule: Callable) -> Tensor:
    """Attach a backward rule for ``out`` to the active tape, if any.

    ``backward_rule(g)`` receives the gradient w.r.t. ``out`` and must return
    one gradient array (or None) per input, in order. Returned arrays may be
    views of ``g``, but two inputs of the same node must never receive the
    same array object (the accumulator adds in place).
    """
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape._nodes.append(_Node(out, tuple(inputs), backward_rule))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dx into ``x.grad`` for every requires_grad ancestor.

    Gradients are summed in reverse tape order, so the accumulation order
    (and therefore the float result) is identical across runs.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise StateError("loss is not attached to a tape; run the forward pass inside `with Tape():`")
    if tape._spent:
        raise StateError("tape already consumed by backward; reset() it or record a fresh pass")
    tape._spent = True

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        g = node.out.grad
        if g is None:
            continue
        grads = node.backward(g)
        for tensor, gi in zip(node.inputs, grads):
            if gi is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = gi
            else:
                tensor.grad += gi
    # every recorded tensor points back at the tape, so the nodes (and the
    # activations their backward rules hold) would otherwise live until a
    # cyclic garbage collection; the tape stays spent
    tape._nodes.clear()


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def check_bias(op: str, b: Tensor, out_shape: tuple) -> None:
    """An op's bias must hold one value per channel (last axis) of its output."""
    if b.shape != out_shape[-1:]:
        raise ShapeError(f"{op}: cannot add bias {b.shape} to {out_shape}")


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Product of two matrices, plus ``bias[C]`` added to every row when
    given, as one node.

    Backward: dL/da = g @ b^T, dL/db = a^T @ g, dL/dbias = g summed over rows.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ for shapes {a.shape} and {b.shape}")
    y = a.data @ b.data
    if bias is not None:
        check_bias("matmul", bias, y.shape)
        y += bias.data

    def bwd(g):
        grads = g @ b.data.T, a.data.T @ g
        return grads if bias is None else (*grads, g.sum(axis=0))

    return record(Tensor(y), (a, b) if bias is None else (a, b, bias), bwd)


def add(*parts: Tensor) -> Tensor:
    """Elementwise sum of equally shaped tensors (no implicit broadcasting),
    as one node."""
    if not parts:
        raise ContractError("add: no parts")
    for p in parts[1:]:
        _require_same_shape("add", parts[0], p)
    acc = parts[0].data.copy()
    for p in parts[1:]:
        acc += p.data

    def bwd(g):
        return [g] + [g.copy() for _ in parts[1:]]

    return record(Tensor(acc), parts, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; shapes must match exactly."""
    _require_same_shape("mul", a, b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return g * b.data, g * a.data

    return record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (the only scalar broadcast allowed)."""
    c = float(c)
    out = Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return record(out, (a,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(x.shape),)

    return record(out, (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    """Sum all entries into a scalar (the usual test-loss reducer)."""
    out = Tensor(x.data.sum())

    def bwd(g):
        return (np.full(x.shape, g, dtype=x.data.dtype),)

    return record(out, (x,), bwd)
