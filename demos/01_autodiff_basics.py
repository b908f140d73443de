"""A guided tour of the reverse-mode tape.

Everything in this package trains through a minimal tape: operations on
tracked tensors append nodes while a Tape is active, and ``backward``
replays the nodes in reverse to accumulate gradients. This script builds
a tiny two-layer computation by hand, asks the tape for gradients, and
cross-checks one of them against a central finite difference.

Run it with:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from multiconv import Tape, Tensor, backward
from multiconv.autodiff import matmul, tsum
from multiconv.gradcheck import numeric_gradient
from multiconv.layers import swish

rng = np.random.default_rng(0)

# 1. parameters are plain Tensors with requires_grad=True
w1 = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
b1 = Tensor(np.zeros(3), requires_grad=True)
w2 = Tensor(rng.normal(size=(3, 1)) * 0.5, requires_grad=True)
x = Tensor(rng.normal(size=(5, 4)))  # inputs stay untracked


def forward():
    hidden = swish(matmul(x, w1, b1))
    return tsum(matmul(hidden, w2))


# 2. recording only happens inside a `with Tape():` block
with Tape() as tape:
    loss = forward()
    n_nodes = len(tape)  # backward drops the nodes it replays
    backward(loss)

print(f"loss          {loss.item():+.6f}")
print(f"tape recorded {n_nodes} nodes")
print(f"dL/db1        {np.array2string(b1.grad, precision=4)}")

# 3. outside a tape the same ops run forward-only, gradients untouched
before = b1.grad.copy()
forward()
assert np.array_equal(b1.grad, before), "untaped ops must not touch grads"
print("forward pass outside the tape left gradients alone")

# 4. finite differences agree with the tape


def loss_of_w1(values):
    saved = w1.data.copy()
    w1.data = values
    out = forward().item()
    w1.data = saved
    return out


numeric = numeric_gradient(loss_of_w1, w1.data.copy())
err = np.abs(numeric - w1.grad).max()
print(f"max |tape - finite difference| on w1: {err:.2e}")
assert err < 1e-7
