"""Tour of the tensor engine: graphs, gradients, and the checker.

Every operation records its inputs and a backward closure; calling
``backward()`` on a scalar fills ``grad`` on every parameter it depends
on. Finite differences are the ground truth throughout this project, so
the same ``grad_check`` harness used by the test suite is shown here.
"""

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.tensor import Tensor

print("== a two-layer computation ==")
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)))
w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
b1 = Tensor(np.zeros(5), requires_grad=True)
b2 = Tensor(np.zeros(2), requires_grad=True)

hidden = tz.relu(tz.linear(x, w1, b1))  # one op: x @ w1 + b1
scores = tz.linear(hidden, w2, b2)
loss = (tz.log_softmax(scores, axis=-1) * -1.0).sum()
print(f"loss = {loss.item():.4f}")

loss.backward()
print(f"grad(w1) norm = {np.linalg.norm(w1.grad):.4f}")
print(f"grad(w2) norm = {np.linalg.norm(w2.grad):.4f}")

print()
print("== the same gradients, checked against central differences ==")


def f():
    h = tz.relu(tz.linear(x, w1, b1))
    s = tz.linear(h, w2, b2)
    return (tz.log_softmax(s, axis=-1) * -1.0).sum()


result = tz.grad_check(f, {"w1": w1, "b1": b1, "w2": w2, "b2": b2}, step=1e-6, tolerance=1e-5)
for name, dev in result["deviations"].items():
    print(f"{name}: max relative deviation {dev:.2e}")
print("passed:", result["passed"])

print()
print("== embeddings accumulate over repeated lookups ==")
table = Tensor(np.zeros((4, 2)), requires_grad=True)
emb = tz.embedding(table, np.array([1, 1, 3]))
emb.sum().backward()
print("row grads:\n", table.grad)
print("row 1 was looked up twice, so its gradient is 2; row 3 once.")
