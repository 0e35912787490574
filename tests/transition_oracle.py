"""Scalar one-node regression: the oracle for `Lattice.layer_regression`.

Each node's branches are listed one by one with their probability and
noise increments, and the successor values are regressed on {1, dW, dM}
by the defining moments, one node at a time.  `layer_regression` computes
the same (mean, z, k) for a whole layer in closed form; the tests compare
the two node by node.
"""

from dataclasses import dataclass

import numpy as np

from gamehedge import InvalidParams, Lattice, Node, UnknownNode


@dataclass(frozen=True)
class Transition:
    """One branch out of a node."""

    node: Node
    probability: float
    dw: float
    dn: int
    dm: float


def check_node(lattice: Lattice, node: Node) -> None:
    if node.step < 0 or node.step > lattice.n_steps:
        raise UnknownNode(f"step out of range: {node}")
    size = (lattice.defaulted_size(node.step) if node.defaulted
            else lattice.alive_size(node.step))
    if node.j < 0 or node.j >= size:
        raise UnknownNode(f"layer index out of range: {node}")


def transitions(lattice: Lattice, node: Node) -> list[Transition]:
    """Branches out of a node, in canonical order (up, down[, default])."""
    check_node(lattice, node)
    if node.step >= lattice.n_steps:
        raise UnknownNode(f"terminal node has no transitions: {node}")
    k, j, s = node.step, node.j, lattice.sqrt_dt
    if node.defaulted:
        return [
            Transition(Node(k + 1, j + 1, True), 0.5, s, 0, 0.0),
            Transition(Node(k + 1, j, True), 0.5, -s, 0, 0.0),
        ]
    qk = float(lattice.q[k])
    if qk == 0.0:
        return [
            Transition(Node(k + 1, j + 1, False), 0.5, s, 0, 0.0),
            Transition(Node(k + 1, j, False), 0.5, -s, 0, 0.0),
        ]
    return [
        Transition(Node(k + 1, j + 1, False), 0.5 * (1.0 - qk), s, 0, -qk),
        Transition(Node(k + 1, j, False), 0.5 * (1.0 - qk), -s, 0, -qk),
        Transition(Node(k + 1, j, True), qk, 0.0, 1, 1.0 - qk),
    ]


def conditional_expectation(lattice: Lattice, node: Node,
                            values) -> tuple[float, float, float]:
    """Regress successor values on {1, dW, dM}.

    values: successor values in transition order.  Returns (mean, z, k)
    with z = E[v dW]/Var(dW) and k = E[v dM]/(lam dt (1 - lam dt)),
    k = 0 at defaulted nodes and where the intensity vanishes.  The
    affine reconstruction mean + z dW + k dM reproduces the successor
    values exactly on every branch.
    """
    trans = transitions(lattice, node)
    v = np.asarray(values, dtype=float)
    if v.shape != (len(trans),):
        raise InvalidParams(f"expected {len(trans)} successor values, got {v.shape}")
    p = np.array([tr.probability for tr in trans])
    dw = np.array([tr.dw for tr in trans])
    dm = np.array([tr.dm for tr in trans])
    mean = float(p @ v)
    var_w = float(p @ dw**2)
    z = float(p @ (v * dw)) / var_w if var_w > 0 else 0.0
    var_m = float(p @ dm**2)
    kk = float(p @ (v * dm)) / var_m if var_m > 0 else 0.0
    return mean, z, kk
