"""What a reflected solve keeps: c, z and k, and no derived or mirrored field.

The bound is derived, not fitted.  At n = 300 with default a node field
holds 301·302/2 + 300·301/2 = 90,601 float64s, 724,808 bytes: one field
equivalent.  The solve stores three fields (continuation, z, k) as
3 × 602 layer arrays.  The array headers are under 200 bytes each
(about 0.36 MB) and the six layer lists about 15 kB, so the three fields
come to about 3.5 field equivalents, and the guard is 4.  Storing y, dA
and dA' as well would give 6.5, and negated barrier copies 2 more.
"""

import tracemalloc

import numpy as np
import pytest

from gamehedge import (LatticeParams, MarketParams, NodeField, PayoffSpec, build_lattice,
                       make_builtin_driver, solve_drbsde)

N = 300
FIELD_BYTES = 8 * ((N + 1) * (N + 2) // 2 + N * (N + 1) // 2)
MAX_FIELDS = 4.0


@pytest.fixture(scope="module")
def problem():
    mp = MarketParams(r=0.03, mu1=0.09, sigma1=0.35, mu2=0.1, sigma2=0.2,
                      lambda_bar=0.3, s1_0=1.0, s2_0=1.0)
    lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=N), mp)
    d = make_builtin_driver("perfect", mp)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0)

    # barriers evaluated before tracing: they are the spec's, not the solve's
    p = PayoffSpec.from_layers(NodeField.from_function(lattice, xi),
                               NodeField.from_function(lattice, lambda t, s1, dflt:
                                                       xi(t, s1, dflt) + 0.1))
    return lattice, d, p


def retained_fields(fn):
    """fn's result and the memory it still holds once returned, in fields."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, (tracemalloc.get_traced_memory()[0] - before) / FIELD_BYTES
    finally:
        tracemalloc.stop()


def test_reflected_solve_stores_three_fields(problem):
    lattice, d, p = problem
    sol, fields = retained_fields(lambda: solve_drbsde(lattice, d, p))
    assert 3.0 < fields <= MAX_FIELDS
    assert sol.xi is p.xi_layers and sol.zeta is p.zeta_layers


def test_mirrored_solve_allocates_no_barrier_copies(problem):
    lattice, d, p = problem
    q, fields = retained_fields(lambda: p.reflected(lattice))
    assert fields < 0.01
    sol, fields = retained_fields(lambda: solve_drbsde(lattice, d, q))
    assert 3.0 < fields <= MAX_FIELDS
    assert sol.xi.layer(N, False).tobytes() == (-p.zeta_layers.alive[N]).tobytes()


def test_derived_layers_are_read_only(problem):
    lattice, d, p = problem
    sol = solve_drbsde(lattice, d, p)
    for field in (sol.y, sol.da, sol.dap, p.reflected(lattice).xi_layers):
        for layer in (field.layer(1, False), field.layer(1, True), field.alive[0]):
            with pytest.raises(ValueError):
                layer[0] = 1.0
