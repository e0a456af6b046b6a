"""The twisted detour sequence closes exactly when the twist is
source-free.

For any connection the composition of the long operator with the first
differential equals an algebraic action of the gauge current (the
divergence of the curvature). Schwarzschild is Ricci-parallel, so the
covector twist is source-free and the sequence closes on the nose; a
generic bump metric has a visible current, and the composition residual
equals its action to machine precision.
"""
import numpy as np

from detourcert import catalog, detour, jets
from detourcert.connections import covector_connection
from detourcert.detour import TwistedForm
from detourcert.geometry import Geometry
from detourcert.jets import multi_indices

rng = np.random.default_rng(17)


def rand_section(dim, rank, order):
    n_coeff = len(multi_indices(dim, order))
    return np.array(
        [jets.from_coeffs(rng.normal(0.0, 1.0, n_coeff), dim, order)
         for _ in range(rank)], dtype=object)


def sup(arr):
    # jets or a dense coefficient array (ym_current returns the latter)
    return float(np.max(np.abs(jets.as_dense(np.asarray(arr)))))


def dev(a, b):
    out = 0.0
    for x, y in zip(np.asarray(a, dtype=object).flat,
                    np.asarray(b, dtype=object).flat):
        k = min(x.order, y.order)
        out = max(out, float(np.max(np.abs(
            x.truncated(k).coeffs - y.truncated(k).coeffs))))
    return out


for name, point in (("schwarzschild", (0.0, 5.0, 1.2, 0.3)),
                    ("generic_bump4", (0.3, -0.4, 0.25, 0.5))):
    geom = Geometry(catalog.get(name).spec(), point, order=6)
    conn = covector_connection(geom)
    current = detour.ym_current(conn)
    f = rand_section(4, 4, 5)
    comp = detour.op_M(detour.twisted_d(TwistedForm(0, f), conn), conn)
    sourced = detour.current_action(current, f)
    mismatch = dev(comp.comps, sourced)

    print(f"{name}:")
    print(f"  gauge current of the covector twist : {sup(current):.3e}")
    print(f"  composition M(d f) on a random f    : {sup(comp.comps):.3e}")
    print(f"  composition minus current action    : {mismatch:.3e}")
