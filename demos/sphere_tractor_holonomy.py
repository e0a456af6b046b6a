"""Parallel transport in the tractor bundle: flat on the round sphere,
honestly curved on a generic bump.

The tractor connection of a conformally flat metric has no holonomy, so
carrying a tractor around a closed loop must return it unchanged. On a
generic metric the same loop picks up a visible defect, and the transport
certificate (the gap between the solves on N and 2N nodes) tells us how far
to trust each number.
"""
import numpy as np

from detourcert import catalog, prolong, tractor
from detourcert.connections import tractor_connection
from detourcert.geometry import Geometry

sphere = catalog.get("sphere4").spec()
bump = catalog.get("generic_bump4").spec()

loop_sphere = [
    (0.8, 1.1, 0.9, 2.0),
    (1.0, 1.1, 0.9, 2.0),
    (1.0, 1.4, 0.9, 2.0),
    (0.8, 1.4, 0.9, 2.0),
]
loop_bump = [
    (0.3, -0.4, 0.25, 0.5),
    (0.8, -0.4, 0.25, 0.5),
    (0.8, 0.1, 0.25, 0.5),
    (0.3, 0.1, 0.25, 0.5),
]

geom = Geometry(sphere, loop_sphere[0], order=5)
omega = tractor.tractor_curvature(geom)
flatness = float(np.max(np.abs(omega)))
print(f"sphere tractor curvature, sup over coefficients : {flatness:.3e}")

rng = np.random.default_rng(5)
v6 = rng.standard_normal(6)
defect = prolong.loop_defect(sphere, tractor_connection, loop_sphere, v6,
                             rtol=1e-9, atol=1e-11)
print(f"sphere loop defect (rectangle in the p1-p2 plane): {defect:.3e}")

defect = prolong.loop_defect(bump, tractor_connection, loop_bump, v6,
                             rtol=1e-9, atol=1e-11, certify_tol=1e-3)
print(f"bump loop defect, same shape of loop            : {defect:.3e}")

res = prolong.transport(bump, tractor_connection, loop_bump + [loop_bump[0]], v6,
                        rtol=1e-9, atol=1e-11, certify_tol=1e-3)
print(f"transport certificate on the bump loop          : {res.error:.3e}")
print("the bump defect stands eight orders above its certificate:")
print("genuine holonomy, not integrator noise")
