"""Built-in metric catalog.

Each entry carries the metric source text, a box of chart-safe sample
points, curvature facts (verified by the test suite at random sample
points), explicit Killing fields when the chart admits simple closed
forms, and an Einstein scale when one exists: a positive function sigma
with sigma^-2 g Einstein.  killing_jets parses the field expressions to
programs, merges them into one and runs it by dsl._run on Jets at the point,
as metric text is walked, and returns jets viewing its dense result.

Angular charts keep 0.2 rad away from coordinate poles so that inverse
metrics and cot factors stay well conditioned.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import jets
from .dsl import MetricSpec, _merge, _run, parse_expression, parse_metric_text
from .geometry import Geometry

TWO_PI = 6.283185307179586


@lru_cache(maxsize=None)  # one parse per text and process: a MetricSpec is never mutated
def _parsed(text: str, name: str) -> MetricSpec:
    return parse_metric_text(text, label=name)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    text: str
    facts: dict
    sample_box: tuple
    killing_fields: tuple = ()
    einstein_scale: Optional[str] = None
    notes: str = ""

    def spec(self) -> MetricSpec:
        return _parsed(self.text, self.name)

    def sample_point(self, rng: np.random.Generator) -> tuple:
        return tuple(float(rng.uniform(lo, hi)) for lo, hi in self.sample_box)

    def geometry(self, point, order: int = 4) -> Geometry:
        return Geometry(self.spec(), point, order=order)

    def killing_jets(self, geom: Geometry) -> list:
        """Component jets v^a of every listed Killing field at geom's point."""
        programs = [parse_expression(text) for exprs in self.killing_fields for text in exprs]
        vals = _run(_merge(programs), self.spec().coords, np.asarray(geom.point), geom.order)
        return [jets.to_jets(np.array(vals[k : k + geom.n]), geom.n)
                for k in range(0, len(vals), geom.n)]


def _entry(name, text, facts, box, **kw) -> CatalogEntry:
    return CatalogEntry(name, text.strip() + "\n", facts, box, **kw)


_BOX_SPHERE4 = ((0.2, 2.94), (0.2, 2.94), (0.2, 2.94), (0.0, TWO_PI))

_ENTRIES = [
    _entry(
        "flat4",
        """
dimension = 4
coords = x y z w
signature = "++++"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
g[4][4] = "1"
""",
        {"einstein": True, "ricci_flat": True, "conformally_flat": True,
         "bach_flat": True},
        ((-0.8, 0.8),) * 4,
        killing_fields=(
            ("1", "0", "0", "0"),
            ("0", "0", "1", "0"),
            ("y", "-x", "0", "0"),
            ("0", "w", "0", "-y"),
        ),
        einstein_scale="1",
        notes="Euclidean space in Cartesian coordinates.",
    ),
    _entry(
        "minkowski4",
        """
dimension = 4
coords = t x y z
signature = "-+++"
g[1][1] = "-1"
g[2][2] = "1"
g[3][3] = "1"
g[4][4] = "1"
""",
        {"einstein": True, "ricci_flat": True, "conformally_flat": True,
         "bach_flat": True},
        ((-0.8, 0.8),) * 4,
        killing_fields=(
            ("1", "0", "0", "0"),
            ("x", "t", "0", "0"),
            ("0", "0", "z", "-y"),
        ),
        einstein_scale="1",
        notes="Flat Lorentzian signature; boosts included among Killing fields.",
    ),
    _entry(
        "sphere4",
        """
dimension = 4
coords = p1 p2 p3 p4
signature = "++++"
g[1][1] = "1"
g[2][2] = "sin(p1)^2"
g[3][3] = "sin(p1)^2 * sin(p2)^2"
g[4][4] = "sin(p1)^2 * sin(p2)^2 * sin(p3)^2"
""",
        {"einstein": True, "ricci_flat": False, "conformally_flat": True,
         "bach_flat": True},
        _BOX_SPHERE4,
        killing_fields=(
            ("0", "0", "0", "1"),
            ("0", "0", "sin(p4)", "cos(p4) * cos(p3) / sin(p3)"),
            ("0", "0", "cos(p4)", "-sin(p4) * cos(p3) / sin(p3)"),
        ),
        einstein_scale="1",
        notes="Unit round sphere, nested polar chart.",
    ),
    _entry(
        "hyperbolic4",
        """
dimension = 4
coords = p1 p2 p3 p4
signature = "++++"
g[1][1] = "1"
g[2][2] = "sinh(p1)^2"
g[3][3] = "sinh(p1)^2 * sin(p2)^2"
g[4][4] = "sinh(p1)^2 * sin(p2)^2 * sin(p3)^2"
""",
        {"einstein": True, "ricci_flat": False, "conformally_flat": True,
         "bach_flat": True},
        ((0.3, 2.0), (0.2, 2.94), (0.2, 2.94), (0.0, TWO_PI)),
        killing_fields=(
            ("0", "0", "0", "1"),
            ("0", "0", "sin(p4)", "cos(p4) * cos(p3) / sin(p3)"),
        ),
        einstein_scale="1",
        notes="Unit hyperbolic space, geodesic polar chart.",
    ),
    _entry(
        "conf_flat_poly4",
        """
dimension = 4
coords = x y z w
signature = "++++"
g[1][1] = "(1 + 0.1*x + 0.05*y^2 + 0.02*z*w)^2"
g[2][2] = "(1 + 0.1*x + 0.05*y^2 + 0.02*z*w)^2"
g[3][3] = "(1 + 0.1*x + 0.05*y^2 + 0.02*z*w)^2"
g[4][4] = "(1 + 0.1*x + 0.05*y^2 + 0.02*z*w)^2"
""",
        {"einstein": False, "ricci_flat": False, "conformally_flat": True,
         "bach_flat": True},
        ((-0.6, 0.6),) * 4,
        einstein_scale="1 + 0.1*x + 0.05*y^2 + 0.02*z*w",
        notes="Polynomial conformal factor on the flat metric.",
    ),
    _entry(
        "schwarzschild",
        """
dimension = 4
coords = t r th ph
signature = "-+++"
g[1][1] = "-(1 - 2/r)"
g[2][2] = "1 / (1 - 2/r)"
g[3][3] = "r^2"
g[4][4] = "r^2 * sin(th)^2"
""",
        {"einstein": True, "ricci_flat": True, "conformally_flat": False,
         "bach_flat": True},
        ((-1.0, 1.0), (3.0, 10.0), (0.2, 2.94), (0.0, TWO_PI)),
        killing_fields=(
            ("1", "0", "0", "0"),
            ("0", "0", "0", "1"),
            ("0", "0", "sin(ph)", "cos(ph) * cos(th) / sin(th)"),
            ("0", "0", "cos(ph)", "-sin(ph) * cos(th) / sin(th)"),
        ),
        einstein_scale="1",
        notes="Mass 1, exterior chart r > 2.",
    ),
    _entry(
        "s2xs2",
        """
dimension = 4
coords = t1 f1 t2 f2
signature = "++++"
g[1][1] = "1"
g[2][2] = "sin(t1)^2"
g[3][3] = "1"
g[4][4] = "sin(t2)^2"
""",
        {"einstein": True, "ricci_flat": False, "conformally_flat": False,
         "bach_flat": True},
        ((0.2, 2.94), (0.0, TWO_PI), (0.2, 2.94), (0.0, TWO_PI)),
        killing_fields=(
            ("0", "1", "0", "0"),
            ("0", "0", "0", "1"),
            ("sin(f1)", "cos(f1) * cos(t1) / sin(t1)", "0", "0"),
        ),
        einstein_scale="1",
        notes="Product of unit 2-spheres: Einstein and Bach-flat, "
              "not conformally flat.",
    ),
    _entry(
        "generic_bump4",
        """
dimension = 4
coords = x y z w
signature = "++++"
g[1][1] = "1 + 0.1*y^2 + 0.05*x*z"
g[2][2] = "1 + 0.08*x^2 - 0.02*y*w"
g[3][3] = "1 + 0.06*x*y + 0.03*w^2"
g[4][4] = "1 + 0.07*z^2"
g[1][2] = "0.03*z^2"
g[2][3] = "0.04*x*w"
""",
        {"einstein": False, "ricci_flat": False, "conformally_flat": False,
         "bach_flat": False},
        ((-0.5, 0.5),) * 4,
        notes="Low-degree polynomial bumps; every curvature obstruction "
              "is visibly nonzero.",
    ),
    _entry(
        "flat3",
        """
dimension = 3
coords = x y z
signature = "+++"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
""",
        {"einstein": True, "ricci_flat": True, "conformally_flat": True},
        ((-0.8, 0.8),) * 3,
        killing_fields=(
            ("1", "0", "0"),
            ("z", "0", "-x"),
        ),
        einstein_scale="1",
    ),
    _entry(
        "sphere3",
        """
dimension = 3
coords = p1 p2 p3
signature = "+++"
g[1][1] = "1"
g[2][2] = "sin(p1)^2"
g[3][3] = "sin(p1)^2 * sin(p2)^2"
""",
        {"einstein": True, "ricci_flat": False, "conformally_flat": True},
        ((0.2, 2.94), (0.2, 2.94), (0.0, TWO_PI)),
        killing_fields=(
            ("0", "0", "1"),
            ("0", "sin(p3)", "cos(p3) * cos(p2) / sin(p2)"),
        ),
        einstein_scale="1",
    ),
    _entry(
        "generic_bump3",
        """
dimension = 3
coords = x y z
signature = "+++"
g[1][1] = "1 + 0.1*y^2 + 0.05*x*z"
g[2][2] = "1 + 0.08*x^2 - 0.02*y*z"
g[3][3] = "1 + 0.06*x*y"
g[1][2] = "0.03*z^2"
g[2][3] = "0.04*x^2"
""",
        {"einstein": False, "ricci_flat": False, "conformally_flat": False},
        ((-0.5, 0.5),) * 3,
        notes="Nonzero Cotton tensor; the three dimensional analogue of "
              "generic_bump4.",
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}


def names() -> list:
    return [e.name for e in _ENTRIES]


def get(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(names())
        raise KeyError(f"unknown catalog metric {name!r}; known: {known}") from None


def entries() -> list:
    return list(_ENTRIES)
