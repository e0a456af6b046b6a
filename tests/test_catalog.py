"""Catalog facts are re-derived from curvature at random sample points."""
import numpy as np
import pytest

from detourcert import catalog, dsl, jets, prolong
from detourcert.geometry import Geometry, conformal_rescale

RNG_SEED = 2026
POSITIVE_TOL = 1e-10
NEGATIVE_FLOOR = 1e-3


def tensor_norm(arr) -> float:
    return max(abs(j.value) for j in np.asarray(arr, dtype=object).flat)


def tracefree_ricci_norm(geom) -> float:
    n = geom.n
    ric = geom.ricci
    sc = geom.scalar
    return max(
        abs((ric[a, b] - (sc / n) * geom.g[a, b].truncated(sc.order)).value)
        for a in range(n)
        for b in range(n)
    )


def fact_magnitudes(geom) -> dict:
    out = {
        "einstein": tracefree_ricci_norm(geom),
        "ricci_flat": tensor_norm(geom.ricci),
    }
    if geom.n == 4:
        out["conformally_flat"] = tensor_norm(geom.weyl)
        out["bach_flat"] = tensor_norm(geom.bach)
    else:
        out["conformally_flat"] = tensor_norm(geom.cotton)
    return out


@pytest.mark.parametrize("name", catalog.names())
def test_facts_match_curvature(name):
    entry = catalog.get(name)
    rng = np.random.default_rng(RNG_SEED)
    geom = entry.geometry(entry.sample_point(rng), order=4)
    mags = fact_magnitudes(geom)
    assert set(entry.facts) == set(mags)
    for fact, claimed in entry.facts.items():
        if claimed:
            assert mags[fact] < POSITIVE_TOL, (fact, mags[fact])
        else:
            assert mags[fact] > NEGATIVE_FLOOR, (fact, mags[fact])


@pytest.mark.parametrize("name", catalog.names())
def test_listed_killing_fields_are_killing(name):
    entry = catalog.get(name)
    rng = np.random.default_rng(RNG_SEED + 1)
    geom = entry.geometry(entry.sample_point(rng), order=3)
    fields = entry.killing_jets(geom)
    for v in fields:
        assert prolong.killing_residual(geom, v) < 1e-12


@pytest.mark.parametrize("name", [name for name in catalog.names() if catalog.get(name).killing_fields])
def test_killing_jets_at_one_point_equal_the_dense_run_of_a_batch_of_one(name):
    # killing_jets runs the program on Jets at one point; a batch of one runs it on dense jets
    entry = catalog.get(name)
    geom = entry.geometry(entry.sample_point(np.random.default_rng(RNG_SEED + 2)), order=5)
    programs = [dsl.parse_expression(text) for exprs in entry.killing_fields for text in exprs]
    vals = dsl._run(dsl._merge(programs), entry.spec().coords, np.asarray(geom.point)[None], geom.order)
    want = np.array([np.atleast_2d(v)[0] for v in vals])  # a constant field component has no points axis
    got = np.concatenate([jets.to_dense(field) for field in entry.killing_jets(geom)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", catalog.names())
def test_einstein_scale_rescales_to_einstein(name):
    entry = catalog.get(name)
    if entry.einstein_scale is None:
        pytest.skip("no Einstein scale recorded")
    rng = np.random.default_rng(RNG_SEED + 2)
    point = entry.sample_point(rng)
    spec = conformal_rescale(entry.spec(), f"-log({entry.einstein_scale})")
    geom = Geometry(spec, point, order=4)
    assert tracefree_ricci_norm(geom) < POSITIVE_TOL


def test_expected_entries_present():
    expected = {
        "flat4", "minkowski4", "sphere4", "hyperbolic4", "conf_flat_poly4",
        "schwarzschild", "s2xs2", "generic_bump4", "flat3", "sphere3",
        "generic_bump3",
    }
    assert expected <= set(catalog.names())


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown catalog metric"):
        catalog.get("klein_bottle")


def test_sample_points_stay_in_box():
    rng = np.random.default_rng(5)
    for entry in catalog.entries():
        for _ in range(3):
            pt = entry.sample_point(rng)
            assert all(lo <= x <= hi for x, (lo, hi) in zip(pt, entry.sample_box))


def test_signatures_parse():
    assert catalog.get("minkowski4").spec().signature == (-1, 1, 1, 1)
    assert catalog.get("sphere3").spec().signature == (1, 1, 1)


def test_text_roundtrip():
    for entry in catalog.entries():
        spec = entry.spec()
        again = type(spec)(
            spec.dim, spec.signature, spec.coords, spec.components, spec.label
        )
        assert again.metric_values(entry.sample_point(np.random.default_rng(1))
                                   ).shape == (spec.dim, spec.dim)
