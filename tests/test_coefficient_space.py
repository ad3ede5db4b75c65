"""Property tests of the coefficient-space primitives behind the 4x4
pipeline: the closed-form coefficient action, the projection form of the
coefficient extraction and the 3-vector cross product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdec import decouple4
from symdec.decouple4 import decouple
from symdec.dirac import GAMMA, from_coefficients, rdm_coefficients
from symdec.emeq import (_cross, _transform_floats, aux_vectors,
                         lax_invariants, mass_components, spectral_invariants,
                         state_from_coefficients)
from symdec.errors import PrecisionLoss
from symdec.transform import apply_similarity, basic_transform

from conftest import random_complex_symplex, random_stable_symplex

PROPERTY = settings(max_examples=200, deadline=None)

entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
coefficients = st.lists(entries, min_size=10, max_size=10).map(np.array)
params = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
matrices = st.lists(entries, min_size=16, max_size=16).map(
    lambda v: np.array(v).reshape(4, 4))


@PROPERTY
@given(b=st.integers(min_value=0, max_value=9), c=coefficients, eps=params)
def test_coefficient_action_matches_similarity(b, c, eps):
    F = from_coefficients(np.concatenate((c, np.zeros(6))))
    want = rdm_coefficients(apply_similarity(basic_transform(b, eps), F))
    got = np.array(_transform_floats(c.tolist(), b, eps))
    # a boost stretches coefficients by up to e^|eps|
    scale = max(1.0, float(np.linalg.norm(c))) * math.exp(abs(eps))
    assert np.max(np.abs(got - want[:10])) <= 1e-12 * scale


@PROPERTY
@given(M=matrices)
def test_rdm_coefficients_is_the_trace_formula(M):
    want = np.array([(GAMMA[k] @ GAMMA[k])[0, 0] * np.trace(M @ GAMMA[k]) / 4
                     for k in range(16)])
    np.testing.assert_allclose(rdm_coefficients(M), want, rtol=0, atol=1e-14)


@PROPERTY
@given(c=st.lists(entries, min_size=16, max_size=16).map(np.array))
def test_from_coefficients_is_the_basis_sum(c):
    want = sum(c[k] * GAMMA[k] for k in range(16))
    np.testing.assert_allclose(from_coefficients(c), want, rtol=0, atol=1e-14)


def test_coefficient_extraction_checks_shapes():
    with pytest.raises(ValueError):
        rdm_coefficients(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        from_coefficients(np.zeros(10))


@PROPERTY
@given(u=st.lists(entries, min_size=3, max_size=3).map(np.array),
       v=st.lists(entries, min_size=3, max_size=3).map(np.array))
def test_cross_matches_numpy(u, v):
    np.testing.assert_allclose(_cross(u, v), np.cross(u, v), rtol=0,
                               atol=1e-15)


# +-1e6 with exact zeros, the float primitives' widest ordinary range
wide = st.one_of(st.just(0.0),
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@PROPERTY
@given(c=st.lists(wide, min_size=10, max_size=10).map(np.array))
def test_float_primitives_match_numpy(c):
    state = state_from_coefficients(c)
    e0, p, e, b = c[0], c[1:4], c[4:7], c[7:10]
    c2 = max(1.0, float(np.dot(c, c)))
    m = mass_components(state)
    for got, want in ((m.m_r, np.dot(e, b)), (m.m_g, np.dot(b, p)),
                      (m.m_b, np.dot(e, p))):
        assert abs(got - want) <= 1e-15 * c2
    a = aux_vectors(state)
    for got, want in ((a.r, e0 * p + np.cross(b, e)),
                      (a.g, e0 * e + np.cross(p, b)),
                      (a.b, e0 * b + np.cross(e, p))):
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.max(np.abs(got - want)) <= 1e-15 * c2
    # I2 = -4 K1 and I4 = 4 (K1^2 + 4 K2), from the matrix alone
    _, i2, _, i4 = lax_invariants(
        from_coefficients(np.concatenate((c, np.zeros(6)))))
    k1 = -i2 / 4.0
    k2 = (i4 / 4.0 - k1 * k1) / 4.0
    inv = spectral_invariants(state)
    assert abs(inv.k1 - k1) <= 1e-14 * c2
    assert abs(inv.k2 - k2) <= 1e-13 * c2 * c2
    assert inv.det == inv.k1 * inv.k1 - 4.0 * inv.k2


@pytest.mark.parametrize("kind", ["stable", "complex"])
def test_corrupted_propagation_raises_precision_loss(monkeypatch, kind):
    # the matrix built once per stage is the reference: a propagated
    # coefficient vector that drifts from it must not pass silently
    rng = np.random.default_rng(7)
    F = (random_stable_symplex(rng) if kind == "stable"
         else random_complex_symplex(rng, "low"))
    decouple(F, form="normal")

    # the pipeline propagates Python floats through _transform_floats
    def drifting(f, b, eps):
        return [x + 1e-6 for x in _transform_floats(f, b, eps)]

    monkeypatch.setattr(decouple4, "_transform_floats", drifting)
    with pytest.raises(PrecisionLoss, match="drifted"):
        decouple(F, form="normal")
