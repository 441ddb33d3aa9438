"""Mixture-prior tests: density oracles, posterior responsibilities,
sampling moments, the semi-supervised reduction property, and gradient
checks through the prior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadeers import gmm
from vadeers.nnkernel import GradientTape, grad, mul, tmean, tsum

import oracles
from oracles import (
    assert_close,
    gaussian_logpdf_fsum,
    gradcheck,
    mixture_logpdf_bruteforce,
    responsibilities_bayes,
)


def make_params(seed=0, k=3, d=3, constrained=False):
    rng = np.random.default_rng(seed)
    log_scales = np.zeros((k, d)) if constrained else \
        rng.normal(0.0, 0.3, size=(k, d))
    return gmm.GmmParams(
        mixture_logits=rng.normal(0.0, 0.5, size=k),
        means=rng.normal(0.0, 2.0, size=(k, d)),
        log_scales=log_scales,
        constrained=constrained,
    )


# ---------------------------------------------------------------------------
# component density
# ---------------------------------------------------------------------------

def test_standard_normal_at_mode():
    params = gmm.GmmParams(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)))
    value = gmm.log_component_density(np.zeros(2), 0, params)
    assert abs(value - (-np.log(2 * np.pi))) < 1e-12


def test_density_at_mean_is_normalizer_only():
    params = make_params(seed=1, k=2, d=4)
    k = 1
    expected = -0.5 * np.sum(np.log(2 * np.pi * params.scales()[k] ** 2))
    got = gmm.log_component_density(params.means[k], k, params)
    assert abs(got - expected) < 1e-10


def test_component_density_matches_fsum_oracle():
    params = make_params(seed=2, k=3, d=3)
    rng = np.random.default_rng(3)
    z = rng.normal(0.0, 2.0, size=3)
    for k in range(3):
        expected = gaussian_logpdf_fsum(z, params.means[k], params.scales()[k])
        assert abs(gmm.log_component_density(z, k, params) - expected) < 1e-10


def test_component_index_out_of_range():
    params = make_params()
    with pytest.raises(IndexError):
        gmm.log_component_density(np.zeros(3), 5, params)


# ---------------------------------------------------------------------------
# mixture density
# ---------------------------------------------------------------------------

def test_single_component_mixture_equals_component():
    params = make_params(seed=4, k=1)
    z = np.array([0.3, -1.0, 2.0])
    assert abs(gmm.log_mixture_density(z, params)
               - gmm.log_component_density(z, 0, params)) < 1e-12


def test_identical_components_collapse():
    rng = np.random.default_rng(5)
    mu = rng.normal(size=(1, 3))
    ls = rng.normal(scale=0.2, size=(1, 3))
    one = gmm.GmmParams(np.zeros(1), mu, ls)
    two = gmm.GmmParams(np.array([0.7, -1.3]), np.repeat(mu, 2, 0),
                        np.repeat(ls, 2, 0))
    z = rng.normal(size=3)
    assert abs(gmm.log_mixture_density(z, two)
               - gmm.log_mixture_density(z, one)) < 1e-12


def test_mixture_matches_bruteforce_sum():
    params = make_params(seed=6, k=3, d=2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.normal(0.0, 2.0, size=2)
        expected = mixture_logpdf_bruteforce(
            z, params.weights(), params.means, params.scales())
        assert abs(gmm.log_mixture_density(z, params) - expected) < 1e-9


def test_logsumexp_lower_bound_property():
    params = make_params(seed=8, k=4, d=3)
    rng = np.random.default_rng(9)
    log_pi = np.log(params.weights())
    for _ in range(50):
        z = rng.normal(0.0, 3.0, size=3)
        mix = gmm.log_mixture_density(z, params)
        for k in range(4):
            bound = log_pi[k] + gmm.log_component_density(z, k, params)
            assert mix >= bound - 1e-12


# ---------------------------------------------------------------------------
# semi-supervised prior
# ---------------------------------------------------------------------------

def test_labeled_prior_is_component_density():
    params = make_params(seed=10)
    z = np.array([0.1, 0.2, -0.4])
    for k in range(3):
        assert gmm.log_prior(z, k, params) == \
            gmm.log_component_density(z, k, params)


def test_unlabeled_prior_is_mixture():
    params = make_params(seed=11)
    z = np.array([1.0, -1.0, 0.5])
    assert gmm.log_prior(z, None, params) == gmm.log_mixture_density(z, params)


def test_prior_with_no_labels_reduces_to_mixture_rowwise():
    params = make_params(seed=12, k=3, d=2)
    rng = np.random.default_rng(13)
    z = rng.normal(0.0, 2.0, size=(1000, 2))
    labels = np.full(1000, -1)
    semi = gmm.semi_supervised_log_prior_rows(
        z, labels, params.mixture_logits, params.means, params.log_scales)
    mix = gmm.mixture_log_density_rows(
        z, params.mixture_logits, params.means, params.log_scales)
    assert np.array_equal(semi.data, mix.data)


def test_label_honors_its_component_on_average():
    # G=2 < K=3: z sampled from component 1 scores higher under
    # component 1 than under component 2
    params = make_params(seed=14, k=3, d=3)
    rng = np.random.default_rng(15)
    z = gmm.sample_component(1, params, 1000, rng)
    mean_1 = np.mean([gmm.log_prior(row, 1, params) for row in z])
    mean_2 = np.mean([gmm.log_prior(row, 2, params) for row in z])
    assert mean_1 > mean_2


def test_label_out_of_range_raises():
    params = make_params(seed=16)
    with pytest.raises(IndexError):
        gmm.log_prior(np.zeros(3), 3, params)
    with pytest.raises(IndexError):
        gmm.semi_supervised_log_prior_rows(
            np.zeros((2, 3)), np.array([0, 7]),
            params.mixture_logits, params.means, params.log_scales)
    with pytest.raises(IndexError):
        gmm.semi_supervised_log_prior_rows(
            np.zeros((2, 3)), np.array([-2, 0]),
            params.mixture_logits, params.means, params.log_scales)
    with pytest.raises(IndexError):
        gmm.labeled_log_density_rows(np.zeros((2, 3)), np.array([0, -1]),
                                     params.means, params.log_scales)


# ---------------------------------------------------------------------------
# responsibilities
# ---------------------------------------------------------------------------

def test_responsibilities_uniform_for_identical_components():
    mu = np.zeros((4, 2))
    params = gmm.GmmParams(np.zeros(4), mu, np.zeros((4, 2)))
    r = gmm.responsibilities(np.array([0.5, -0.5]), params)
    assert np.allclose(r, 0.25, atol=1e-12)


def test_responsibilities_dominance_for_separated_components():
    params = gmm.GmmParams(
        np.zeros(2),
        np.array([[0.0, 0.0], [40.0, 40.0]]),  # >= 20 sigma apart
        np.zeros((2, 2)),
    )
    r = gmm.responsibilities(params.means[0], params)
    assert r[0] > 0.999


def test_responsibilities_match_bayes_oracle():
    params = make_params(seed=17, k=3, d=2)
    rng = np.random.default_rng(18)
    for _ in range(5):
        z = rng.normal(0.0, 1.5, size=2)
        expected = responsibilities_bayes(
            z, params.weights(), params.means, params.scales())
        assert np.max(np.abs(gmm.responsibilities(z, params) - expected)) < 1e-10


def test_responsibilities_sum_and_shift_invariance():
    params = make_params(seed=19, k=4, d=3)
    rng = np.random.default_rng(20)
    for _ in range(20):
        z = rng.normal(0.0, 2.0, size=3)
        r = gmm.responsibilities(z, params)
        assert abs(r.sum() - 1.0) < 1e-12
        shifted = params.with_arrays(params.mixture_logits + 7.3,
                                     params.means, params.log_scales)
        r2 = gmm.responsibilities(z, shifted)
        assert np.max(np.abs(r - r2)) < 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_component_degenerate_scales():
    params = gmm.GmmParams(
        np.zeros(2),
        np.array([[1.0, -2.0], [3.0, 4.0]]),
        np.full((2, 2), np.log(1e-12)),
    )
    draws = gmm.sample_component(1, params, 100, np.random.default_rng(21))
    assert np.max(np.abs(draws - params.means[1])) < 1e-10


def test_sample_component_moments():
    params = make_params(seed=22, k=2, d=2)
    draws = gmm.sample_component(0, params, 100_000,
                                 np.random.default_rng(23))
    assert np.max(np.abs(draws.mean(axis=0) - params.means[0])) < 0.02
    var = params.scales()[0] ** 2
    assert np.max(np.abs(draws.var(axis=0) - var) / var) < 0.03


def test_samples_from_separated_components_are_linearly_separable():
    params = gmm.GmmParams(
        np.zeros(2),
        np.array([[-5.0, -5.0], [5.0, 5.0]]),
        np.zeros((2, 2)),
    )
    rng = np.random.default_rng(24)
    a = gmm.sample_component(0, params, 2000, rng)
    b = gmm.sample_component(1, params, 2000, rng)
    # classify by nearest mean
    def closer_to_first(x):
        return (np.linalg.norm(x - params.means[0], axis=1)
                < np.linalg.norm(x - params.means[1], axis=1))
    acc = 0.5 * (closer_to_first(a).mean() + (~closer_to_first(b)).mean())
    assert acc > 0.99


def test_sample_mixture_single_component_law():
    # K=1: same law as sampling component 0 (checked through moments)
    params = make_params(seed=25, k=1, d=2)
    a = gmm.sample_mixture(params, 100_000, np.random.default_rng(26))
    assert np.max(np.abs(a.mean(axis=0) - params.means[0])) < 0.02
    var = params.scales()[0] ** 2
    assert np.max(np.abs(a.var(axis=0) - var) / var) < 0.03


def test_sample_mixture_degenerate_weights():
    params = gmm.GmmParams(
        np.array([0.0, -1e6, -1e6]),
        np.array([[0.0, 0.0], [100.0, 100.0], [-100.0, -100.0]]),
        np.zeros((3, 2)),
    )
    draws = gmm.sample_mixture(params, 1000, np.random.default_rng(27))
    assert np.max(np.abs(draws)) < 10.0  # all from component 0


def test_sample_mixture_frequencies_match_weights():
    params = make_params(seed=28, k=3, d=2)
    draws = gmm.sample_mixture(params, 100_000, np.random.default_rng(29))
    # assign each draw to its most responsible component; components are
    # far enough apart under this seed for the assignment to be reliable
    comp = np.argmin(
        np.linalg.norm(draws[:, None, :] - params.means[None], axis=2), axis=1)
    freq = np.bincount(comp, minlength=3) / draws.shape[0]
    # nearest-mean assignment is approximate; compare against the same
    # assignment applied to an exact categorical draw
    rng = np.random.default_rng(30)
    ks = rng.choice(3, size=100_000, p=params.weights())
    eps = rng.standard_normal((100_000, 2))
    ref = params.means[ks] + params.scales()[ks] * eps
    ref_comp = np.argmin(
        np.linalg.norm(ref[:, None, :] - params.means[None], axis=2), axis=1)
    ref_freq = np.bincount(ref_comp, minlength=3) / ref.shape[0]
    assert np.max(np.abs(freq - ref_freq)) < 0.01


# ---------------------------------------------------------------------------
# gradients through the prior
# ---------------------------------------------------------------------------

def _prior_loss(arrays, z, labels):
    tape = GradientTape()
    logits = tape.parameter("logits", arrays["logits"])
    means = tape.parameter("means", arrays["means"])
    log_scales = tape.parameter("log_scales", arrays["log_scales"])
    rows = gmm.semi_supervised_log_prior_rows(z, labels, logits, means,
                                              log_scales)
    return tmean(rows), tape


def test_prior_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    k, d = 3, 4
    arrays = {
        "logits": rng.normal(0.0, 0.5, size=k),
        "means": rng.normal(0.0, 1.5, size=(k, d)),
        "log_scales": rng.normal(0.0, 0.3, size=(k, d)),
    }
    z = rng.normal(0.0, 2.0, size=(6, d))
    labels = np.array([0, 1, -1, 2, -1, -1])

    loss, tape = _prior_loss(arrays, z, labels)
    grads = grad(loss, tape)

    def f(p):
        l, _ = _prior_loss(p, z, labels)
        return float(l.data)

    ok, detail = gradcheck(f, arrays, grads, rng, n_coords=100)
    assert ok, detail


def test_labeled_branch_gives_logits_no_gradient():
    rng = np.random.default_rng(32)
    arrays = {
        "logits": rng.normal(size=3),
        "means": rng.normal(size=(3, 2)),
        "log_scales": rng.normal(scale=0.2, size=(3, 2)),
    }
    z = rng.normal(size=(4, 2))
    loss, tape = _prior_loss(arrays, z, np.array([0, 1, 2, 0]))
    grads = grad(loss, tape)
    assert np.array_equal(grads["logits"], np.zeros(3))
    assert np.any(grads["means"] != 0)


# ---------------------------------------------------------------------------
# the one-node prior against its tensor-composed oracle
# ---------------------------------------------------------------------------

def _prior_and_grads(prior_rows, arrays, labels, upstream, frozen):
    """Rows of ``prior_rows`` and the gradients of sum(upstream * rows)
    w.r.t. z, the logits, the means and, unless ``frozen``, the
    log-scales."""
    tape = GradientTape()
    z = tape.parameter("z", arrays["z"])
    logits = tape.parameter("logits", arrays["logits"])
    means = tape.parameter("means", arrays["means"])
    log_scales = (arrays["log_scales"] if frozen
                  else tape.parameter("log_scales", arrays["log_scales"]))
    rows = prior_rows(z, labels, logits, means, log_scales)
    return rows.data, dict(grad(tsum(mul(rows, upstream)), tape))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), k=st.integers(1, 5), d=st.integers(1, 6),
       labeling=st.sampled_from(["mixed", "labeled", "unlabeled"]),
       frozen=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fused_prior_matches_composed_oracle(n, k, d, labeling, frozen, seed):
    rng = np.random.default_rng(seed)
    arrays = {
        "z": rng.normal(0.0, 2.0, size=(n, d)),
        "logits": rng.normal(0.0, 1.0, size=k),
        "means": rng.normal(0.0, 2.0, size=(k, d)),
        "log_scales": rng.normal(0.0, 0.5, size=(k, d)),
    }
    labels = {"mixed": rng.integers(-1, k, size=n),
              "labeled": rng.integers(0, k, size=n),
              "unlabeled": np.full(n, -1)}[labeling]
    upstream = rng.normal(size=n)
    got, got_grads = _prior_and_grads(gmm.semi_supervised_log_prior_rows,
                                      arrays, labels, upstream, frozen)
    want, want_grads = _prior_and_grads(oracles.semi_supervised_log_prior_rows,
                                        arrays, labels, upstream, frozen)
    assert_close(got, want, 1e-12)
    assert sorted(got_grads) == sorted(want_grads)
    for name in want_grads:
        assert_close(got_grads[name], want_grads[name], 1e-10)
    if labeling == "labeled":
        assert not got_grads["logits"].any()


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 16), k=st.integers(1, 5), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_responsibilities_match_composed_oracle(n, k, d, seed):
    rng = np.random.default_rng(seed)
    params = gmm.GmmParams(rng.normal(size=k), rng.normal(0.0, 2.0, (k, d)),
                           rng.normal(0.0, 0.5, (k, d)))
    z = rng.normal(0.0, 2.0, size=d)
    comp = oracles.component_log_densities(z[None, :], params.means,
                                           params.log_scales).data[0]
    scores = comp + oracles.log_weights(params.mixture_logits).data
    want = np.exp(scores - scores.max()) / np.exp(scores - scores.max()).sum()
    assert_close(gmm.responsibilities(z, params), want, 1e-12)
