"""Semi-supervised Gaussian-mixture latent prior.

Components are diagonal Gaussians parameterized by free mixture logits
(softmax keeps the weights on the simplex), means, and log-scales
(positivity of the scales for free).  A point with an observed guiding
label is scored only under its labeled component; an unlabeled point is
scored under the full mixture, so with no labels anywhere the prior is
exactly the classical mixture density.

Every density goes through one graph node, the semi-supervised prior of
a batch of rows with a hand-written backward, so the same code path
serves evaluation and gradient-based training; the convenience wrappers
at the bottom return plain floats/arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ContractViolation
from .nnkernel import Tensor, wrap

LOG_2PI = float(np.log(2.0 * np.pi))

UNLABELED = -1  # sentinel in label arrays; scalar API uses None


@dataclass(frozen=True)
class GmmParams:
    """Trainable mixture parameters.

    ``constrained=True`` fixes every component covariance to the identity:
    log_scales are zero and must never receive updates.
    """

    mixture_logits: np.ndarray  # (K,)
    means: np.ndarray           # (K, D)
    log_scales: np.ndarray      # (K, D)
    constrained: bool = False

    def __post_init__(self):
        logits = np.asarray(self.mixture_logits, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        log_scales = np.asarray(self.log_scales, dtype=np.float64)
        object.__setattr__(self, "mixture_logits", logits)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "log_scales", log_scales)
        if logits.ndim != 1 or means.ndim != 2 or log_scales.shape != means.shape:
            raise ContractViolation(
                f"inconsistent GMM shapes: logits {logits.shape}, "
                f"means {means.shape}, log_scales {log_scales.shape}"
            )
        if logits.shape[0] != means.shape[0]:
            raise ContractViolation(
                f"{logits.shape[0]} logits for {means.shape[0]} components"
            )
        for name, arr in (("mixture_logits", logits), ("means", means),
                          ("log_scales", log_scales)):
            if not np.all(np.isfinite(arr)):
                raise ContractViolation(f"{name} contains non-finite entries")
        if self.constrained and np.any(log_scales != 0.0):
            raise ContractViolation("constrained GMM requires log_scales == 0")

    @property
    def n_components(self) -> int:
        return self.mixture_logits.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[1]

    def weights(self) -> np.ndarray:
        """Mixture weights via softmax of the logits."""
        z = self.mixture_logits - self.mixture_logits.max()
        e = np.exp(z)
        return e / e.sum()

    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    def with_arrays(self, mixture_logits, means, log_scales) -> "GmmParams":
        return replace(
            self,
            mixture_logits=mixture_logits,
            means=means,
            log_scales=log_scales,
        )


def init_gmm(
    n_components: int,
    latent_dim: int,
    rng: np.random.Generator,
    constrained: bool = False,
) -> GmmParams:
    """Zero logits and log-scales; means drawn from N(0, 4 I) so components
    start separated relative to unit posterior scales."""
    return GmmParams(
        mixture_logits=np.zeros(n_components),
        means=rng.normal(0.0, 2.0, size=(n_components, latent_dim)),
        log_scales=np.zeros((n_components, latent_dim)),
        constrained=constrained,
    )


# ---------------------------------------------------------------------------
# differentiable densities (tensor in, tensor out)
# ---------------------------------------------------------------------------

def _mixture_scores(z, mixture_logits, means, log_scales):
    """The numpy terms of the mixture at every row of ``z`` (n, D):
    the scaled residuals s_ikd = (z_id - mu_kd) / sigma_kd (n, K, D),
    the inverse scales (K, D), log N(z_i | mu_k, Sigma_k) (n, K), the log
    weights log pi (K,), and the log mixture density of each row (n,),
    both by log-sum-exp."""
    inv_scales = np.exp(-log_scales)
    scaled = (z[:, None, :] - means) * inv_scales
    comp = -0.5 * np.sum(scaled * scaled, axis=2)
    comp -= 0.5 * z.shape[1] * LOG_2PI + np.sum(log_scales, axis=1)
    top = np.max(mixture_logits)
    log_pi = mixture_logits - (top + np.log(np.sum(np.exp(mixture_logits - top))))
    scores = comp + log_pi
    top = np.max(scores, axis=1, keepdims=True)
    log_mix = top + np.log(np.sum(np.exp(scores - top), axis=1, keepdims=True))
    return scaled, inv_scales, comp, log_pi, log_mix[:, 0]


def _responsibilities(comp, log_pi, log_mix):
    """Posterior over components of each row, r_ik = pi_k N(z_i | mu_k,
    Sigma_k) / p(z_i), from the terms of :func:`_mixture_scores`."""
    return np.exp(comp + log_pi - log_mix[:, None])


def semi_supervised_log_prior_rows(
    z, labels, mixture_logits, means, log_scales
) -> Tensor:
    """Row-wise log prior as one node: a labeled row is scored under its
    component only, an unlabeled row (label -1) under the full mixture.

    The backward is the closed form of the VaDE prior term (Jiang et al.
    2017, arXiv:1611.05148, section 3).  With the upstream gradient g and
    W = g R, where R holds the responsibilities of each unlabeled row and
    a one-hot row for each labeled one:

    - dz_i = -sum_k W_ik (z_i - mu_k) / sigma_k^2
    - dmu_k = sum_i W_ik (z_i - mu_k) / sigma_k^2
    - dlog sigma_kd = sum_i W_ik (s_ikd^2 - 1)
    - dlogits = sum over unlabeled i of (W_i - g_i pi)
    """
    z, logits, means, log_scales = (
        wrap(t) for t in (z, mixture_logits, means, log_scales))
    labels = np.asarray(labels, dtype=np.int64)
    n, k = z.shape[0], means.shape[0]
    if labels.shape != (n,):
        raise ContractViolation(
            f"{labels.shape} labels for {n} latent rows"
        )
    bad = labels[(labels < UNLABELED) | (labels >= k)]
    if bad.size:
        raise IndexError(
            f"guiding label {bad[0]} out of range for {k} components"
        )
    scaled, inv_scales, comp, log_pi, log_mix = _mixture_scores(
        z.data, logits.data, means.data, log_scales.data)
    unlabeled = labels == UNLABELED
    rows = np.flatnonzero(~unlabeled)
    out = log_mix
    if rows.size:
        out = log_mix.copy()
        out[rows] = comp[rows, labels[rows]]

    def backward(g, needs, outs):
        w = _responsibilities(comp, log_pi, log_mix)
        if rows.size:
            w[rows] = 0.0
            w[rows, labels[rows]] = 1.0
        w *= g[:, None]
        dz = dmu = dlogits = dls = None
        if needs[0] or needs[2]:
            t = scaled * inv_scales
            t *= w[:, :, None]
            if needs[0]:
                dz = -np.sum(t, axis=1)
            if needs[2]:
                dmu = np.sum(t, axis=0, out=outs[2])
        if needs[1]:
            dlogits = np.subtract(np.sum(w[unlabeled], axis=0),
                                  np.sum(g[unlabeled]) * np.exp(log_pi),
                                  out=outs[1])
        if needs[3]:
            sq = scaled * scaled
            sq -= 1.0
            dls = np.einsum("nk,nkd->kd", w, sq, out=outs[3])
        return dz, dlogits, dmu, dls

    return Tensor(out, (z, logits, means, log_scales), backward)


def mixture_log_density_rows(z, mixture_logits, means, log_scales) -> Tensor:
    """log sum_k pi_k N(z | mu_k, Sigma_k) per row: the prior of rows
    that all lack a label."""
    z = wrap(z)
    return semi_supervised_log_prior_rows(
        z, np.full(z.shape[0], UNLABELED), mixture_logits, means, log_scales)


def labeled_log_density_rows(z, labels, means, log_scales) -> Tensor:
    """Log density of each row under its labeled component only."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels == UNLABELED):
        raise IndexError(f"component {UNLABELED} out of range")
    return semi_supervised_log_prior_rows(
        z, labels, np.zeros(wrap(means).shape[0]), means, log_scales)


def standard_normal_log_density_rows(z) -> Tensor:
    """Row-wise log N(z | 0, I), the vanilla-VAE prior, as one node."""
    z = wrap(z)
    out = -0.5 * np.sum(z.data * z.data, axis=1) - 0.5 * z.shape[1] * LOG_2PI
    return Tensor(out, (z,), lambda g, needs, outs: (-g[:, None] * z.data,))


# ---------------------------------------------------------------------------
# scalar / numpy convenience API
# ---------------------------------------------------------------------------

def _check_component(k: int, params: GmmParams):
    if not (0 <= k < params.n_components):
        raise IndexError(
            f"component {k} out of range for {params.n_components} components"
        )


def _check_vector(z, params: GmmParams) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != params.latent_dim:
        raise ContractViolation(
            f"expected a vector of length {params.latent_dim}, got shape {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise ContractViolation("z contains non-finite entries")
    return z


def log_component_density(z, k: int, params: GmmParams) -> float:
    """Log diagonal-Gaussian density of component ``k`` at vector ``z``."""
    _check_component(k, params)
    z = _check_vector(z, params)
    out = labeled_log_density_rows(
        z[None, :], np.array([k]), params.means, params.log_scales
    )
    return float(out.data[0])


def log_mixture_density(z, params: GmmParams) -> float:
    """Log of the full mixture density at vector ``z``."""
    z = _check_vector(z, params)
    out = mixture_log_density_rows(
        z[None, :], params.mixture_logits, params.means, params.log_scales
    )
    return float(out.data[0])


def log_prior(z, label: int | None, params: GmmParams) -> float:
    """Semi-supervised prior: labeled -> component density, else mixture."""
    if label is not None:
        _check_component(label, params)
        return log_component_density(z, label, params)
    return log_mixture_density(z, params)


def responsibilities(z, params: GmmParams) -> np.ndarray:
    """Posterior over components at ``z``: r_k ∝ pi_k N(z | mu_k, Sigma_k)."""
    z = _check_vector(z, params)
    _, _, comp, log_pi, log_mix = _mixture_scores(
        z[None, :], params.mixture_logits, params.means, params.log_scales)
    return _responsibilities(comp, log_pi, log_mix)[0]


def sample_component(
    k: int, params: GmmParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n i.i.d. draws from component ``k``."""
    _check_component(k, params)
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    eps = rng.standard_normal((n, params.latent_dim))
    return params.means[k] + params.scales()[k] * eps


def sample_mixture(params: GmmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw component indices from Cat(pi), then from those components."""
    if n < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    ks = rng.choice(params.n_components, size=n, p=params.weights())
    eps = rng.standard_normal((n, params.latent_dim))
    return params.means[ks] + params.scales()[ks] * eps
