"""The three-network model: a drug VAE with two decoders (DVAE), a
deterministic cell-line autoencoder (CAE), and a sensitivity prediction
network (DSPN) consuming the concatenation of the drug latent mean and
the cell latent.

All forward passes are built from the nnkernel ops, so every loss here
is differentiable end to end, including through the mixture prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gmm
from .exceptions import ContractViolation, NumericError
from .nnkernel import (
    FlatStore,
    GradientTape,
    LayerSpec,
    Tensor,
    as_matrix,
    concat,
    dense,
    init_layer_params,
    mlp_forward,
    reparameterize,
    reshape,
    take_rows,
    tmean,
    weighted_sum,
    wrap,
)
from .nnkernel.losses import row_mse

PRIOR_VARIANTS = ("vanilla", "gmm_constrained", "gmm_unconstrained")

ENTROPY_CONST = 0.5 * (1.0 + gmm.LOG_2PI)  # per-dimension Gaussian entropy at sigma=1

# Rows per eval-mode DSPN graph in predict_sensitivity.  At paper dims a
# block's activations stay in cache: 63,000 rows scored in 512-row blocks
# took 0.45 s, in 1024-row blocks 0.48 s, in 4096-row blocks 0.76 s, and
# in one block 0.70-0.76 s (one BLAS thread, 2-core Xeon VM).
PREDICT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class ModelConfig:
    smiles_dim: int = 300
    ip_dim: int = 294
    bio_dim: int = 241
    latent_dim: int = 10
    dvae_encoder_dims: tuple[int, ...] = (128, 64)
    decoder_dims: tuple[int, ...] = (64, 128)
    dspn_dims: tuple[int, ...] = (512, 256, 128)
    dspn_dropout: float = 0.5
    n_components: int = 3
    n_guiding_labels: int = 3
    prior_variant: str = "gmm_constrained"
    dspn_input: str = "mean"  # "mean" feeds the encoder mean to DSPN, "sample" the z draw

    def __post_init__(self):
        for name in ("smiles_dim", "ip_dim", "bio_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        if self.prior_variant not in PRIOR_VARIANTS:
            raise ContractViolation(
                f"prior_variant must be one of {PRIOR_VARIANTS}, "
                f"got {self.prior_variant!r}"
            )
        if self.n_guiding_labels > self.n_components:
            raise ContractViolation(
                f"n_guiding_labels ({self.n_guiding_labels}) exceeds "
                f"n_components ({self.n_components})"
            )
        if not (0.0 <= self.dspn_dropout < 1.0):
            raise ContractViolation("dspn_dropout must be in [0, 1)")
        if self.dspn_input not in ("mean", "sample"):
            raise ContractViolation("dspn_input must be 'mean' or 'sample'")
        if any(d < 1 for d in (*self.dvae_encoder_dims, *self.decoder_dims,
                               *self.dspn_dims)):
            raise ContractViolation("hidden dims must be >= 1")

    @property
    def uses_gmm(self) -> bool:
        return self.prior_variant != "vanilla"

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from its JSON form, in which the hidden dims are lists."""
        return cls(**{**d, **{key: tuple(d[key]) for key in
                              ("dvae_encoder_dims", "decoder_dims", "dspn_dims")}})


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the loss terms; the defaults are all 1."""

    smiles_recon: float = 1.0
    ip_recon: float = 1.0
    prior: float = 1.0
    entropy: float = 1.0
    cae: float = 1.0
    dspn: float = 1.0

    def __post_init__(self):
        for name in ("smiles_recon", "ip_recon", "prior", "entropy", "cae", "dspn"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"loss weight {name} must be >= 0")


@dataclass
class EncoderOutput:
    """Gaussian encoder output: z = mu + exp(log_sigma) * eps with
    eps ~ N(0, I) when sampled, else z = mu."""

    mu: Tensor
    log_sigma: Tensor
    z: Tensor


@dataclass
class Batch:
    """One training batch: the unique drugs and cells touched by a set of
    observed sensitivity pairs, plus the pair index triples."""

    x_smiles: np.ndarray          # (n_drugs, smiles_dim)
    ip: np.ndarray                # (n_drugs, ip_dim), zero rows where unprofiled
    ip_mask: np.ndarray           # (n_drugs,) 1.0 where the profile is real
    labels: np.ndarray            # (n_drugs,) guiding label or -1
    x_bio: np.ndarray             # (n_cells, bio_dim)
    pair_drug: np.ndarray         # (n_pairs,) index into the drug rows
    pair_cell: np.ndarray         # (n_pairs,) index into the cell rows
    y: np.ndarray                 # (n_pairs,) sensitivity targets


class LayerChain(NamedTuple):
    """A named chain of dense layers: the layer names, their specs, and
    the (weights, bias) parameter names of each layer."""

    names: tuple[str, ...]
    specs: tuple[LayerSpec, ...]
    params: tuple[tuple[str, str], ...]


def _chain(prefix: str, in_dim: int, hidden: tuple[int, ...],
           out_dim: int | None = None, dropout_rate: float = 0.0,
           dropout_layers: tuple[int, ...] = ()) -> LayerChain:
    """Relu hidden layers, then a linear output layer unless ``out_dim``
    is None."""
    dims = (in_dim, *hidden)
    layers = [(f"{prefix}.{i}",
               LayerSpec(dims[i], dims[i + 1], "relu",
                         dropout_rate if i in dropout_layers else 0.0))
              for i in range(len(hidden))]
    if out_dim is not None:
        layers.append((f"{prefix}.out", LayerSpec(dims[-1], out_dim, "identity")))
    names = tuple(n for n, _ in layers)
    return LayerChain(names, tuple(s for _, s in layers),
                      tuple((f"{n}.W", f"{n}.b") for n in names))


class _Binder:
    """Maps parameter names to tensors for one forward pass: trainable
    parameters register on the tape, frozen ones become constants."""

    def __init__(self, arrays: FlatStore,
                 tape: GradientTape | None, frozen: frozenset[str]):
        self._arrays = arrays
        self._tape = tape
        self._frozen = frozen
        self._cache: dict[str, Tensor] = {}

    def __call__(self, name: str) -> Tensor:
        t = self._cache.get(name)
        if t is None:
            arr = self._arrays[name]
            if self._tape is not None and name not in self._frozen:
                t = self._tape.parameter(name, arr)
            else:
                t = Tensor(arr, name=name)
            self._cache[name] = t
        return t

    def pairs(self, chain: LayerChain):
        return [(self(w), self(b)) for w, b in chain.params]


def entropy_mean(log_sigma) -> Tensor:
    """Batch mean of the analytical entropy of a diagonal Gaussian per
    row, D/2 (1 + ln 2 pi) + sum_d log sigma_d, as one node."""
    log_sigma = wrap(log_sigma)
    n, d = log_sigma.shape
    rows = np.sum(log_sigma.data, axis=1) + d * ENTROPY_CONST
    return Tensor(rows.mean(), (log_sigma,),
                  lambda g, needs, outs: (np.full((n, d), g / n),))


class VadeersModel:
    """Parameter store plus forward passes and losses for one variant.

    ``params`` is a :class:`FlatStore`: every parameter is a view of the
    one float64 vector ``flat``, in the order of the checkpoint payload,
    which is sorted-name order for every model built here or saved by
    :func:`~vadeers.training.save_checkpoint`.  Assigning a plain mapping
    to ``params`` copies it into a new store, in sorted-name order."""

    def __init__(self, config: ModelConfig, params):
        self.config = config
        self.params = params

    @property
    def params(self) -> FlatStore:
        return self._params

    @params.setter
    def params(self, arrays) -> None:
        self._params = (arrays if isinstance(arrays, FlatStore)
                        else FlatStore.from_arrays(arrays))

    @property
    def flat(self) -> np.ndarray:
        return self._params.flat

    # ---- architecture ----------------------------------------------------

    @cached_property
    def chains(self) -> dict[str, LayerChain]:
        """Every layer chain by name, in initialization order; built and
        checked once, since the config is frozen."""
        c = self.config
        return {
            "dvae.enc": _chain("dvae.enc", c.smiles_dim, c.dvae_encoder_dims),
            "dvae.dec_s": _chain("dvae.dec_s", c.latent_dim, c.decoder_dims,
                                 c.smiles_dim),
            "dvae.dec_i": _chain("dvae.dec_i", c.latent_dim, c.decoder_dims,
                                 c.ip_dim),
            "cae.enc": _chain("cae.enc", c.bio_dim, c.dvae_encoder_dims,
                              c.latent_dim),
            "cae.dec": _chain("cae.dec", c.latent_dim, c.decoder_dims, c.bio_dim),
            "dspn": _chain("dspn", 2 * c.latent_dim, c.dspn_dims, 1,
                           dropout_rate=c.dspn_dropout, dropout_layers=(0, 1)),
        }

    def _forward(self, chain: str, x, binder: _Binder, mode: str = "eval",
                 rng: np.random.Generator | None = None) -> Tensor:
        layers = self.chains[chain]
        return mlp_forward(x, layers.specs, binder.pairs(layers), mode=mode,
                           rng=rng)

    def _enc_trunk_out(self) -> int:
        c = self.config
        return c.dvae_encoder_dims[-1] if c.dvae_encoder_dims else c.smiles_dim

    def dense_layers(self) -> list[tuple[str, LayerSpec]]:
        """Every dense layer, in initialization order."""
        head = LayerSpec(self._enc_trunk_out(), self.config.latent_dim, "identity")
        return [*(layer for chain in self.chains.values()
                  for layer in zip(chain.names, chain.specs)),
                ("dvae.enc.mu", head), ("dvae.enc.logsig", head)]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter the config implies."""
        shapes: dict[str, tuple[int, ...]] = {}
        for name, spec in self.dense_layers():
            shapes[f"{name}.W"] = (spec.in_dim, spec.out_dim)
            shapes[f"{name}.b"] = (spec.out_dim,)
        if self.config.uses_gmm:
            k, d = self.config.n_components, self.config.latent_dim
            shapes["gmm.logits"] = (k,)
            shapes["gmm.means"] = (k, d)
            shapes["gmm.log_scales"] = (k, d)
        return shapes

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "VadeersModel":
        params: dict[str, np.ndarray] = {}
        for name, spec in cls(config, {}).dense_layers():
            params[f"{name}.W"], params[f"{name}.b"] = init_layer_params(rng, spec)
        if config.uses_gmm:
            g = gmm.init_gmm(
                config.n_components, config.latent_dim, rng,
                constrained=config.prior_variant == "gmm_constrained",
            )
            params["gmm.logits"] = g.mixture_logits
            params["gmm.means"] = g.means
            params["gmm.log_scales"] = g.log_scales
        return cls(config, params)

    def copy(self) -> "VadeersModel":
        return VadeersModel(self.config, self.params.copy())

    def frozen_names(self) -> frozenset[str]:
        if self.config.prior_variant == "gmm_constrained":
            return frozenset({"gmm.log_scales"})
        return frozenset()

    def binder(self, tape: GradientTape | None = None) -> _Binder:
        return _Binder(self.params, tape, self.frozen_names())

    def group_names(self, group: str) -> list[str]:
        """Parameter names of one subnetwork: dvae, cae, dspn, or gmm."""
        prefix = {"dvae": "dvae.", "cae": "cae.", "dspn": "dspn.", "gmm": "gmm."}[group]
        return sorted(n for n in self.params if n.startswith(prefix))

    def gmm_params(self) -> gmm.GmmParams | None:
        if not self.config.uses_gmm:
            return None
        return gmm.GmmParams(
            mixture_logits=self.params["gmm.logits"],
            means=self.params["gmm.means"],
            log_scales=self.params["gmm.log_scales"],
            constrained=self.config.prior_variant == "gmm_constrained",
        )

    # ---- forward passes ---------------------------------------------------

    def encode_drug(self, x, binder: _Binder | None = None,
                    rng: np.random.Generator | None = None,
                    sample: bool = True) -> EncoderOutput:
        """Two-headed encoder; z via reparameterization with one draw."""
        binder = binder or self.binder()
        x = wrap(x)
        as_matrix(x.data, "drug input")
        if x.shape[1] != self.config.smiles_dim:
            raise ContractViolation(
                f"drug input width {x.shape[1]} != smiles_dim "
                f"{self.config.smiles_dim}"
            )
        h = self._forward("dvae.enc", x, binder)
        mu = dense(h, binder("dvae.enc.mu.W"), binder("dvae.enc.mu.b"))
        log_sigma = dense(h, binder("dvae.enc.logsig.W"), binder("dvae.enc.logsig.b"))
        if not (np.all(np.isfinite(mu.data)) and np.all(np.isfinite(log_sigma.data))):
            raise NumericError("non-finite encoder head output")
        if sample:
            if rng is None:
                raise ContractViolation("sampling encoder requires an rng")
            z = reparameterize(mu, log_sigma, rng.standard_normal(mu.shape))
        else:
            z = mu
        return EncoderOutput(mu=mu, log_sigma=log_sigma, z=z)

    def decode_drug(self, z, binder: _Binder | None = None) -> tuple[Tensor, Tensor]:
        """Two independent decoders on the same z: reconstruction of the
        drug embedding and prediction of the inhibition profile.  Output
        layers are linear."""
        binder = binder or self.binder()
        z = wrap(z)
        return (self._forward("dvae.dec_s", z, binder),
                self._forward("dvae.dec_i", z, binder))

    def cae_encode(self, x, binder: _Binder | None = None) -> Tensor:
        binder = binder or self.binder()
        x = wrap(x)
        as_matrix(x.data, "cell input")
        if x.shape[1] != self.config.bio_dim:
            raise ContractViolation(
                f"cell input width {x.shape[1]} != bio_dim {self.config.bio_dim}"
            )
        return self._forward("cae.enc", x, binder)

    def cae_decode(self, latent, binder: _Binder | None = None) -> Tensor:
        binder = binder or self.binder()
        return self._forward("cae.dec", latent, binder)

    def dspn_predict(self, drug_latent, cell_latent,
                     binder: _Binder | None = None, mode: str = "eval",
                     rng: np.random.Generator | None = None) -> Tensor:
        """Prediction head on [drug latent, cell latent]; returns (n,)."""
        binder = binder or self.binder()
        drug_latent, cell_latent = wrap(drug_latent), wrap(cell_latent)
        _check_latent_shapes(drug_latent.shape, cell_latent.shape)
        x = concat([drug_latent, cell_latent], axis=1)
        out = self._forward("dspn", x, binder, mode=mode, rng=rng)
        return reshape(out, (out.shape[0],))

    # ---- losses ------------------------------------------------------------

    def prior_log_density_rows(self, z, labels, binder: _Binder) -> Tensor:
        if not self.config.uses_gmm:
            return gmm.standard_normal_log_density_rows(z)
        return gmm.semi_supervised_log_prior_rows(
            z, labels,
            binder("gmm.logits"), binder("gmm.means"), binder("gmm.log_scales"),
        )

    def dvae_terms(self, enc: EncoderOutput, recon: Tensor, ip_pred: Tensor,
                   ip, ip_mask, labels, x_smiles,
                   weights: LossWeights, binder: _Binder):
        """Weighted DVAE loss terms averaged over the batch rows; a row
        whose ``ip_mask`` is 0 has no profile term.  Returns the total
        and the breakdown."""
        prior = tmean(self.prior_log_density_rows(enc.z, labels, binder))
        terms = {
            "smiles_recon": (weights.smiles_recon, row_mse(recon, x_smiles)),
            "ip_recon": (weights.ip_recon, row_mse(ip_pred, ip, ip_mask)),
            "prior": (-weights.prior, prior),
            "entropy": (-weights.entropy, entropy_mean(enc.log_sigma)),
        }
        total = weighted_sum([t for _, t in terms.values()],
                             [w for w, _ in terms.values()])
        return total, {name: weighted_sum([t], [w])
                       for name, (w, t) in terms.items()}

    def dvae_loss_batch(self, binder: _Binder, x_smiles, ip, ip_mask, labels,
                        weights: LossWeights, rng: np.random.Generator):
        """Mean single-compound DVAE loss over a batch of drugs."""
        enc = self.encode_drug(x_smiles, binder, rng=rng, sample=True)
        recon, ip_pred = self.decode_drug(enc.z, binder)
        total, parts = self.dvae_terms(enc, recon, ip_pred, ip, ip_mask,
                                       labels, x_smiles, weights, binder)
        return total, parts, enc

    def cae_loss_batch(self, binder: _Binder, x_bio) -> tuple[Tensor, Tensor]:
        """Deterministic autoencoder reconstruction error; also returns
        the latent codes."""
        latent = self.cae_encode(x_bio, binder)
        recon = self.cae_decode(latent, binder)
        return latent, row_mse(recon, x_bio)

    def total_loss(self, binder: _Binder, batch: Batch, weights: LossWeights,
                   rng: np.random.Generator, mode: str = "train"):
        """Composite loss over one batch of at least one observed pair;
        returns (loss, breakdown).  The sensitivity term runs over the
        observed pairs only."""
        dvae_total, parts, enc = self.dvae_loss_batch(
            binder, batch.x_smiles, batch.ip, batch.ip_mask, batch.labels,
            weights, rng,
        )
        cell_latent, cae_term = self.cae_loss_batch(binder, batch.x_bio)
        drug_latent = enc.z if self.config.dspn_input == "sample" else enc.mu
        preds = self.dspn_predict(take_rows(drug_latent, batch.pair_drug),
                                  take_rows(cell_latent, batch.pair_cell),
                                  binder, mode=mode, rng=rng)
        dspn_term = row_mse(preds, batch.y)
        parts = {**parts,
                 "cae": weighted_sum([cae_term], [weights.cae]),
                 "dspn": weighted_sum([dspn_term], [weights.dspn])}
        total = weighted_sum([dvae_total, cae_term, dspn_term],
                             [1.0, weights.cae, weights.dspn])
        return total, parts

    # ---- eval helpers -------------------------------------------------------

    def drug_latent_means(self, x_smiles) -> np.ndarray:
        """Encoder means, no sampling (deterministic)."""
        return self.encode_drug(x_smiles, sample=False).mu.data

    def cell_latents(self, x_bio) -> np.ndarray:
        return self.cae_encode(x_bio).data

    def predict_sensitivity(self, drug_latent, cell_latent) -> np.ndarray:
        """Deterministic eval-mode sensitivity prediction, scored through
        ``dspn_predict`` in blocks of ``PREDICT_BLOCK_ROWS`` rows, so its
        memory does not grow with the row count.

        Blocks start every ``PREDICT_BLOCK_ROWS`` rows and the leftover
        rows join the last block, so no block is shorter than that unless
        the whole input is.  A short block would change the product's
        last bits (a single row goes through numpy's matrix-vector path);
        with this rule the result is bit-identical to scoring every row
        in one graph, at one BLAS thread.  There a block of at least
        ``2 * SPLIT_ROWS`` rows runs the DSPN's widest forward
        product on two cores (:func:`~vadeers.nnkernel.autodiff.dense`),
        whose row rule keeps those bits."""
        drug_latent = np.asarray(drug_latent, dtype=np.float64)
        cell_latent = np.asarray(cell_latent, dtype=np.float64)
        _check_latent_shapes(drug_latent.shape, cell_latent.shape)
        n = drug_latent.shape[0]
        stops = [*range(PREDICT_BLOCK_ROWS, n - PREDICT_BLOCK_ROWS + 1,
                        PREDICT_BLOCK_ROWS), n]
        out = np.empty(n)
        start = 0
        for stop in stops:
            out[start:stop] = self.dspn_predict(
                drug_latent[start:stop], cell_latent[start:stop], mode="eval").data
            start = stop
        return out


def _check_latent_shapes(drug_shape, cell_shape):
    if drug_shape != cell_shape:
        raise ContractViolation(
            f"latent shapes differ: {drug_shape} vs {cell_shape}"
        )
