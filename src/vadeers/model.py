"""The three-network model: a drug VAE with two decoders (DVAE), a
deterministic cell-line autoencoder (CAE), and a sensitivity prediction
network (DSPN) consuming the concatenation of the drug latent mean and
the cell latent.

All forward passes are built from the nnkernel ops, so every loss here
is differentiable end to end, including through the mixture prior.  A
model computes in its ``dtype``: float64 as built from arrays, float32 as
trained and loaded, against its float64 parameters as the master copy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gmm
from .exceptions import ContractViolation
from .nnkernel import (
    FlatStore,
    GradientTape,
    LayerSpec,
    Tensor,
    concat,
    in_row_parts,
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

# The mixture's parameter arrays, in the field order of gmm.GmmParams.
_GMM_ARRAYS = ("gmm.logits", "gmm.means", "gmm.log_scales")

ENTROPY_CONST = 0.5 * (1.0 + gmm.LOG_2PI)  # per-dimension Gaussian entropy at sigma=1

# Rows per eval-mode DSPN graph in predict_sensitivity.  Part edges at
# multiples of 48 rows keep OpenBLAS's row tiles where one product over
# all rows puts them, so every score keeps its bits.  At paper dims a
# part's activations stay in cache: 63,000 rows took 0.45 s in 512-row
# blocks against 0.76 s in 4096-row ones.  On one CPU they took as long
# in 240-row parts as in 512-row ones (587 vs 594 ms), and each part's
# first layer stays above OpenBLAS's small-matrix kernel.  Each
# thread's malloc arena keeps its largest part's activations: with the
# benchmark's train_desk, peak RSS was 78.4 MB with 240-row parts on two
# threads, 83.4 MB with 512-row parts, and 74.8 MB with 512-row blocks
# on one thread (one BLAS thread, 2-core Xeon VM).
PREDICT_BLOCK_ROWS = 240


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
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ContractViolation(f"loss weight {f.name} must be >= 0")

    def weigh(self, terms: dict[str, Tensor]) -> tuple[Tensor, dict[str, float]]:
        """The loss of the unweighted ``terms``, keyed by weight name, as
        one node, and each term times its signed weight, as a float.  The
        prior and entropy enter negated: the loss is the negative ELBO."""
        signed = [float(-getattr(self, k) if k in ("prior", "entropy")
                        else getattr(self, k)) for k in terms]
        return (weighted_sum(list(terms.values()), signed),
                {k: w * float(t.data) for (k, t), w in zip(terms.items(), signed)})


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


def _head(name: str, in_dim: int, out_dim: int) -> LayerChain:
    """A chain of one linear layer, named ``name`` (not ``name.out``)."""
    return LayerChain((name,), (LayerSpec(in_dim, out_dim, "identity"),),
                      ((f"{name}.W", f"{name}.b"),))


def entropy_mean(log_sigma) -> Tensor:
    """Batch mean of the analytical entropy of a diagonal Gaussian per
    row, D/2 (1 + ln 2 pi) + sum_d log sigma_d, as one node."""
    log_sigma = wrap(log_sigma)
    n, d = log_sigma.shape
    rows = np.sum(log_sigma.data, axis=1, dtype=np.float64) + d * ENTROPY_CONST
    return Tensor(rows.mean(), (log_sigma,), lambda g, needs, outs: (
        np.full((n, d), g / n, dtype=log_sigma.data.dtype),))


class VadeersModel:
    """Parameter store plus forward passes and losses for one variant.

    ``params`` is a :class:`FlatStore`: every parameter is a view of the
    one float64 vector ``flat``, in the order of the checkpoint payload,
    which is sorted-name order for every model built here or saved by
    :func:`~vadeers.training.save_checkpoint`.  Assigning a plain mapping
    to ``params`` copies it into a new store, in sorted-name order.

    Forward and backward passes compute in ``dtype``.  At float64 they read
    ``params`` itself.  At float32, which :func:`~vadeers.training.train`
    and :func:`~vadeers.training.load_checkpoint` choose, they read
    ``working``, a float32 copy of the float64 master made when ``params``
    is assigned (mixed precision as in Micikevicius et al. 2018,
    arXiv:1710.03740).  Only the optimizer writes into the master,
    through ``master``, and :func:`~vadeers.nnkernel.optim.adam_step`
    refreshes the copy over what it updates; ``params`` and ``flat`` are
    then read-only views of it, so a write into them raises instead of
    leaving the copy stale.  Assign a new mapping to ``params`` to change
    parameters."""

    def __init__(self, config: ModelConfig, params, dtype=np.float64):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params = params

    @property
    def params(self) -> FlatStore:
        return self._params

    @params.setter
    def params(self, arrays) -> None:
        master = (arrays if isinstance(arrays, FlatStore)
                  else FlatStore.from_arrays(arrays))
        self._master = self._params = self._working = master
        if self.dtype != master.flat.dtype:
            with np.errstate(over="ignore"):  # the layer checks report it
                flat = master.flat.astype(self.dtype)
            self._working = FlatStore(master.layout, flat)
            shown = master.flat.view()
            shown.flags.writeable = False
            self._params = FlatStore(master.layout, shown, master)

    @property
    def master(self) -> FlatStore:
        """The writable store under ``params``, for the optimizer alone."""
        return self._master

    @property
    def working(self) -> FlatStore:
        """The store the passes read: ``params`` in ``dtype``."""
        return self._working

    @property
    def flat(self) -> np.ndarray:
        return self._params.flat

    # ---- architecture ----------------------------------------------------

    @cached_property
    def chains(self) -> dict[str, LayerChain]:
        """Every layer chain by name, in initialization order; built and
        checked once, since the config is frozen.  The drug encoder's two
        Gaussian heads are one-layer chains on its trunk, and come last."""
        c = self.config
        trunk_out = (c.smiles_dim, *c.dvae_encoder_dims)[-1]
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
            "dvae.enc.mu": _head("dvae.enc.mu", trunk_out, c.latent_dim),
            "dvae.enc.logsig": _head("dvae.enc.logsig", trunk_out, c.latent_dim),
        }

    def _forward(self, chain: str, x, tape: GradientTape, mode: str = "eval",
                 rng: np.random.Generator | None = None) -> Tensor:
        layers = self.chains[chain]
        return mlp_forward(x, layers.specs,
                           [(tape(w), tape(b)) for w, b in layers.params],
                           mode=mode, rng=rng)

    def dense_layers(self) -> list[tuple[str, LayerSpec]]:
        """Every dense layer, in initialization order."""
        return [layer for chain in self.chains.values()
                for layer in zip(chain.names, chain.specs)]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter the config implies."""
        shapes: dict[str, tuple[int, ...]] = {}
        for name, spec in self.dense_layers():
            shapes[f"{name}.W"] = (spec.in_dim, spec.out_dim)
            shapes[f"{name}.b"] = (spec.out_dim,)
        if self.config.uses_gmm:
            k, d = self.config.n_components, self.config.latent_dim
            shapes.update(zip(_GMM_ARRAYS, ((k,), (k, d), (k, d))))
        return shapes

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator,
                   dtype=np.float64) -> "VadeersModel":
        params: dict[str, np.ndarray] = {}
        for name, spec in cls(config, {}).dense_layers():
            params[f"{name}.W"], params[f"{name}.b"] = init_layer_params(rng, spec)
        if config.uses_gmm:
            g = gmm.init_gmm(config.n_components, config.latent_dim, rng)
            params.update(zip(_GMM_ARRAYS, (getattr(g, f.name) for f in fields(g))))
        return cls(config, params, dtype)

    def copy(self) -> "VadeersModel":
        return VadeersModel(self.config, self.params.copy(), self.dtype)

    def frozen_names(self) -> frozenset[str]:
        if self.config.prior_variant == "gmm_constrained":
            return frozenset(_GMM_ARRAYS[-1:])  # the log-scales
        return frozenset()

    def tape(self) -> GradientTape:
        """A tape over ``working`` that keeps the frozen names constant."""
        return GradientTape(self._working, self.frozen_names())

    def _input(self, x) -> Tensor:
        """``x`` itself if it is a Tensor, else a constant leaf of it in
        ``dtype``; a value beyond its range becomes inf, which the input
        and layer checks report."""
        if isinstance(x, Tensor):
            return x
        with np.errstate(over="ignore"):
            return Tensor(np.asarray(x, dtype=self.dtype))

    def _checked_input(self, x, what: str, dim: str) -> Tensor:
        """``self._input(x)``, checked to be 2-D, finite, and as wide as
        the config's ``dim``."""
        x = self._input(x)
        if x.data.ndim != 2:
            raise ContractViolation(f"{what} input must be 2-D, got shape {x.shape}")
        if not np.all(np.isfinite(x.data)):
            raise ContractViolation(f"{what} input contains non-finite entries")
        want = getattr(self.config, dim)
        if x.shape[1] != want:
            raise ContractViolation(
                f"{what} input width {x.shape[1]} != {dim} {want}")
        return x

    def group_names(self, group: str) -> list[str]:
        """Parameter names of one subnetwork: dvae, cae, dspn, or gmm."""
        prefix = {"dvae": "dvae.", "cae": "cae.", "dspn": "dspn.", "gmm": "gmm."}[group]
        return sorted(n for n in self.params if n.startswith(prefix))

    def gmm_params(self) -> gmm.GmmParams | None:
        if not self.config.uses_gmm:
            return None
        return gmm.GmmParams(*(self.params[n] for n in _GMM_ARRAYS))

    # ---- forward passes ---------------------------------------------------

    def encode_drug(self, x, tape: GradientTape | None = None,
                    rng: np.random.Generator | None = None,
                    sample: bool = True) -> EncoderOutput:
        """Two-headed encoder; z via reparameterization with one draw
        from ``rng`` when ``sample`` is true.  ``x`` is checked: it is
        finite, 2-D and ``smiles_dim`` wide."""
        tape = tape or self.tape()
        h = self._forward("dvae.enc", self._checked_input(x, "drug", "smiles_dim"),
                          tape)
        mu = self._forward("dvae.enc.mu", h, tape)
        log_sigma = self._forward("dvae.enc.logsig", h, tape)
        if sample:
            z = reparameterize(mu, log_sigma, rng.standard_normal(mu.shape))
        else:
            z = mu
        return EncoderOutput(mu=mu, log_sigma=log_sigma, z=z)

    def decode_drug(self, z, tape: GradientTape | None = None) -> tuple[Tensor, Tensor]:
        """Two independent decoders on the same z: reconstruction of the
        drug embedding and prediction of the inhibition profile.  Output
        layers are linear."""
        tape = tape or self.tape()
        z = self._input(z)
        return (self._forward("dvae.dec_s", z, tape),
                self._forward("dvae.dec_i", z, tape))

    def cae_encode(self, x, tape: GradientTape | None = None) -> Tensor:
        tape = tape or self.tape()
        return self._forward("cae.enc", self._checked_input(x, "cell", "bio_dim"),
                             tape)

    def cae_decode(self, latent, tape: GradientTape | None = None) -> Tensor:
        tape = tape or self.tape()
        return self._forward("cae.dec", self._input(latent), tape)

    def dspn_predict(self, drug_latent, cell_latent,
                     tape: GradientTape | None = None, mode: str = "eval",
                     rng: np.random.Generator | None = None) -> Tensor:
        """Prediction head on [drug latent, cell latent], two (n,
        latent_dim) inputs; returns (n,)."""
        tape = tape or self.tape()
        x = concat([self._input(drug_latent), self._input(cell_latent)])
        out = self._forward("dspn", x, tape, mode=mode, rng=rng)
        return reshape(out, (out.shape[0],))

    # ---- losses ------------------------------------------------------------

    def prior_log_density_rows(self, z, labels, tape: GradientTape) -> Tensor:
        if not self.config.uses_gmm:
            return gmm.standard_normal_log_density_rows(z)
        return gmm.semi_supervised_log_prior_rows(
            z, labels, *(tape(n) for n in _GMM_ARRAYS))

    def dvae_terms(self, enc: EncoderOutput, recon: Tensor, ip_pred: Tensor,
                   ip, ip_mask, labels, x_smiles,
                   tape: GradientTape) -> dict[str, Tensor]:
        """The four unweighted DVAE loss terms, each averaged over the
        batch rows; a row whose ``ip_mask`` is 0 has no profile term."""
        return {
            "smiles_recon": row_mse(recon, x_smiles),
            "ip_recon": row_mse(ip_pred, ip, ip_mask),
            "prior": tmean(self.prior_log_density_rows(enc.z, labels, tape)),
            "entropy": entropy_mean(enc.log_sigma),
        }

    def dvae_loss_batch(self, tape: GradientTape, x_smiles, ip, ip_mask, labels,
                        rng: np.random.Generator):
        """The DVAE loss terms of a batch of drugs, and its encoding."""
        enc = self.encode_drug(x_smiles, tape, rng=rng, sample=True)
        recon, ip_pred = self.decode_drug(enc.z, tape)
        return self.dvae_terms(enc, recon, ip_pred, ip, ip_mask, labels,
                               x_smiles, tape), enc

    def cae_loss_batch(self, tape: GradientTape, x_bio) -> tuple[Tensor, Tensor]:
        """Deterministic autoencoder reconstruction error; also returns
        the latent codes."""
        latent = self.cae_encode(x_bio, tape)
        recon = self.cae_decode(latent, tape)
        return latent, row_mse(recon, x_bio)

    def total_loss(self, tape: GradientTape, batch: Batch, rng: np.random.Generator,
                   mode: str = "train") -> dict[str, Tensor]:
        """The six unweighted loss terms of one batch of at least one
        observed pair, the DVAE's four, then ``cae`` and ``dspn``.  The
        sensitivity term runs over the observed pairs only."""
        terms, enc = self.dvae_loss_batch(
            tape, batch.x_smiles, batch.ip, batch.ip_mask, batch.labels, rng)
        cell_latent, terms["cae"] = self.cae_loss_batch(tape, batch.x_bio)
        drug_latent = enc.z if self.config.dspn_input == "sample" else enc.mu
        preds = self.dspn_predict(take_rows(drug_latent, batch.pair_drug),
                                  take_rows(cell_latent, batch.pair_cell),
                                  tape, mode=mode, rng=rng)
        terms["dspn"] = row_mse(preds, batch.y)
        return terms

    # ---- eval helpers -------------------------------------------------------

    def drug_latent_means(self, x_smiles) -> np.ndarray:
        """Encoder means, no sampling (deterministic), in ``dtype``."""
        return self.encode_drug(x_smiles, sample=False).mu.data

    def cell_latents(self, x_bio) -> np.ndarray:
        """Cell latent codes, in ``dtype``."""
        return self.cae_encode(x_bio).data

    def predict_sensitivity(self, drug_latent, cell_latent) -> np.ndarray:
        """Deterministic eval-mode sensitivity prediction, scored through
        ``dspn_predict`` in parts of ``PREDICT_BLOCK_ROWS`` rows, so its
        memory does not grow with the row count.

        Parts start every ``PREDICT_BLOCK_ROWS`` rows and the leftover
        rows join the last part, so no part is shorter than that unless
        the whole input is.  A short part would change the product's
        last bits (a single row goes through numpy's matrix-vector path);
        with this rule the result is bit-identical to scoring every row
        in one graph, at one BLAS thread.  There, on two CPUs, the parts
        run on the caller and one worker thread
        (:func:`~vadeers.nnkernel.parts.in_row_parts`); the parts, and
        so the bits, are the same on one CPU.  The latents are scored in
        ``dtype``, and the scores returned as float64."""
        drug_latent = np.asarray(drug_latent, dtype=self.dtype)
        cell_latent = np.asarray(cell_latent, dtype=self.dtype)
        if drug_latent.shape != cell_latent.shape:
            raise ContractViolation(f"latent shapes differ: {drug_latent.shape} "
                                    f"vs {cell_latent.shape}")
        out = np.empty(drug_latent.shape[0])

        def score(rows: slice) -> None:
            out[rows] = self.dspn_predict(drug_latent[rows], cell_latent[rows],
                                          mode="eval").data

        in_row_parts(score, len(out), PREDICT_BLOCK_ROWS)
        return out
