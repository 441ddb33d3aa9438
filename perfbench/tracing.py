"""Span tracing for the benchmark's per-layer run.

The tracer wraps public functions and methods of each vadeers layer from
the outside: every module attribute that refers to a traced function is
swapped for a wrapper for the duration of a traced pass and restored
afterwards, so nothing under ``src/`` carries a hook.  Spans
(name, start, end, parent) and counts are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute path) of every traced public call
TARGETS = (
    ("nnkernel.autodiff.gradient", "vadeers.nnkernel.autodiff", "GradientTape.gradient"),
    ("nnkernel.layers.mlp_forward", "vadeers.nnkernel.layers", "mlp_forward"),
    ("nnkernel.optim.adam_step", "vadeers.nnkernel.optim", "adam_step"),
    ("gmm.log_prior", "vadeers.gmm", "semi_supervised_log_prior_rows"),
    ("gmm.sample", "vadeers.gmm", "sample_component"),
    ("model.total_loss", "vadeers.model", "VadeersModel.total_loss"),
    ("model.dvae_loss_batch", "vadeers.model", "VadeersModel.dvae_loss_batch"),
    ("model.dspn_predict", "vadeers.model", "VadeersModel.dspn_predict"),
    ("model.drug_latent_means", "vadeers.model", "VadeersModel.drug_latent_means"),
    ("model.cell_latents", "vadeers.model", "VadeersModel.cell_latents"),
    ("model.predict_sensitivity", "vadeers.model", "VadeersModel.predict_sensitivity"),
    ("model.decode_drug", "vadeers.model", "VadeersModel.decode_drug"),
    ("training.train", "vadeers.training", "train"),
    ("training.build_pair_batch", "vadeers.training", "build_pair_batch"),
    ("training.model_copy", "vadeers.model", "VadeersModel.copy"),
    ("training.save_checkpoint", "vadeers.training", "save_checkpoint"),
    ("training.load_checkpoint", "vadeers.training", "load_checkpoint"),
    ("data.load_csv", "vadeers.data", "load_csv"),
    ("data.save_csv", "vadeers.data", "save_csv"),
    ("data.derive_guiding_labels", "vadeers.data", "derive_guiding_labels"),
    ("data.standardize", "vadeers.data", "standardize"),
    ("data.apply_scaler", "vadeers.data", "apply_scaler"),
    ("metrics.evaluate", "vadeers.metrics", "evaluate"),
    ("metrics.predict_pairs", "vadeers.metrics", "predict_pairs"),
    ("metrics.silhouette", "vadeers.metrics", "silhouette"),
    ("metrics.generation_fidelity", "vadeers.metrics", "generation_fidelity"),
)

PHASES = ("joint", "break", "dspn")
MLP_CHAINS = ("dvae.enc", "dvae.dec_s", "dvae.dec_i", "cae.enc", "cae.dec", "dspn")
CLI_COMMANDS = ("train", "predict", "generate", "evaluate")
EVAL_FORWARD = ("model.drug_latent_means", "model.cell_latents",
                "model.predict_sensitivity", "model.decode_drug")
TRAINING_LOSSES = ("model.total_loss", "model.dvae_loss_batch")


def _graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``Tensor.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _chain_key(params) -> str:
    """Chain name from the first weight's tensor name: 'dvae.enc.0.W' ->
    'dvae.enc'."""
    name = getattr(params[0][0], "name", None) if len(params) else None
    return name.rsplit(".", 2)[0] if name else "unnamed"


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.phase: str | None = None
        self._last_step: float | None = None
        self._bookkeeping = 0.0  # tracer time since the last step ended
        self.step_ms: dict[str, list[float]] = {p: [] for p in PHASES}
        self.nodes: dict[str, list[int]] = {p: [] for p in PHASES}
        self.adam_params: list[int] = []
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run the block untraced (output checks, client start-up)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # ---- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    # ---- hooks at the layer boundaries --------------------------------------

    def _before(self, name: str, args, kwargs):
        if name == "model.total_loss":
            self.phase = "joint"
        elif name == "model.dvae_loss_batch" and not self._inside(("model.total_loss",)):
            self.phase = "break"
        elif (name == "model.dspn_predict" and kwargs.get("mode") == "train"
              and not self._inside(("model.total_loss",))):
            self.phase = "dspn"
        elif name == "training.train":
            self._last_step = None
        elif name == "nnkernel.autodiff.gradient" and self.phase:
            t0 = time.perf_counter()
            self.nodes[self.phase].append(_graph_nodes(args[1]))
            self._bookkeeping += time.perf_counter() - t0

    def _after(self, name: str, args):
        """At each ``adam_step`` return, close the step interval.  The
        graph walk and the parameter count are tracer work, so they are
        left out of it."""
        if name != "nnkernel.optim.adam_step":
            return
        now = time.perf_counter()
        if self._last_step is not None and self.phase:
            self.step_ms[self.phase].append(
                (now - self._last_step - self._bookkeeping) * 1e3)
        if self.phase:
            self.counts[f"steps.{self.phase}"] += 1
        self.adam_params.append(sum(int(g.size) for g in args[1].values()))
        self._bookkeeping = 0.0
        self._last_step = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "nnkernel.layers.mlp_forward":
                params = args[2] if len(args) > 2 else kwargs["params"]
                span_name = f"{name}.{_chain_key(params)}"
            self._before(name, args, kwargs)
            idx = self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._after(name, args)
        return traced

    # ---- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap every module-level and class-level reference to a traced
        function for its wrapper; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vadeers" or n.startswith("vadeers.")]
        try:
            for span_name, module_name, path in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(span_name, original)
                if outer:   # a method: patch the class only
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # ---- output ----------------------------------------------------------------

    def write(self, path):
        """Write spans and counts as one gzip-compressed JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "step_ms": self.step_ms,
            "nodes_per_step": self.nodes,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as name -> (value, unit).

    Times are inclusive span durations summed over the outermost spans of
    a name (a span nested in one of the same name is not counted twice);
    ``cli.*.self_s`` is command wall time minus its direct child spans.
    """
    spans = tracer.spans
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    def has_ancestor(i, group) -> bool:
        p = parents[i]
        while p >= 0:
            if names[p] in group:
                return True
            p = parents[p]
        return False

    def total(group, not_under=()) -> float:
        group = set(group)
        blocked = group | set(not_under)
        return sum(dur[i] for i, n in enumerate(names)
                   if n in group and not has_ancestor(i, blocked))

    def calls(name) -> int:
        return sum(1 for n in names if n == name)

    out: dict[str, tuple[float, str]] = {}
    out["nnkernel.autodiff.gradient_s"] = (total(["nnkernel.autodiff.gradient"]), "s")
    out["nnkernel.autodiff.gradient_calls"] = (calls("nnkernel.autodiff.gradient"), "count")
    for phase in PHASES:
        nodes = tracer.nodes[phase]
        out[f"nnkernel.autodiff.nodes_per_step.{phase}"] = (
            float(np.median(nodes)) if nodes else 0.0, "count")
    for chain in MLP_CHAINS:
        out[f"nnkernel.layers.mlp_forward_s.{chain}"] = (
            total([f"nnkernel.layers.mlp_forward.{chain}"]), "s")
    out["nnkernel.optim.adam_step_s"] = (total(["nnkernel.optim.adam_step"]), "s")
    out["nnkernel.optim.adam_params_per_step"] = (
        float(np.mean(tracer.adam_params)) if tracer.adam_params else 0.0, "count")
    out["gmm.log_prior_s"] = (total(["gmm.log_prior"]), "s")
    out["gmm.sample_s"] = (total(["gmm.sample"]), "s")
    out["model.total_loss_s"] = (total(["model.total_loss"]), "s")
    out["model.dvae_loss_batch_s"] = (
        total(["model.dvae_loss_batch"], not_under=["model.total_loss"]), "s")
    out["model.dspn_predict_s"] = (
        total(["model.dspn_predict"], not_under=EVAL_FORWARD), "s")
    out["model.eval_forward_s"] = (total(EVAL_FORWARD, not_under=TRAINING_LOSSES), "s")
    for phase in PHASES:
        steps = tracer.step_ms[phase]
        out[f"training.step_ms_p50.{phase}"] = (_percentile(steps, 50), "ms")
        out[f"training.step_ms_p99.{phase}"] = (_percentile(steps, 99), "ms")
        out[f"training.steps.{phase}"] = (tracer.counts.get(f"steps.{phase}", 0), "count")
        out[f"training.phase_s.{phase}"] = (sum(steps) / 1e3, "s")
    for short in ("build_pair_batch", "model_copy", "save_checkpoint", "load_checkpoint"):
        out[f"training.{short}_s"] = (total([f"training.{short}"]), "s")
    out["data.load_csv_s"] = (total(["data.load_csv"]), "s")
    out["data.save_csv_s"] = (total(["data.save_csv"]), "s")
    out["data.derive_guiding_labels_s"] = (total(["data.derive_guiding_labels"]), "s")
    out["data.standardize_s"] = (total(["data.standardize", "data.apply_scaler"]), "s")
    for short in ("evaluate", "predict_pairs", "silhouette", "generation_fidelity"):
        out[f"metrics.{short}_s"] = (total([f"metrics.{short}"]), "s")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = (
            sum(dur[i] - child[i] for i, n in enumerate(names) if n == f"cli.{cmd}"), "s")
    return out
