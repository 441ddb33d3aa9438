"""Independent reference implementations used to check the library.

Everything here is deliberately naive (scalar loops, brute-force sums,
finite differences, exhaustive enumeration) and shares no code with the
implementations under test.  The one exception is the section of
tensor-composed loss terms: they are built from the kernel's primitive
autodiff ops, one op per step of the formula, and serve as value and
gradient oracles for the library's single-node loss terms.  The CSV
section is the ``csv``-module reader and writer that the library's array
codec replaced, kept as its parity oracle.
"""

import csv
import itertools
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from vadeers.exceptions import DataError
from vadeers.nnkernel import (
    add,
    exp,
    logsumexp,
    mul,
    neg,
    reshape,
    square,
    sub,
    take_rows,
    tmean,
    tsum,
    wrap,
)

LOG_2PI = float(np.log(2.0 * np.pi))


def matmul_loops(a, b):
    a, b = np.asarray(a), np.asarray(b)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def mse_loops(a, b):
    a, b = np.asarray(a), np.asarray(b)
    total = 0.0
    count = 0
    for x, y in zip(a.ravel(), b.ravel()):
        total += (x - y) ** 2
        count += 1
    return total / count


def gaussian_logpdf_fsum(z, mu, sigma):
    """Diagonal-Gaussian log density with fsum accumulation."""
    terms = []
    for zi, mi, si in zip(z, mu, sigma):
        terms.append(-0.5 * math.log(2.0 * math.pi * si * si))
        terms.append(-0.5 * ((zi - mi) / si) ** 2)
    return math.fsum(terms)


def mixture_logpdf_bruteforce(z, weights, means, scales):
    """log sum_k pi_k N_k evaluated in plain arithmetic (no LSE trick)."""
    total = 0.0
    for pi, mu, sigma in zip(weights, means, scales):
        total += pi * math.exp(gaussian_logpdf_fsum(z, mu, sigma))
    return math.log(total)


def responsibilities_bayes(z, weights, means, scales):
    """Unnormalized products then normalize."""
    raw = np.array([
        pi * math.exp(gaussian_logpdf_fsum(z, mu, sigma))
        for pi, mu, sigma in zip(weights, means, scales)
    ])
    return raw / raw.sum()


def entropy_mc(log_sigma, n_draws, rng):
    """-E[log q] for q = N(mu, diag(sigma^2)); mu drops out."""
    sigma = np.exp(np.asarray(log_sigma, dtype=np.float64))
    d = sigma.shape[0]
    eps = rng.standard_normal((n_draws, d))
    z = sigma * eps  # centered draws
    logq = (-0.5 * d * np.log(2 * np.pi) - np.log(sigma).sum()
            - 0.5 * np.sum((z / sigma) ** 2, axis=1))
    return -logq.mean()


# ---------------------------------------------------------------------------
# tensor-composed loss terms
# ---------------------------------------------------------------------------

def component_log_densities(z, means, log_scales):
    """Log density of every component at every row of ``z``: (n, K)."""
    z, means, log_scales = wrap(z), wrap(means), wrap(log_scales)
    n, d = z.shape
    k = means.shape[0]
    z3 = reshape(z, (n, 1, d))
    mu3 = reshape(means, (1, k, d))
    inv_scale3 = reshape(exp(neg(log_scales)), (1, k, d))
    scaled = mul(sub(z3, mu3), inv_scale3)
    quad = tsum(square(scaled), axis=2)
    log_norm = add(
        mul(wrap(0.5 * d * LOG_2PI), wrap(np.ones((1, k)))),
        reshape(tsum(log_scales, axis=1), (1, k)),
    )
    return sub(mul(wrap(-0.5), quad), log_norm)


def log_weights(mixture_logits):
    """Log softmax of the mixture logits."""
    logits = wrap(mixture_logits)
    return sub(logits, logsumexp(logits, axis=0, keepdims=True))


def semi_supervised_log_prior_rows(z, labels, mixture_logits, means,
                                   log_scales):
    """Labeled rows under their component, the rest (label -1) under the
    mixture, blended by a 0/1 mask."""
    z = wrap(z)
    labels = np.asarray(labels, dtype=np.int64)
    comp = component_log_densities(z, means, log_scales)
    k = comp.shape[1]
    lw = reshape(log_weights(mixture_logits), (1, k))
    mix = logsumexp(add(comp, lw), axis=1)
    if np.all(labels == -1):
        return mix
    idx = np.where(labels == -1, 0, labels)
    mu = take_rows(means, idx)
    ls = take_rows(log_scales, idx)
    quad = tsum(square(mul(sub(z, mu), exp(neg(ls)))), axis=1)
    log_norm = add(wrap(0.5 * z.shape[1] * LOG_2PI), tsum(ls, axis=1))
    lab = sub(mul(wrap(-0.5), quad), log_norm)
    mask = wrap((labels != -1).astype(np.float64))
    return add(mul(mask, lab), mul(sub(wrap(np.ones_like(mask.data)), mask),
                                   mix))


def standard_normal_log_density_rows(z):
    z = wrap(z)
    quad = tsum(square(z), axis=1)
    return sub(mul(wrap(-0.5), quad), wrap(0.5 * z.shape[1] * LOG_2PI))


def reparameterize(mu, log_sigma, eps):
    return add(mu, mul(exp(log_sigma), wrap(eps)))


def entropy_rows(log_sigma):
    """D/2 (1 + ln 2 pi) + sum_d log sigma_d per row."""
    log_sigma = wrap(log_sigma)
    d = log_sigma.shape[1]
    return add(tsum(log_sigma, axis=1), wrap(d * 0.5 * (1.0 + LOG_2PI)))


def mse_rows(a, b):
    """Per-row mean squared error of 2-D inputs."""
    return tmean(square(sub(wrap(a), wrap(b))), axis=1)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_partial(f, params, name, index, h=1e-5):
    """Central difference of scalar f(params) w.r.t. one coordinate."""
    plus = {k: v.copy() for k, v in params.items()}
    minus = {k: v.copy() for k, v in params.items()}
    plus[name].flat[index] += h
    minus[name].flat[index] -= h
    return (f(plus) - f(minus)) / (2.0 * h)


def gradcheck(f, params, grads, rng, n_coords=100, h=1e-5,
              rtol=1e-4, atol=1e-9):
    """Compare analytic ``grads`` against central differences on up to
    ``n_coords`` randomly chosen coordinates; returns the worst case as
    (ok, detail)."""
    coords = []
    for name, arr in sorted(params.items()):
        coords.extend((name, i) for i in range(arr.size))
    if len(coords) > n_coords:
        pick = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in pick]
    worst = (True, "")
    worst_err = 0.0
    for name, i in coords:
        fd = fd_partial(f, params, name, i, h=h)
        ad = grads[name].flat[i]
        err = abs(fd - ad)
        tol = atol + rtol * max(abs(fd), abs(ad))
        if err > tol and err > worst_err:
            worst_err = err
            worst = (False, f"{name}[{i}]: fd={fd:.8g} ad={ad:.8g} err={err:.3g}")
    return worst


def assert_close(got, want, rel):
    """Largest entry error within ``rel`` of the larger of 1 and the
    largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    assert err <= rel * scale, f"error {err:.3g} at scale {scale:.3g}"


# ---------------------------------------------------------------------------
# optimizer oracle
# ---------------------------------------------------------------------------

def adam_out_of_place(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                      eps=1e-8):
    """One Adam step as fresh arrays, in the library's expression order;
    returns (params, m, v) as new dicts, inputs untouched."""
    params, m, v = dict(params), dict(m), dict(v)
    for name, g in grads.items():
        p = params[name]
        mm = m.get(name, np.zeros_like(p))
        vv = v.get(name, np.zeros_like(p))
        mm = beta1 * mm + (1.0 - beta1) * g
        vv = beta2 * vv + (1.0 - beta2) * (g * g)
        m_hat = mm / (1.0 - beta1**t)
        v_hat = vv / (1.0 - beta2**t)
        stepped = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        params[name] = np.where(g == 0.0, p, stepped)
        m[name], v[name] = mm, vv
    return params, m, v


# ---------------------------------------------------------------------------
# clustering / stats oracles
# ---------------------------------------------------------------------------

def silhouette_loops(points, labels):
    """Mean silhouette with one Python pass per point; singleton members
    score 0, and so does a point with max(a, b) == 0.  Distances use the
    library's Gram-matrix formula, so only the per-cluster sums differ."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    sq = np.sum(points**2, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (points @ points.T),
                              0.0))
    scores = []
    for i in range(n):
        own = labels == labels[i]
        if own.sum() <= 1:
            scores.append(0.0)
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, labels == lab].mean() for lab in set(labels.tolist())
                if lab != labels[i])
        scores.append(0.0 if max(a, b) == 0.0 else (b - a) / max(a, b))
    return math.fsum(scores) / n


def silhouette_full_matrix(points, labels):
    """Mean silhouette from the n x n distance matrix built in one
    expression, ``sqrt(max(sq_i + sq_j - 2 G_ij, 0))``, and one product
    with the one-hot label matrix."""
    points = np.asarray(points, dtype=np.float64)
    _, own = np.unique(np.asarray(labels), return_inverse=True)
    sq = np.sum(points**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    counts = np.bincount(own)
    sums = dist @ (own[:, None] == np.arange(counts.size)).astype(np.float64)
    rows = np.arange(points.shape[0])
    n_own = counts[own]
    a = sums[rows, own] / np.maximum(n_own - 1, 1)
    mean_to = sums / counts
    mean_to[rows, own] = np.inf
    b = mean_to.min(axis=1)
    top = np.maximum(a, b)
    scores = np.divide(b - a, top, out=np.zeros_like(top), where=top != 0.0)
    scores[n_own <= 1] = 0.0
    return float(scores.mean())


def exhaustive_kmeans_inertia(points, k):
    """Optimal k-means inertia by enumerating every assignment (n small)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        groups = [[] for _ in range(k)]
        for i, a in enumerate(assign):
            groups[a].append(i)
        inertia = 0.0
        for g in groups:
            if not g:
                continue
            member = points[g]
            c = member.mean(axis=0)
            inertia += float(((member - c) ** 2).sum())
        best = min(best, inertia)
    return best


def cluster_stats_two_pass(rows, labels):
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels)
    out = {}
    for lab in sorted(set(labels.tolist())):
        member = rows[labels == lab]
        mean = np.array([math.fsum(member[:, j]) / member.shape[0]
                         for j in range(member.shape[1])])
        var = np.array([
            math.fsum((member[:, j] - mean[j]) ** 2) / member.shape[0]
            for j in range(member.shape[1])
        ])
        out[lab] = (mean, np.sqrt(var))
    return out


def covariance_eigvals(points):
    points = np.asarray(points, dtype=np.float64)
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / points.shape[0]
    vals = np.linalg.eigvalsh(cov)
    return np.sort(vals)[::-1]


def hungarian_agreement(pred, truth, k):
    """Best label-permutation agreement rate (k small: brute force)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float(np.mean(mapped == truth)))
    return best


# ---------------------------------------------------------------------------
# CSV codec: the csv-module reader and writer the array codec replaced
# ---------------------------------------------------------------------------

def _read_rows(path: Path, n_cols: int) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV whose every row has ``n_cols`` fields."""
    if not path.exists():
        raise DataError(f"missing file {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path.name}: empty file")
    header, body = rows[0], rows[1:]
    if len(header) != n_cols:
        raise DataError(
            f"{path.name}: expected {n_cols} columns, header has {len(header)}"
        )
    widths = np.fromiter(map(len, body), dtype=np.intp, count=len(body))
    odd = np.flatnonzero(widths != n_cols)
    if odd.size:
        r, n = int(odd[0]), int(widths[odd[0]])
        where = (f"column {header[n]}" if n < n_cols
                 else f"after column {header[-1]}")
        raise DataError(f"{path.name}: row {r + 1}, {where}: row has "
                        f"{n} fields, expected {n_cols}")
    return header, body


def _values(path: Path, header: list[str], body: list[list[str]],
            first: int) -> np.ndarray:
    """Columns ``first:`` of the data rows as a float64 matrix; a failure
    is named by scanning the rows cell by cell."""
    width = len(header) - first
    try:
        flat = np.fromiter(
            map(float, chain.from_iterable(map(itemgetter(slice(first, None)),
                                               body))),
            dtype=np.float64, count=len(body) * width)
    except ValueError:
        for r, row in enumerate(body, start=1):
            for c, token in enumerate(row[first:], start=first):
                try:
                    float(token)
                except ValueError:
                    raise DataError(f"{path.name}: row {r}, column {header[c]}: "
                                    f"non-numeric value {token!r}") from None
        raise
    values = flat.reshape(len(body), width)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path.name}: row {r + 1}, column "
                        f"{header[first + c]}: non-finite value")
    return values


def csv_read_table(path, n_ids, width):
    """The id columns and float matrix of a table CSV, read with
    ``csv.reader`` and ``float``."""
    path = Path(path)
    header, body = _read_rows(path, n_ids + width)
    return ([[row[k] for row in body] for k in range(n_ids)],
            _values(path, header, body, n_ids))


def csv_write_table(path, header, id_columns, values):
    """A table CSV written field by field with ``csv.writer``, floats as
    ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for ids, row in zip(zip(*id_columns), np.asarray(values).tolist()):
            w.writerow(list(ids) + [repr(float(x)) for x in row])
