"""Independent reference implementations used to check the library.

Everything here is deliberately naive (scalar loops, brute-force sums,
finite differences, exhaustive enumeration) and shares no code with the
implementations under test.
"""

import itertools
import math

import numpy as np


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
