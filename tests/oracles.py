"""Independent dense/brute-force reference implementations.

Everything here is written the slow, obvious way (loops, np.diag,
np.linalg) and deliberately shares no code with the package, so the
sparse/cached implementations have something honest to be checked
against.
"""

import math

import numpy as np
from scipy.stats import norm, rankdata


def dense_incidence(edges, n):
    h = np.zeros((n, len(edges)))
    for j, members in enumerate(edges):
        for i in members:
            h[i, j] = 1.0
    return h


def brute_node_adjacency(edges, n):
    """A[i, j] = number of hyperedges containing both i and j (i != j)."""
    a = np.zeros((n, n))
    for members in edges:
        for i in members:
            for j in members:
                if i != j:
                    a[i, j] += 1.0
    return a


def brute_hyperedge_adjacency(edges, n):
    m = len(edges)
    a = np.zeros((m, m))
    sets = [set(e) for e in edges]
    for j in range(m):
        for k in range(m):
            if j != k:
                a[j, k] = len(sets[j] & sets[k])
    return a


def dense_transitions(edges, n):
    h = dense_incidence(edges, n)
    d = h.sum(axis=1)
    d_e = h.sum(axis=0)
    d_inv = np.diag(np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0))
    de_inv = np.diag(1.0 / d_e)
    p = h @ de_inv @ h.T @ d_inv
    p_e = h.T @ d_inv @ h @ de_inv
    return p, p_e


def dense_operators(edges, n, tag):
    """Literal matrix-chain evaluation of each variant's operators."""
    h = dense_incidence(edges, n)
    d = h.sum(axis=1)
    d_e = h.sum(axis=0)
    d_inv = np.diag(np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0))
    de_inv = np.diag(1.0 / d_e)
    p, p_e = dense_transitions(edges, n)
    if tag == "base":
        s_v = d_inv @ h @ p_e @ de_inv @ h.T @ d_inv
        s_e = de_inv @ h.T @ p @ d_inv @ h @ de_inv
        return s_v, s_e, d_inv @ h, (h @ de_inv).T
    if tag == "p2":
        s_v = d_inv @ h @ de_inv @ h.T @ d_inv + p + p @ p
        s_e = de_inv @ h.T @ d_inv @ h @ de_inv + p_e + p_e @ p_e
    elif tag == "plusplus":
        s_v = d_inv @ h @ p_e @ de_inv @ h.T @ d_inv + p
        s_e = de_inv @ h.T @ p @ d_inv @ h @ de_inv + p_e
    elif tag == "wt":
        s_v = d_inv @ h @ p_e @ h.T @ d_inv
        s_e = de_inv @ h.T @ p @ h @ de_inv
    elif tag == "h2":
        s_v = h @ h.T + p
        s_e = h.T @ h + p_e
    else:
        raise ValueError(tag)
    return s_v, s_e, None, None


# --- activations, written against different primitives than the package ---

_SELU_L = 1.0507009873554804934193349852946
_SELU_A = 1.6732632423543772848170429916717


def oracle_activation(tag, x):
    """Eval-mode activation values (rrelu at its midpoint slope 11/48)."""
    if tag == "tanh":
        return np.tanh(x)
    if tag == "leaky-relu":
        return np.maximum(x, 0.0) + 0.01 * np.minimum(x, 0.0)
    if tag == "gelu":
        return x * norm.cdf(x)
    if tag == "selu":
        return _SELU_L * (np.maximum(x, 0.0) + np.minimum(_SELU_A * np.expm1(x), 0.0))
    if tag == "rrelu":
        mid = (1.0 / 8.0 + 1.0 / 3.0) / 2.0
        return np.maximum(x, 0.0) + mid * np.minimum(x, 0.0)
    raise ValueError(tag)


def dense_forward(edges, n, w_list, we_list, z0, y0, tag, sigma_v, sigma_e):
    """Straight-line dense re-implementation of the layer stack (eval mode)."""
    s_v, s_e, b_v, b_e = dense_operators(edges, n, tag)
    z, y = np.asarray(z0, dtype=float), np.asarray(y0, dtype=float)
    for w, w_e in zip(w_list, we_list):
        u = s_v @ z if b_v is None else s_v @ z + b_v @ y
        z_next = oracle_activation(sigma_v, u @ w)
        v = s_e @ y if b_e is None else s_e @ y + b_e @ z_next
        y = oracle_activation(sigma_e, v @ w_e)
        z = z_next
    return z, y


# --- scores, metrics ---


def brute_mean_pairwise(vectors, normalize=True):
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if normalize:
        vs = [v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else v for v in vs]
    total, pairs = 0.0, 0
    for i in range(len(vs)):
        for j in range(i):
            total += float(vs[i] @ vs[j])
            pairs += 1
    return total / pairs


def brute_maxmin(vectors):
    x = np.asarray(vectors, dtype=float)
    return -float(np.mean([x[:, t].max() - x[:, t].min() for t in range(x.shape[1])]))


def brute_score_grad(vectors, score_fn, normalize=True):
    """Gradient of one set's score wrt each vector, one vector at a time.

    mean-pairwise chains through x -> x/|x| (identity on zero rows);
    max-min routes -1/d and +1/d to the first argmax and argmin row.
    """
    x = np.asarray(vectors, dtype=float)
    k, d = x.shape
    grad = np.zeros_like(x)
    if score_fn == "max-min":
        for t in range(d):
            grad[int(np.argmax(x[:, t])), t] -= 1.0 / d
            grad[int(np.argmin(x[:, t])), t] += 1.0 / d
        return grad
    norms = [float(np.linalg.norm(v)) for v in x]
    xh = [v / nv if normalize and nv > 0 else v for v, nv in zip(x, norms)]
    pairs = k * (k - 1) / 2.0
    for i in range(k):
        g = sum(xh[j] for j in range(k) if j != i) / pairs
        if normalize and norms[i] > 0:
            g = (g - xh[i] * (xh[i] @ g)) / norms[i]
        grad[i] = g
    return grad


def brute_sample_negatives(edges, n, count, alpha, rng, source_edges=None, forbid=None):
    """Sized negative sampling with the fill drawn from np.setdiff1d(all nodes, e).

    O(N) per draw; every random call matches the package's sampler, so the
    two must return the same list for the same generator state.
    """
    sources = [tuple(e) for e in (source_edges if source_edges is not None else edges)]
    forbidden = {frozenset(e) for e in edges} | {frozenset(e) for e in (forbid or [])}
    all_nodes = np.arange(n)
    out, failures = [], 0
    while len(out) < count:
        e = sources[int(rng.integers(len(sources)))]
        members = np.asarray(e)
        keep = min(math.ceil(alpha * len(e)), len(e) - 1)
        kept = rng.choice(members, size=keep, replace=False) if keep else np.empty(0, dtype=np.int64)
        pool = np.setdiff1d(all_nodes, members, assume_unique=False)
        fill = len(e) - keep
        candidate = None
        if fill <= pool.size:
            filled = rng.choice(pool, size=fill, replace=False)
            candidate = tuple(sorted(int(v) for v in np.concatenate([kept, filled])))
        if candidate is None or frozenset(candidate) in forbidden:
            failures += 1
            if failures >= 100:
                raise RuntimeError("negative sampling failed 100 times in a row")
            continue
        failures = 0
        out.append(candidate)
    return out


def brute_auc(scores, labels):
    """Exhaustive pair counting with half credit on ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def per_class_auc(probs, labels, mask):
    """Macro one-vs-rest AUC as one rankdata call per class present under the mask."""
    sub, sub_labels = probs[mask], labels[mask]
    per_class = []
    for c in range(probs.shape[1]):
        pos = sub_labels == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos and n_neg:
            rank_sum = float(rankdata(sub[:, c])[pos].sum())
            per_class.append((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(per_class))


def finite_diff(loss_fn, arr, eps=1e-5):
    """Central finite differences of a scalar function wrt one array, in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        up = loss_fn()
        arr[idx] = orig - eps
        down = loss_fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def random_hypergraph(rng, max_nodes=10, max_edges=6, min_size=2, connected_degrees=True):
    """A small random hypergraph as (edges, n); every node covered when asked."""
    n = int(rng.integers(min_size + 1, max_nodes + 1))
    m = int(rng.integers(2, max_edges + 1))
    edges = []
    for _ in range(m):
        size = int(rng.integers(min_size, max(min_size, min(n - 1, 4)) + 1))
        edges.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    if connected_degrees:
        covered = set().union(*map(set, edges))
        missing = [i for i in range(n) if i not in covered]
        for i in missing:  # fold isolated nodes into the first edge
            other = (i + 1) % n
            edges.append(tuple(sorted({i, other})))
    return edges, n
