"""Independent dense/brute-force reference implementations.

Everything here is written the slow, obvious way (loops, np.diag,
np.linalg) and deliberately shares no code with the package, so the
sparse/cached implementations have something honest to be checked
against.  The exceptions are ``whole_forward`` and ``full_backward``,
which apply the package's operators, and the one-call forms at the end of
the file, which run the package's own code.
"""

import math

import numpy as np
from scipy.special import erf
from scipy.stats import norm, rankdata

from hyperemb.hypergraph import FlatSets, canonical
from hyperemb.training import _score_rows


def brute_build_hypergraph(edges, n):
    """Sorted member tuples per hyperedge and hyperedge tuples per node, validated
    one hyperedge at a time; raises ValueError with the package's DataError text."""
    members_of = []
    incidence = [[] for _ in range(n)]
    for j, raw in enumerate(edges):
        members = sorted(raw)
        if not members:
            raise ValueError(f"hyperedge {j} is empty")
        if members[0] < 0 or members[-1] >= n:
            bad = members[0] if members[0] < 0 else members[-1]
            raise ValueError(f"hyperedge {j} has node index {bad} outside [0, {n})")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise ValueError(f"hyperedge {j} lists node {a} more than once")
        members_of.append(tuple(members))
        for i in members:
            incidence[i].append(j)
    return tuple(members_of), tuple(tuple(js) for js in incidence)


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


def _held_we(tag, layers, we_count):
    """Raise unless there are W_e(0..L-2) for base and none otherwise, the weights a
    forward reads, so that no loop over them can stop short of the last layer."""
    want = layers - 1 if tag == "base" else 0
    if we_count != want:
        raise ValueError(f"{tag} at {layers} layer(s) holds {want} W_e, got {we_count}")


def dense_forward(edges, n, w_list, we_list, z0, y0, tag, sigma_v, sigma_e, full_y_stream=False):
    """Straight-line dense re-implementation of the layer stack (eval mode): (Z(L), last Y).

    ``we_list`` holds the W_e a forward reads, so base's Y update runs for
    k < L-1 and returns Y(L-1), and a decoupled variant runs none.  With
    ``full_y_stream`` every variant runs the Y update at all L layers, as the
    layer equations write it, and ``we_list`` holds L matrices.
    """
    if full_y_stream:
        if len(we_list) != len(w_list):
            raise ValueError(f"the full Y stream needs {len(w_list)} W_e, got {len(we_list)}")
    else:
        _held_we(tag, len(w_list), len(we_list))
    s_v, s_e, b_v, b_e = dense_operators(edges, n, tag)
    z = np.asarray(z0, dtype=float)
    y = None if y0 is None else np.asarray(y0, dtype=float)
    for k, w in enumerate(w_list):
        u = s_v @ z if b_v is None else s_v @ z + b_v @ y
        z_next = oracle_activation(sigma_v, u @ w)
        if k < len(we_list):
            v = s_e @ y if b_e is None else s_e @ y + b_e @ z_next
            y = oracle_activation(sigma_e, v @ we_list[k])
        z = z_next
    return z, y


_GELU_ROOT2, _GELU_PDF_NORM = np.sqrt(2.0), np.sqrt(2.0 * np.pi)


def whole_activation(tag, x, rng=None, training=False, order=None):
    """(value, derivative) of the tagged activation as whole-array expressions, one
    fresh array per operation; rrelu's training slopes come from ``rng`` the way
    ``model.activate`` draws them.  The package must give these floats
    bit for bit, whatever row blocks it cuts."""
    if tag == "tanh":
        t = np.tanh(x)
        return t, 1.0 - t * t
    if tag == "leaky-relu":
        pos = x > 0
        return np.where(pos, x, 0.01 * x), np.where(pos, 1.0, 0.01)
    if tag == "gelu":
        cdf = 0.5 * (1.0 + erf(x / _GELU_ROOT2))
        pdf = np.exp(-0.5 * x * x) / _GELU_PDF_NORM
        return x * cdf, cdf + x * pdf
    if tag == "selu":
        lam, alpha = 1.0507009873554805, 1.6732632423543772
        pos = x > 0
        ex = np.exp(np.minimum(x, 0.0))
        return lam * np.where(pos, x, alpha * (ex - 1.0)), lam * np.where(pos, 1.0, alpha * ex)
    if tag == "rrelu":
        lo, hi = 1.0 / 8.0, 1.0 / 3.0
        if training:
            slope = rng.uniform(lo, hi, size=x.shape)
            if order is not None:
                slope = slope[order]
        else:
            slope = (lo + hi) / 2.0
        pos = x >= 0
        return np.where(pos, x, slope * x), np.where(pos, 1.0, slope)
    raise ValueError(tag)


def whole_forward(ops, params, inputs, variant, rng=None, training=False):
    """The layer loop of ``model.forward`` with each layer's ``agg @ W``, activation
    and derivative as whole-array expressions (``whole_activation``): a dict of
    the state's lists, Z(L) put back in node order."""
    _held_we(ops.tag, params.layers, len(params.w_e))
    st = {"z": [inputs.z0], "y": [inputs.y0] if variant.coupled else [],
          "agg_z": [], "agg_y": [], "deriv_z": [], "deriv_y": []}
    for k, w in enumerate(params.w):
        agg_z = inputs.agg_z0 if k == 0 else ops.s_v @ st["z"][k]
        if k and ops.b_v is not None:
            agg_z = agg_z + ops.b_v @ st["y"][k]
        z_next, dz = whole_activation(variant.sigma_v, agg_z @ w, rng, training, ops.order)
        st["z"].append(z_next)
        st["agg_z"].append(agg_z)
        st["deriv_z"].append(dz)
        if k < len(params.w_e):
            agg_y = (ops.s_e @ st["y"][k] if k else inputs.s_e_y0) + ops.b_e @ z_next
            y_next, dy = whole_activation(variant.sigma_e, agg_y @ params.w_e[k], rng, training)
            st["y"].append(y_next)
            st["agg_y"].append(agg_y)
            st["deriv_y"].append(dy)
    if ops.order is not None:
        z_final = np.empty_like(st["z"][-1])
        z_final[ops.order] = st["z"][-1]
        st["z"][-1] = z_final
    return st


def full_backward(state, ops, params, d_z_final):
    """Reverse mode through every adjoint, pruning nothing: the W and W_e gradients.

    ``params`` hold W_e(0..L-2) for base and none otherwise.  The Y adjoint
    starts at zeros, every Y update the state cached is undone, and layer 0
    still propagates into Z(0) and Y(0).  ``training.backward`` must give the
    same floats while skipping what no weight reads.
    """
    _held_we(ops.tag, params.layers, len(params.w_e))
    grads_w = [np.zeros_like(a) for a in params.w]
    grads_we = [np.zeros_like(a) for a in params.w_e]
    dz = np.asarray(d_z_final, dtype=np.float64)
    if ops.order is not None:  # the state's node rows are in the operators' storage order
        dz = dz[ops.order]
    dy = np.zeros_like(state.y[-1]) if state.y else None
    for k in reversed(range(params.layers)):
        if k < len(state.agg_y):
            gy = dy * state.deriv_y[k]
            grads_we[k] = state.agg_y[k].T @ gy
            dv = gy @ params.w_e[k].T
            dy = ops.s_e.T @ dv
            dz = dz + ops.b_e.T @ dv
        gz = dz * state.deriv_z[k]
        grads_w[k] = state.agg_z[k].T @ gz
        du = gz @ params.w[k].T
        dz = ops.s_v.T @ du
        if ops.b_v is not None:
            dy = dy + ops.b_v.T @ du
    return grads_w, grads_we


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


def ringed_hypergraph(seed, n=40, m=30):
    """(edges, n): ``m`` random hyperedges of 2-5 members plus a ring of pairs, so
    every node is covered and a bandwidth-reducing order is far from the identity."""
    rng = np.random.default_rng(seed)
    edges = [tuple(rng.choice(n, size=int(rng.integers(2, 6)), replace=False)) for _ in range(m)]
    return edges + [(i, (i + 7) % n) for i in range(n)], n


# --- one-call forms of package internals that no library code calls ---
# Unlike the references above, these run the package's own code: the library
# applies its scorers to whole batches of sets (``training._score_rows``) and
# its walk steps inside ``model.build_operators``, and the tests check these
# forms against the brute references.


def transition_matrices(g):
    """Column-stochastic random-walk operators over nodes (N x N) and hyperedges (M x M).

    Nodes with zero hyperedges keep zero P rows/columns (see GraphPack).
    """
    h, d_inv, de_inv = g.pack.h, g.pack.d_inv, g.pack.de_inv
    h_de = canonical(h.multiply(de_inv[np.newaxis, :]))  # H De^-1
    ht_d = canonical(h.T.multiply(d_inv[np.newaxis, :]))  # (D^-1 H)^T
    p = canonical(h_de @ ht_d)
    p_e = canonical(ht_d @ h_de)
    return p, p_e


def _score_one(embs, score_fn, normalize=True, grad=False):
    """One set through the batched scorers: the score, or (score, d score / d embs)."""
    x = np.atleast_2d(np.asarray(embs, dtype=np.float64))
    pack = FlatSets(idx=np.arange(x.shape[0]), indptr=np.array([0, x.shape[0]]))
    scores, backprop = _score_rows(x, pack.idx, pack, score_fn, normalize)
    return (float(scores[0]), backprop(np.ones(1))) if grad else float(scores[0])


def score_mean_pairwise(embs, normalize=True):
    """Mean pairwise similarity over all vector pairs of the set.

    With ``normalize`` (default) each vector is scaled to unit length
    first, so this is the mean pairwise cosine.
    """
    return _score_one(embs, "mean-pairwise", normalize)


def score_mean_pairwise_grad(embs, normalize=True):
    """Score plus its gradient with respect to every input vector."""
    return _score_one(embs, "mean-pairwise", normalize, grad=True)


def score_maxmin(embs):
    """Negated mean per-dimension range: tighter clusters score higher."""
    return _score_one(embs, "max-min")


def score_maxmin_grad(embs):
    """Score plus a subgradient routed to the per-dimension argmax/argmin rows."""
    return _score_one(embs, "max-min", grad=True)


def frozen_randomized_svd(m, rank, rng):
    """``features.randomized_svd`` as the symmetric bootstrap left it, kept
    verbatim so a test can pin the general path bit for bit."""
    n_rows, n_cols = m.shape
    k = min(rank + 8, min(n_rows, n_cols))
    omega = rng.standard_normal((n_cols, k))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(4):
        q, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ q)
    b = (m.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ ub
    return u[:, :rank], s[:rank], vt[:rank]
