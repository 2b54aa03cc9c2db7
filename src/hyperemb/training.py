"""Losses, score functions, negative sampling, gradients, and the training loop.

Gradients are hand-written reverse-mode through the layer equations; the
finite-difference oracle in the test suite checks every variant,
activation, and loss combination against them.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit, logsumexp

from .errors import ConfigError, DataError, HypergraphWarning, NumericError
from .evaluation import auc, multiclass_auc
from .features import RngLike, as_rng, init_hyperedge_features, init_node_features
from .hypergraph import FlatSets, Hypergraph
from .model import (
    EmbeddingState,
    ForwardInputs,
    ModelParams,
    PropagationOperators,
    VariantKind,
    activate,
    build_operators,
    default_dims,
    forward,
    init_params,
)

SCORE_FNS = ("mean-pairwise", "max-min")
SCORE_MODES = ("plain", "dependent")
OPTIMIZERS = ("adam", "sgd")
TASKS = ("hyperedge-pred", "node-class")
# Adam's moment decay rates and denominator guard, as Kingma & Ba (ICLR 2015) set them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Everything a single run needs besides the data itself."""

    variant: VariantKind = field(default_factory=VariantKind)
    layers: int = 2
    lr: float = 0.01
    epochs: int = 200
    optimizer: str = "adam"
    split_fraction: float = 0.8
    alpha: float = 0.5
    score_fn: str = "mean-pairwise"
    seed: int = 0
    normalize: bool = True  # cosine scores; False switches to raw dot products
    score_mode: str = "plain"  # "dependent" scores psi-projected embeddings instead
    feature_rank: int = 32  # rank F when features must be bootstrapped
    width: Optional[int] = None  # hidden width override; defaults to the feature dim

    def __post_init__(self):
        if not 0 < self.split_fraction < 1:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}")
        if self.score_fn not in SCORE_FNS:
            raise ConfigError(f"unknown score_fn {self.score_fn!r}; expected one of {SCORE_FNS}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"unknown score_mode {self.score_mode!r}; expected one of {SCORE_MODES}")
        if self.feature_rank < 1:
            raise ConfigError(f"feature_rank must be >= 1, got {self.feature_rank}")


def _mean_pairwise_rows(src, col, pack, normalize):
    """Mean pairwise similarity of every set of rows ``src[col[set]]``: with W the sets x
    len(src) matrix of member weights w_i = 1/|x_i| (1 for zero rows or dot products),
    S = W @ src and the score is (|S|^2 - sum |w_i x_i|^2) / (k (k - 1))."""
    k = pack.sizes
    if k.size and k.min() < 2:
        raise DataError(f"mean-pairwise score needs at least 2 vectors, got {int(k.min())}")
    sq = np.einsum("ij,ij->i", src, src)
    if normalize:
        zero = sq == 0
        n_zero = int(np.count_nonzero(zero[col]))
        if n_zero:
            warnings.warn(f"{n_zero} zero embedding vector(s) left unnormalized "
                          "in pairwise score", HypergraphWarning, stacklevel=4)
        w = 1.0 / np.sqrt(np.where(zero, 1.0, sq))
        self_sq = (~zero).astype(np.float64)
    else:
        w, self_sq = np.ones(src.shape[0]), sq
    weights = sparse.csr_array((w[col], col, pack.indptr), shape=(len(pack), src.shape[0]))
    s = weights @ src
    pairs = (k * (k - 1)).astype(np.float64)
    scores = (np.einsum("ij,ij->i", s, s) - pack.set_sums(self_sq[col])) / pairs

    def backprop(d_scores):
        # d score_e / d x^_i = c_e (S_e - x^_i) with c = d_scores / (k (k - 1) / 2). The chain
        # through x/|x| removes the radial -x^_i and keeps the tangential part of W^T (c S)
        # (zero rows pass it unchanged); raw dot products keep -x_i sum_e c_e instead.
        c = 2.0 * d_scores / pairs
        g = weights.T @ (c[:, np.newaxis] * s)
        if normalize:
            return g - src * (w * w * np.einsum("ij,ij->i", src, g))[:, np.newaxis]
        return g - src * (weights.T @ c)[:, np.newaxis]

    return scores, backprop


def _maxmin_rows(src, col, pack):
    """Negated mean per-dimension range of every set of rows ``src[col[set]]``;
    the subgradient goes to the first member attaining each max and min."""
    if pack.sizes.size and pack.sizes.min() < 1:
        raise DataError("max-min score needs at least one vector")
    rows = src[col]
    starts = pack.indptr[:-1]
    hi = np.maximum.reduceat(rows, starts)
    lo = np.minimum.reduceat(rows, starts)
    scores = -(hi - lo).mean(axis=1)
    n, d = src.shape
    owner, at = pack.owner, np.arange(col.size)[:, np.newaxis]

    def first_at(ext):  # flat (source row, dimension) slot of the first member attaining ext
        first = np.minimum.reduceat(np.where(rows == ext[owner], at, col.size), starts)
        return (col[first] * d + np.arange(d)).ravel()

    lo_at, hi_at = first_at(lo), first_at(hi)

    def backprop(d_scores):
        g = np.repeat(d_scores / d, d)
        return (np.bincount(lo_at, g, minlength=n * d) - np.bincount(hi_at, g, minlength=n * d)).reshape(n, d)

    return scores, backprop


def _score_rows(src, col, pack, score_fn, normalize):
    """Scores of every set of rows plus ``backprop``: d(loss)/d(scores) -> d(loss)/d(src)."""
    if score_fn == "mean-pairwise":
        return _mean_pairwise_rows(src, col, pack, normalize)
    if score_fn == "max-min":
        return _maxmin_rows(src, col, pack)
    raise ConfigError(f"unknown score_fn {score_fn!r}")


def score_sets(
    z_final: np.ndarray,
    examples: Sequence[Sequence[int]] | FlatSets,
    cfg: TrainConfig,
    params: ModelParams,
    variant: VariantKind,
) -> np.ndarray:
    """Eval-mode scores for a batch of vertex sets under the config's scorer."""
    scores, _ = _score_examples(z_final, examples, cfg, params, variant, None, training=False)
    return scores


def sample_negatives(
    g: Hypergraph,
    count: int,
    alpha: float,
    rng: RngLike = 0,
    source_edges: Optional[Sequence[Sequence[int]]] = None,
    forbid: Optional[Iterable[Iterable[int]]] = None,
) -> list[tuple[int, ...]]:
    """Forge ``count`` negative vertex sets from observed hyperedges.

    Each negative keeps ceil(alpha*|e|) members of a uniformly chosen
    source hyperedge (capped at |e|-1 so at least one node is replaced)
    and fills the rest uniformly from outside e.  A candidate equal to
    any observed hyperedge (or any set in ``forbid``) is resampled; 100
    consecutive failures abort.  The fill is drawn as positions in the
    sorted complement of e, mapped to node ids by a binary search over e's
    sorted members, so a draw costs O(|e| log |e|) rather than O(N).
    A source set that lists a node twice is rejected.
    """
    if not 0 <= alpha <= 1:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    sources = [tuple(e) for e in source_edges] if source_edges is not None else g.edges.tuples()
    for e in sources:
        if len(set(e)) < len(e):
            raise DataError(f"vertex set {e} lists a node more than once")
    if not sources:
        raise DataError("no source hyperedges to derive negatives from")
    max_size = max(len(e) for e in sources)
    if g.num_nodes <= max_size:
        raise DataError(
            f"cannot sample negatives: largest source hyperedge has {max_size} of {g.num_nodes} nodes"
        )
    rng = as_rng(rng)
    # candidates are sorted and repeat-free, so they compare as canonical rows
    forbidden = set(g.edges.tuples())
    if forbid is not None:
        forbidden.update(tuple(sorted(set(e))) for e in forbid)
    out: list[tuple[int, ...]] = []
    failures = 0
    while len(out) < count:
        e = sources[int(rng.integers(len(sources)))]
        members = np.asarray(e)
        keep = min(math.ceil(alpha * len(e)), len(e) - 1)
        kept = rng.choice(members, size=keep, replace=False) if keep else np.empty(0, dtype=np.int64)
        unique = np.unique(members)
        pool_size = g.num_nodes - unique.size
        fill = len(e) - keep
        candidate = None
        if fill <= pool_size:
            # position p of the complement is node p + #{j : unique[j] - j <= p}
            pos = rng.choice(pool_size, size=fill, replace=False)
            filled = pos + np.searchsorted(unique - np.arange(unique.size), pos, side="right")
            candidate = tuple(np.sort(np.concatenate([kept, filled])).tolist())
        if candidate is None or candidate in forbidden:
            failures += 1
            if failures >= 100:
                raise DataError("negative sampling failed 100 times in a row")
            continue
        failures = 0
        out.append(candidate)
    return out


@dataclass
class LabeledHyperedgeSet:
    """Positive hyperedges plus forged negatives, labeled 1/0; ``pack`` holds them flat."""

    positives: list[tuple[int, ...]]
    negatives: list[tuple[int, ...]]
    pack: FlatSets = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos_sets = {frozenset(e) for e in self.positives}
        for e in self.negatives:
            if frozenset(e) in pos_sets:
                raise DataError(f"negative {tuple(e)} duplicates a positive")
        self.pack = FlatSets.of(self.examples)

    @property
    def examples(self) -> list[tuple[int, ...]]:
        return list(self.positives) + list(self.negatives)

    @property
    def labels(self) -> np.ndarray:
        return np.concatenate(
            [np.ones(len(self.positives)), np.zeros(len(self.negatives))]
        )


def build_labeled_set(
    g: Hypergraph,
    alpha: float,
    rng: RngLike = 0,
    positives: Optional[Sequence[Sequence[int]]] = None,
    forbid: Optional[Iterable[Iterable[int]]] = None,
) -> LabeledHyperedgeSet:
    """Label the (filtered) positives 1 and an equal count of forged negatives 0.

    Singleton positives are dropped with a warning — pairwise scores are
    undefined on them.  A kept positive that lists a node twice is
    rejected by the sampler.
    """
    rng = as_rng(rng)
    pos = [tuple(sorted(e)) for e in positives] if positives is not None else g.edges.tuples()
    kept = [e for e in pos if len(e) >= 2]
    if len(kept) < len(pos):
        warnings.warn(
            f"dropped {len(pos) - len(kept)} hyperedge(s) smaller than 2",
            HypergraphWarning,
            stacklevel=2,
        )
    if not kept:
        raise DataError("no hyperedges of size >= 2 to label")
    negatives = sample_negatives(
        g, len(kept), alpha, rng, source_edges=kept, forbid=forbid
    )
    return LabeledHyperedgeSet(positives=kept, negatives=negatives)


def hyperedge_bce_loss(scores, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of sigmoid(score) vs labels, plus d(loss)/d(score).

    Evaluated in the softplus form, so extreme scores stay finite.
    """
    f = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if f.size == 0:
        raise DataError("empty batch")
    if f.shape != y.shape:
        raise DataError(f"scores/labels shape mismatch: {f.shape} vs {y.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be 0/1")
    per_example = np.maximum(f, 0.0) - f * y + np.log1p(np.exp(-np.abs(f)))
    grad = (expit(f) - y) / f.size
    return float(per_example.mean()), grad


def row_softmax(logits) -> np.ndarray:
    """``scipy.special.softmax(logits, axis=1)``, bit for bit, as an F-ordered view.

    The work runs column-major, on a C x N copy: the row maxima, the shift
    and exp, and the sums are passes over N contiguous values each, not N
    reductions over C.  A row's sum must add its terms in numpy's order for a
    contiguous row: one after another below 8 terms, which the column-major
    passes repeat, and pairwise from 8 on, which only a row-major sum gives.
    """
    t = np.array(logits, dtype=np.float64).T.copy()
    if t.ndim != 2:
        raise DataError(f"logits must be 2-d, got shape {t.T.shape}")
    t -= np.maximum.reduce(t, axis=0)
    np.exp(t, out=t)
    if t.shape[0] < 8:
        total = t[0].copy()
        for row in t[1:]:
            total += row
    else:
        total = np.ascontiguousarray(t.T).sum(axis=1)
    t /= total
    return t.T


def node_ce_loss(logits, labels, mask, probs=None) -> tuple[float, np.ndarray]:
    """Masked softmax cross-entropy over labeled nodes; gradient is zero elsewhere.

    ``probs``, ``row_softmax(logits)``, is formed from the masked rows when not
    given; a caller that needs it anyway passes it in.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    if z.ndim != 2:
        raise DataError(f"logits must be 2-d, got shape {z.shape}")
    if mask.shape != (z.shape[0],) or labels.shape != (z.shape[0],):
        raise DataError("labels/mask must be 1-d with one entry per logits row")
    n_l = int(mask.sum())
    if n_l == 0:
        raise DataError("mask selects no labeled nodes")
    y = labels[mask]
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise DataError(f"labels must be in [0, {z.shape[1]}), got range [{y.min()}, {y.max()}]")
    if probs is not None and probs.shape != z.shape:
        raise DataError(f"probs shaped {probs.shape} for logits shaped {z.shape}")
    sub = z[mask]
    lse = logsumexp(sub, axis=1)
    loss = float((lse - sub[np.arange(n_l), y]).mean())
    grad = np.zeros_like(z)
    sub_grad = row_softmax(sub) if probs is None else probs[mask]
    sub_grad[np.arange(n_l), y] -= 1.0
    grad[mask] = sub_grad / n_l
    return loss, grad


def backward(
    state: EmbeddingState,
    ops: PropagationOperators,
    params: ModelParams,
    d_z_final: np.ndarray,
    d_psi: Optional[np.ndarray] = None,
    d_head: Optional[np.ndarray] = None,
) -> ModelParams:
    """Reverse-mode gradients for every weight matrix, held in a ``ModelParams``.

    Walks the layers backwards.  For the coupled base variant it undoes the
    Y update before the Z update of the same layer, and the Y update's
    B_e Z(k+1) term feeds extra gradient back into Z(k+1).  A decoupled
    variant has no Y stream, so only its Z updates are undone.  psi/head
    gradients are computed by the scoring/classification heads and passed
    through so the result covers the full parameter set.

    Only adjoints that reach a weight are formed.  The Y adjoint starts at
    the top layer's B_v^T term, and the loop ends at W(0)'s gradient, so
    Z(0) and Y(0), the fixed inputs, get none: layer 0 applies no S_v^T,
    B_v^T or S_e^T, only the B_e^T that feeds W(0).

    ``d_z_final`` is in node order, like ``state.z_final``; it is put in the
    operators' storage order once, on entry.
    """
    if state.layers != params.layers or not state.agg_z:
        raise DataError("forward caches missing or layer counts disagree")
    if d_head is not None and params.head is None:
        raise DataError("head gradient supplied but params have no head")
    grads = ModelParams(
        w=[None] * params.layers,
        w_e=[None] * len(params.w_e),
        psi=np.zeros_like(params.psi) if d_psi is None else np.asarray(d_psi, dtype=np.float64),
        head=None if params.head is None else (
            np.zeros_like(params.head) if d_head is None else np.asarray(d_head, dtype=np.float64)),
    )

    dz = np.asarray(d_z_final, dtype=np.float64)
    owned = dz is not d_z_final  # a caller's array is never written
    if ops.order is not None:
        dz, owned = dz[ops.order], True
    dy = None  # d(loss)/d Y(k+1), formed from layer k+1's B_v^T term on
    for k in reversed(range(params.layers)):
        if dy is not None:
            gy = np.multiply(dy, state.deriv_y[k], out=dy)
            grads.w_e[k] = state.agg_y[k].T @ gy
            dv = gy @ params.w_e[k].T
            dy = ops.s_e.T @ dv if k else None
            dz = dz + ops.b_e.T @ dv
        gz = np.multiply(dz, state.deriv_z[k], out=dz if owned else None)
        owned = True  # every later dz is a fresh product
        grads.w[k] = state.agg_z[k].T @ gz
        if not k:
            break
        du = gz @ params.w[k].T
        dz = ops.s_v.T @ du
        if ops.b_v is not None:
            dy_v = ops.b_v.T @ du
            dy = dy_v if dy is None else dy + dy_v
    return grads


@dataclass
class OptimizerState:
    """First/second moment buffers (adam) or nothing (sgd), keyed like named_arrays."""

    kind: str
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_optimizer(kind: str, params: ModelParams) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}; expected one of {OPTIMIZERS}")
    state = OptimizerState(kind=kind)
    if kind == "adam":
        for name, a in params.named_arrays():
            state.m[name] = np.zeros_like(a)
            state.v[name] = np.zeros_like(a)
    return state


def optimizer_step(
    opt: OptimizerState,
    params: ModelParams,
    grads: ModelParams,
    lr: float,
) -> None:
    """In-place parameter update; lr=0 is an exact no-op on the weights."""
    named_grads = dict(grads.named_arrays())
    if opt.kind == "sgd":
        for name, a in params.named_arrays():
            a -= lr * named_grads[name]
        return
    opt.t += 1
    for name, a in params.named_arrays():
        g = named_grads[name]
        opt.m[name] = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        opt.v[name] = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = opt.m[name] / (1.0 - ADAM_BETA1**opt.t)
        v_hat = opt.v[name] / (1.0 - ADAM_BETA2**opt.t)
        a -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def dependent_embeddings(
    z_final: np.ndarray,
    pack: FlatSets,
    params: ModelParams,
    variant: VariantKind,
    rng: Optional[np.random.Generator],
    training: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hyperedge-dependent embeddings act([z_i ; mean of the set's Z rows] @ psi).

    One row per member i of every set of ``pack``, in the pack's flat order,
    computed with one GEMM.  Returns (embeddings, activation derivative,
    concatenated input), the last two for the backward pass.
    """
    pack.check_members(z_final.shape[0])
    if 2 * z_final.shape[1] != params.psi.shape[0]:
        raise DataError(f"[z_i ; set mean] width {2 * z_final.shape[1]} does not match "
                        f"psi input dim {params.psi.shape[0]}")
    rows = z_final[pack.idx]
    means = pack.set_sums(rows) / pack.sizes[:, np.newaxis]
    cat = np.concatenate([rows, means[pack.owner]], axis=1)
    x, deriv = activate(variant.sigma_v, cat @ params.psi, rng, training)
    return x, deriv, cat


def _score_examples(
    z_final: np.ndarray,
    examples: Sequence[tuple[int, ...]] | FlatSets,
    cfg: TrainConfig,
    params: ModelParams,
    variant: VariantKind,
    rng: Optional[np.random.Generator],
    training: bool,
) -> tuple[np.ndarray, dict]:
    """Score every vertex set; the cache carries what gradient distribution needs.

    Plain mode scores rows of Z(final) in place; dependent mode scores the
    members' ``dependent_embeddings``.
    """
    pack = FlatSets.of(examples)
    if cfg.score_mode != "dependent":
        pack.check_members(z_final.shape[0])
        scores, backprop = _score_rows(z_final, pack.idx, pack, cfg.score_fn, cfg.normalize)
        return scores, {"backprop": backprop}
    x, deriv, cat = dependent_embeddings(z_final, pack, params, variant, rng, training)
    scores, backprop = _score_rows(x, np.arange(len(x)), pack, cfg.score_fn, cfg.normalize)
    return scores, {"backprop": backprop, "pack": pack, "cat": cat, "deriv": deriv}


def _distribute_score_grads(
    caches: dict,
    d_scores: np.ndarray,
    z_shape: tuple[int, int],
    cfg: TrainConfig,
    params: ModelParams,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Turn per-example score gradients into gradients on Z(final) and psi."""
    d_src = caches["backprop"](np.asarray(d_scores, dtype=np.float64))
    if cfg.score_mode != "dependent":
        return d_src, None
    pack, d = caches["pack"], z_shape[1]
    g_pre = d_src * caches["deriv"]
    d_psi = caches["cat"].T @ g_pre
    g_cat = g_pre @ params.psi.T
    # each member feeds its own slot and, through the set mean, every member's
    g_mean = pack.set_sums(g_cat[:, d:]) / pack.sizes[:, np.newaxis]
    d_z = pack.node_sums(g_cat[:, :d] + g_mean[pack.owner], z_shape[0])
    return d_z, d_psi


@dataclass
class TrainState:
    """Everything a finished (or halted) run carries."""

    params: ModelParams
    epoch: int = 0
    log: list[tuple[float, float]] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    final: Optional[EmbeddingState] = None


def input_features(
    g: Hypergraph, variant: VariantKind, rank: int, rng: RngLike, z0=None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Z(0): the given node features, checked, else the rank-clamped SVD bootstrap;
    Y(0): the degree-normalized aggregate of Z(0) for the coupled variant, None
    for a decoupled one, which has no Y stream."""
    rank = max(1, min(rank, g.num_nodes))
    z0 = init_node_features(g, rank, given=z0, rng=rng)
    return z0, init_hyperedge_features(g, z0) if variant.coupled else None


def train(
    g: Hypergraph,
    cfg: TrainConfig,
    task: str = "hyperedge-pred",
    data=None,
    eval_data=None,
    z0=None,
) -> TrainState:
    """Full-batch training for hyperedge prediction or node classification.

    ``data`` is a LabeledHyperedgeSet for hyperedge prediction (built
    from the graph's own edges when omitted) or a (labels, mask) pair
    for node classification.  ``eval_data`` swaps the per-epoch logged
    metric onto held-out examples (a LabeledHyperedgeSet) or a held-out
    mask.  The log holds one (loss, metric) pair per epoch and is
    bitwise reproducible for a fixed seed; a non-finite loss halts with
    the offending epoch attached.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    variant = cfg.variant
    rng = np.random.default_rng(cfg.seed)

    z0, y0 = input_features(g, variant, cfg.feature_rank, rng, z0)

    n_classes = None
    labels = mask = metric_mask = None
    if task == "node-class":
        if data is None:
            raise DataError("node classification needs (labels, mask) data")
        labels, mask = data
        labels = np.asarray(labels)
        mask = np.asarray(mask, dtype=bool)
        valid = labels[labels >= 0]
        if valid.size == 0:
            raise DataError("no labeled nodes")
        n_classes = int(valid.max()) + 1
        metric_mask = mask if eval_data is None else np.asarray(eval_data, dtype=bool)
    else:
        if data is None:
            data = build_labeled_set(g, cfg.alpha, rng)
        examples, ex_labels = data.pack, data.labels

    dims = default_dims(z0.shape[1], cfg.layers, cfg.width)
    params = init_params(dims, variant, rng=rng, n_classes=n_classes)
    ops = build_operators(g, variant)
    inputs = ForwardInputs(ops, z0, y0)  # layer 0's products, shared by every forward below
    del z0  # inputs hold Z(0), in the operators' storage order: keep no second copy
    opt = init_optimizer(cfg.optimizer, params)
    state = TrainState(params)

    for epoch in range(cfg.epochs):
        t_start = time.perf_counter()
        st = forward(ops, params, inputs, variant, rng=rng, training=True)
        if task == "hyperedge-pred":
            scores, caches = _score_examples(
                st.z_final, examples, cfg, params, variant, rng, training=True
            )
            loss, d_scores = hyperedge_bce_loss(scores, ex_labels)
            _check_finite(loss, epoch, state)
            d_z, d_psi = _distribute_score_grads(
                caches, d_scores, st.z_final.shape, cfg, params
            )
            grads = backward(st, ops, params, d_z, d_psi=d_psi)
            if eval_data is None:
                metric = auc(scores, ex_labels)
            else:
                eval_scores, _ = _score_examples(
                    st.z_final, eval_data.pack, cfg, params, variant, None, training=False
                )
                metric = auc(eval_scores, eval_data.labels)
        else:
            logits = st.z_final @ params.head
            probs = row_softmax(logits)  # read by the loss's gradient and the metric
            loss, d_logits = node_ce_loss(logits, labels, mask, probs)
            _check_finite(loss, epoch, state)
            d_z = d_logits @ params.head.T
            d_head = st.z_final.T @ d_logits
            grads = backward(st, ops, params, d_z, d_head=d_head)
            metric = multiclass_auc(probs, labels, metric_mask)
        optimizer_step(opt, params, grads, cfg.lr)
        # free this epoch's caches before the next forward allocates its own
        del st, grads
        state.epoch = epoch + 1
        state.log.append((float(loss), float(metric)))
        state.wall_ms.append((time.perf_counter() - t_start) * 1000.0)

    state.final = forward(ops, params, inputs, variant, training=False)
    return state


def _check_finite(loss: float, epoch: int, state: TrainState) -> None:
    if not np.isfinite(loss):
        err = NumericError(f"non-finite loss {loss} at epoch {epoch}", epoch=epoch)
        err.state = state
        raise err
