"""Layer family for joint node/hyperedge embeddings.

The base layer couples the two streams:

    Z(k+1) = sigma_v((S_v Z(k) + B_v Y(k)) W(k))
    Y(k+1) = sigma_e((S_e Y(k) + B_e Z(k+1)) W_e(k))

where the Y update reads the freshly computed Z(k+1).  The four variants
(p2, plusplus, wt, h2) swap in different propagation operators and drop
the cross-stream B terms, so their streams evolve independently.  Every
operator is an ``Operator``: a sum of products of the scaled incidence
factors D^-1 H, H De^-1, D^-1 H De^-1 and their transposes, built once per
(graph, variant) and reused for every epoch.  ``build_operators`` decides
from nonzero counts alone which products to multiply out into one CSR and
which to apply factor by factor.

Every sparse-times-dense product of the forward pass, and of the backward
pass in ``training``, goes through ``spmm``.  When the BLAS runs one thread,
a large product is split by the dense operand's columns over the CPUs of
the process's affinity mask; each output element is still summed in the
same order, so the result is bit-identical to a one-CPU run.  The module
also holds the activations, seeded weight initialisation and the
checkpoint format.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf

from .errors import ConfigError, DataError
from .features import RngLike, as_rng
from .hypergraph import Hypergraph, canonical

VARIANT_TAGS = ("base", "p2", "plusplus", "wt", "h2")
ACTIVATION_TAGS = ("tanh", "leaky-relu", "gelu", "selu", "rrelu")

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
LEAKY_SLOPE = 0.01
RRELU_RANGE = (1.0 / 8.0, 1.0 / 3.0)


def _spmm_parts(cpus: int, environ=os.environ) -> int:
    """One part per CPU if the environment tells the BLAS to run one thread, else 1.

    The variables are read in OpenBLAS's order, and the first one set wins.
    With OpenBLAS on two threads, splitting lost in 10 alternating pairs per
    workload on a 2-vCPU VM: on backward at dblp size (median 3.02 -> 3.37 s)
    and on the whole citeseer-size hedge trial (1.16 -> 1.28 s).
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return cpus if int(value) == 1 else 1
    return 1


# the CPUs the process may run on (`taskset -c 0` makes it 1)
if hasattr(os, "sched_getaffinity"):
    CPUS = len(os.sched_getaffinity(0))
else:  # pragma: no cover - no affinity masks outside Linux
    CPUS = os.cpu_count() or 1
SPMM_PARTS = _spmm_parts(CPUS)
# below this nnz x width a product stays one call: at citeseer size the width-32
# b_v/b_e products (13.6k nnz, 4.4e5) went from 0.3 to 0.6 ms when split in two
SPMM_SPLIT_MIN = 2_000_000
# below this many nonzeros per output row a product is bound by writing its output,
# and splitting lost: random CSR at dblp shape, width 32, one BLAS thread, went
# 7.8 -> 10.6 ms at 7.7 per row and 12.3 -> 9.3 ms at 11.6; base's b_v at dblp
# size (1.65 per row) went 9.5 -> 10.1 ms
SPMM_SPLIT_MIN_ROW_NNZ = 8

_POOL: ThreadPoolExecutor


def _new_pool() -> None:
    """Make the one process-wide pool, so concurrent callers (sweep cells) share the cores.

    It starts no thread until the first split product.  A forked child gets a
    new one: the pool it inherits has no live threads and would never run a part.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=CPUS, thread_name_prefix="hyperemb-spmm")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _split_parts(nnz: int, rows: int, width: int) -> int:
    """How many column blocks ``spmm`` cuts a product with ``rows`` output rows into."""
    if nnz * width < SPMM_SPLIT_MIN or nnz < SPMM_SPLIT_MIN_ROW_NNZ * rows:
        return 1
    return min(SPMM_PARTS, width)


def spmm(a, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a sparse ``a`` (CSR, or the CSC view ``.T`` of one) and a 2-d dense ``x``.

    A large product that is not bound by writing its output runs as one
    column block of ``x`` per CPU on a shared thread pool (scipy's kernel
    releases the GIL), each block writing its own columns of one output.
    Splitting columns, unlike rows, leaves the order of every output
    element's sum unchanged, also for the CSC scatter, so the result equals
    ``a @ x`` exactly.
    """
    width = x.shape[1]
    parts = _split_parts(a.nnz, a.shape[0], width)
    if parts < 2:
        return a @ x
    out = np.empty((a.shape[0], width), dtype=np.result_type(a.dtype, x.dtype))
    bounds = [width * i // parts for i in range(parts + 1)]

    def part(lo: int, hi: int) -> None:
        out[:, lo:hi] = a @ x[:, lo:hi]

    for future in [_POOL.submit(part, lo, hi) for lo, hi in zip(bounds, bounds[1:])]:
        future.result()
    return out


@dataclass(frozen=True)
class VariantKind:
    """Which operator family to build and which nonlinearities to apply."""

    tag: str = "base"
    sigma_v: str = "tanh"
    sigma_e: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "tag", str(self.tag).lower())
        if self.tag not in VARIANT_TAGS:
            raise ConfigError(f"unknown variant {self.tag!r}; expected one of {VARIANT_TAGS}")
        for name in ("sigma_v", "sigma_e"):
            a = str(getattr(self, name)).lower()
            object.__setattr__(self, name, a)
            if a not in ACTIVATION_TAGS:
                raise ConfigError(f"unknown activation {a!r}; expected one of {ACTIVATION_TAGS}")

    @property
    def coupled(self) -> bool:
        return self.tag == "base"


def activate(
    tag: str,
    x: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    training: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the tagged nonlinearity; return (value, elementwise derivative).

    The derivative is evaluated at x and cached by the caller for the
    backward pass.  rrelu draws per-element negative slopes uniformly from
    ``RRELU_RANGE`` with ``rng`` in training mode and uses the range's
    midpoint in eval mode.
    """
    if tag == "tanh":
        t = np.tanh(x)
        return t, 1.0 - t * t
    if tag == "leaky-relu":
        pos = x > 0
        deriv = np.where(pos, 1.0, LEAKY_SLOPE)
        return np.where(pos, x, LEAKY_SLOPE * x), deriv
    if tag == "gelu":
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return x * cdf, cdf + x * pdf
    if tag == "selu":
        pos = x > 0
        ex = np.exp(np.minimum(x, 0.0))
        value = SELU_LAMBDA * np.where(pos, x, SELU_ALPHA * (ex - 1.0))
        deriv = SELU_LAMBDA * np.where(pos, 1.0, SELU_ALPHA * ex)
        return value, deriv
    if tag == "rrelu":
        lo, hi = RRELU_RANGE
        if training:
            if rng is None:
                raise ConfigError("rrelu in training mode needs a random generator")
            slope = rng.uniform(lo, hi, size=x.shape)
        else:
            slope = (lo + hi) / 2.0
        pos = x >= 0
        deriv = np.where(pos, 1.0, slope)
        return np.where(pos, x, slope * x), deriv
    raise ConfigError(f"unknown activation {tag!r}")


@dataclass(frozen=True, eq=False)
class Operator:
    """A sum of sparse products, applied without multiplying them out.

    Each term is a tuple of sparse factors (CSR, or the CSC view ``.T`` of
    one) applied right to left, one ``spmm`` per factor; the terms' results
    are summed in order.  A materialized operator is one term of one factor,
    so ``op @ x`` is then exactly ``spmm(factor, x)``.  ``data``, ``indices``
    and ``indptr`` are the stored factors' arrays, concatenated when there
    are several, so their ``nbytes`` count what the operator stores.
    """

    terms: tuple[tuple[sparse.sparray, ...], ...]

    @property
    def factors(self) -> list[sparse.sparray]:
        return [f for term in self.terms for f in term]

    @property
    def shape(self) -> tuple[int, int]:
        return self.terms[0][0].shape[0], self.terms[0][-1].shape[1]

    @property
    def nnz(self) -> int:
        """Stored nonzeros, summed over the factors."""
        return sum(f.nnz for f in self.factors)

    @property
    def T(self) -> "Operator":
        return Operator(tuple(tuple(f.T for f in reversed(term)) for term in self.terms))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = None
        for term in self.terms:
            y = x
            for f in reversed(term):
                y = spmm(f, y)
            out = y if out is None else out + y
        return out

    def toarray(self) -> np.ndarray:
        return sum(functools.reduce(operator.matmul, term).toarray() for term in self.terms)

    def _stored(self, name: str) -> np.ndarray:
        arrays = [getattr(f, name) for f in self.factors]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    data = property(lambda self: self._stored("data"))
    indices = property(lambda self: self._stored("indices"))
    indptr = property(lambda self: self._stored("indptr"))


@dataclass(frozen=True)
class PropagationOperators:
    """The propagation operators for one (graph, variant) pair.

    b_v and b_e are None for the decoupled variants.
    """

    tag: str
    s_v: Operator
    s_e: Operator
    b_v: Optional[Operator] = None
    b_e: Optional[Operator] = None

    @property
    def num_nodes(self) -> int:
        return self.s_v.shape[0]

    @property
    def num_hyperedges(self) -> int:
        return self.s_e.shape[0]


# a product stays a chain of factors when the row-wise bound on its multiplied-out
# nonzeros is at least this many times the chain's work, sum(factor nnz + factor
# rows).  Probe, one width-32 product at one BLAS thread on the seed-1 planted
# graphs: on the citeseer-size train split base's S_v and S_e (ratios 27.7 and
# 29.4) went 12.6 -> 1.5 and 15.2 -> 1.8 ms as chains; at dblp size base's S_e and
# p2's P_e P_e (5.8) lost, 19.3 -> 22.6 ms, and S_v and P P (11.3) won alone,
# 54.7 -> 24.7 ms, which 16 leaves unclaimed so that dblp keeps its operators
CHAIN_MIN_RATIO = 16


def _plan_counts(chain: Sequence[sparse.sparray]) -> tuple[int, int]:
    """(bound, work) of a product of sparse factors, from their patterns alone.

    ``bound`` caps the product's nonzeros: the last factor's row counts are
    pushed through the other factors' patterns as sparse mat-vecs, each row
    capped at the column count.  ``work`` is what applying the factors one by
    one reads and writes per dense column: every factor's nonzeros and rows.
    """
    cols = chain[-1].shape[1]
    rows = np.ones(cols)
    for f in reversed(chain):
        pattern = type(f)((np.ones(f.nnz), f.indices, f.indptr), shape=f.shape)
        rows = np.minimum(pattern @ rows, cols)
    return int(rows.sum()), sum(f.nnz + f.shape[0] for f in chain)


@dataclass(frozen=True, eq=False)
class _Walk:
    """One random-walk step, P = H De^-1 (D^-1 H)^T or P_e = (D^-1 H)^T H De^-1:
    two factors, multiplied out once when a materialized term uses it."""

    factors: tuple[sparse.csr_array, sparse.csr_array]

    @functools.cached_property
    def matrix(self) -> sparse.csr_array:
        return canonical(self.factors[0] @ self.factors[1])


def _plan(terms: Sequence[tuple]) -> Operator:
    """One Operator from a sum of products of factors and walk steps, in expression order.

    A product whose ``_plan_counts`` ratio reaches ``CHAIN_MIN_RATIO`` stays a
    chain of its factors.  The others are multiplied out left to right and
    summed in order into one CSR, which leads the terms.
    """
    chains, summed = [], None
    for term in terms:
        chain = tuple(f for item in term for f in (item.factors if isinstance(item, _Walk) else (item,)))
        bound, work = _plan_counts(chain)
        if bound >= CHAIN_MIN_RATIO * work:
            chains.append(chain)
            continue
        product = functools.reduce(
            operator.matmul, (item.matrix if isinstance(item, _Walk) else item for item in term)
        )
        summed = product if summed is None else summed + product
    stored = [] if summed is None else [(canonical(summed),)]
    return Operator(tuple(stored + chains))


def build_operators(g: Hypergraph, variant: VariantKind | str) -> PropagationOperators:
    """Assemble the propagation operators for the given variant.

    Each operator is written as a sum of products over the scaled incidence
    factors and planned term by term (``_plan``); the result depends only on
    the graph's nonzero counts, never on a timing.
    """
    if isinstance(variant, str):
        variant = VariantKind(tag=variant)
    h, d_inv, de_inv = g.pack.h, g.pack.d_inv, g.pack.de_inv

    hd = canonical(h.multiply(d_inv[:, np.newaxis]))  # D^-1 H
    hde = canonical(h.multiply(de_inv[np.newaxis, :]))  # H De^-1
    hdd = canonical(hd.multiply(de_inv[np.newaxis, :]))  # D^-1 H De^-1
    dt = canonical(hd.T)  # (D^-1 H)^T, stored row-wise
    p, p_e = _Walk((hde, dt)), _Walk((dt, hde))

    tag = variant.tag
    if tag == "base":
        return PropagationOperators(
            tag,
            _plan([(hd, p_e, hdd.T)]),
            _plan([(hde.T, p, hdd)]),
            b_v=_plan([(hd,)]),
            b_e=_plan([(hde.T,)]),
        )
    if tag == "p2":
        s_v = [(hdd, hd.T), (p,), (p, p)]
        s_e = [(hde.T, hdd), (p_e,), (p_e, p_e)]
    elif tag == "plusplus":
        s_v = [(hd, p_e, hdd.T), (p,)]
        s_e = [(hde.T, p, hdd), (p_e,)]
    elif tag == "wt":
        s_v = [(hd, p_e, hd.T)]
        s_e = [(hde.T, p, hde)]
    elif tag == "h2":
        s_v = [(h, h.T), (p,)]
        s_e = [(h.T, h), (p_e,)]
    else:  # pragma: no cover - guarded by VariantKind
        raise ConfigError(f"unknown variant {tag!r}")
    return PropagationOperators(tag, _plan(s_v), _plan(s_e))


@dataclass
class ModelParams:
    """Learned weights or their gradients: per-layer W / W_e, the psi projection, optional head."""

    w: list[np.ndarray]
    w_e: list[np.ndarray]
    psi: np.ndarray
    head: Optional[np.ndarray] = None

    @property
    def layers(self) -> int:
        return len(self.w)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Deterministic (name, array) listing of every weight matrix."""
        out = [(f"w_{k}", a) for k, a in enumerate(self.w)]
        out += [(f"we_{k}", a) for k, a in enumerate(self.w_e)]
        out.append(("psi", self.psi))
        if self.head is not None:
            out.append(("head", self.head))
        return out

    def zeros_like(self) -> "ModelParams":
        """Zero arrays of the same shapes: the gradient holder of ``training.backward``."""
        return ModelParams(
            w=[np.zeros_like(a) for a in self.w],
            w_e=[np.zeros_like(a) for a in self.w_e],
            psi=np.zeros_like(self.psi),
            head=None if self.head is None else np.zeros_like(self.head),
        )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def default_dims(
    f_z: int, f_y: int, layers: int, width: Optional[int] = None
) -> tuple[list[int], list[int]]:
    """Uniform layer widths: every hidden/output dim equals the node feature dim unless overridden."""
    if layers < 1:
        raise ConfigError(f"need at least one layer, got {layers}")
    width = f_z if width is None else int(width)
    if width < 1:
        raise ConfigError(f"layer width must be >= 1, got {width}")
    dims_z = [int(f_z)] + [width] * layers
    dims_y = [int(f_y)] + [width] * layers
    return dims_z, dims_y


def init_params(
    dims_z: Sequence[int],
    dims_y: Sequence[int],
    variant: VariantKind,
    rng: RngLike = 0,
    n_classes: Optional[int] = None,
) -> ModelParams:
    """Seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights for the whole stack.

    dims_z/dims_y list the widths of Z(0..L) and Y(0..L).  The base
    variant's Y update adds B_e Z(k+1) to S_e Y(k), which forces
    dims_y[k] == dims_z[k+1]; violations are rejected here rather than
    mid-forward.
    """
    rng = as_rng(rng)
    if len(dims_z) != len(dims_y) or len(dims_z) < 2:
        raise ConfigError(
            f"dims_z and dims_y must share a length >= 2, got {len(dims_z)} and {len(dims_y)}"
        )
    layers = len(dims_z) - 1
    if variant.coupled:
        for k in range(layers):
            if dims_y[k] != dims_z[k + 1]:
                raise ConfigError(
                    "base variant requires matching widths for S_e Y(k) + B_e Z(k+1): "
                    f"dims_y[{k}]={dims_y[k]} vs dims_z[{k + 1}]={dims_z[k + 1]}"
                )
    w = [_glorot(rng, dims_z[k], dims_z[k + 1]) for k in range(layers)]
    w_e = [_glorot(rng, dims_y[k], dims_y[k + 1]) for k in range(layers)]
    psi = _glorot(rng, dims_z[-1] + dims_y[-1], dims_z[-1])
    head = None
    if n_classes is not None:
        if n_classes < 2:
            raise ConfigError(f"classifier head needs >= 2 classes, got {n_classes}")
        head = _glorot(rng, dims_z[-1], n_classes)
    return ModelParams(w=w, w_e=w_e, psi=psi, head=head)


@dataclass
class EmbeddingState:
    """Per-layer embeddings plus the caches the backward pass consumes.

    z[k]/y[k] are the layer inputs and outputs (z[0] = input features);
    agg_z[k]/agg_y[k] are the pre-weight aggregates fed into W(k)/W_e(k);
    deriv_z[k]/deriv_y[k] are the activation derivatives at the layer-k
    pre-activations (rrelu's sampled slopes live inside these).
    """

    z: list[np.ndarray]
    y: list[np.ndarray]
    agg_z: list[np.ndarray]
    agg_y: list[np.ndarray]
    deriv_z: list[np.ndarray]
    deriv_y: list[np.ndarray]

    @property
    def layers(self) -> int:
        return len(self.agg_z)

    @property
    def z_final(self) -> np.ndarray:
        return self.z[-1]

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


def forward(
    ops: PropagationOperators,
    params: ModelParams,
    z0: np.ndarray,
    y0: np.ndarray,
    variant: VariantKind,
    rng: RngLike = None,
    training: bool = False,
) -> EmbeddingState:
    """Run all layers, caching everything the backward pass needs."""
    z0 = np.asarray(z0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if z0.ndim != 2 or z0.shape[0] != ops.num_nodes:
        raise DataError(f"z0 must be ({ops.num_nodes}, *), got {z0.shape}")
    if y0.ndim != 2 or y0.shape[0] != ops.num_hyperedges:
        raise DataError(f"y0 must be ({ops.num_hyperedges}, *), got {y0.shape}")
    if z0.shape[1] != params.w[0].shape[0]:
        raise DataError(
            f"z0 width {z0.shape[1]} does not match W(0) input dim {params.w[0].shape[0]}"
        )
    if y0.shape[1] != params.w_e[0].shape[0]:
        raise DataError(
            f"y0 width {y0.shape[1]} does not match W_e(0) input dim {params.w_e[0].shape[0]}"
        )
    if variant.tag != ops.tag:
        raise ConfigError(f"operators built for {ops.tag!r} but forward asked for {variant.tag!r}")
    rng = as_rng(rng) if training else None

    state = EmbeddingState(z=[z0], y=[y0], agg_z=[], agg_y=[], deriv_z=[], deriv_y=[])
    for k in range(params.layers):
        agg_z = ops.s_v @ state.z[k]
        if ops.b_v is not None:
            agg_z = agg_z + ops.b_v @ state.y[k]
        z_next, dz = activate(variant.sigma_v, agg_z @ params.w[k], rng, training)
        agg_y = ops.s_e @ state.y[k]
        if ops.b_e is not None:
            agg_y = agg_y + ops.b_e @ z_next
        y_next, dy = activate(variant.sigma_e, agg_y @ params.w_e[k], rng, training)
        state.z.append(z_next)
        state.y.append(y_next)
        state.agg_z.append(agg_z)
        state.agg_y.append(agg_y)
        state.deriv_z.append(dz)
        state.deriv_y.append(dy)
    return state


def dependent_embeddings(
    z_rows: np.ndarray, y_rows: np.ndarray, params: ModelParams, variant: VariantKind
) -> np.ndarray:
    """Batched psi([z_i ; y_e]): one output row per input row pair (eval-mode activation)."""
    z_rows = np.atleast_2d(np.asarray(z_rows, dtype=np.float64))
    y_rows = np.atleast_2d(np.asarray(y_rows, dtype=np.float64))
    if z_rows.shape[0] != y_rows.shape[0]:
        raise DataError(
            f"need matching row counts, got {z_rows.shape[0]} and {y_rows.shape[0]}"
        )
    cat = np.concatenate([z_rows, y_rows], axis=1)
    if cat.shape[1] != params.psi.shape[0]:
        raise DataError(
            f"concatenated width {cat.shape[1]} does not match psi input dim {params.psi.shape[0]}"
        )
    value, _ = activate(variant.sigma_v, cat @ params.psi)
    return value


def export_embedding_set(
    g: Hypergraph,
    state: EmbeddingState,
    params: ModelParams,
    node: int,
    variant: VariantKind,
) -> np.ndarray:
    """The node's hyperedge-dependent embeddings, one row per incident hyperedge.

    Rows follow ascending hyperedge index; a node in no hyperedge yields
    a 0-row matrix.  Row count always equals the node's hyperedge degree.
    """
    if not 0 <= node < g.num_nodes:
        raise DataError(f"node {node} outside [0, {g.num_nodes})")
    edges = g.node_edges[node]
    z_rows = np.repeat(state.z_final[node][np.newaxis, :], edges.size, axis=0)
    y_rows = state.y_final[edges, :]
    return dependent_embeddings(z_rows, y_rows, params, variant)


def save_checkpoint(
    path, params: ModelParams, meta: Optional[dict] = None
) -> None:
    """Versioned .npz dump of every weight matrix plus a JSON metadata blob."""
    arrays = dict(params.named_arrays())
    arrays["format_version"] = np.asarray(1, dtype=np.int64)
    arrays["layer_count"] = np.asarray(params.layers, dtype=np.int64)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Bit-exact inverse of save_checkpoint."""
    try:
        blob = np.load(path)
    except FileNotFoundError:
        raise DataError(f"checkpoint {path} does not exist")
    except (OSError, ValueError) as exc:
        raise DataError(f"checkpoint {path} is not a readable archive ({exc})")
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise DataError(f"checkpoint {path} is a single array, not an .npz archive")
    with blob:
        try:
            version = int(blob["format_version"])
            if version != 1:
                raise DataError(f"unsupported checkpoint version {version}")
            layers = int(blob["layer_count"])
            w = [blob[f"w_{k}"] for k in range(layers)]
            w_e = [blob[f"we_{k}"] for k in range(layers)]
            psi = blob["psi"]
            head = blob["head"] if "head" in blob.files else None
            meta = json.loads(bytes(blob["meta_json"]).decode("utf-8"))
        except KeyError as exc:
            raise DataError(f"checkpoint {path} is not a hyperemb checkpoint: {exc.args[0]}")
    return ModelParams(w=w, w_e=w_e, psi=psi, head=head), meta
