"""Layer family for joint node/hyperedge embeddings.

The base layer couples the two streams:

    Z(k+1) = sigma_v((S_v Z(k) + B_v Y(k)) W(k))
    Y(k+1) = sigma_e((S_e Y(k) + B_e Z(k+1)) W_e(k))

where the Y update reads the freshly computed Z(k+1).  Y reaches an output
only through B_v Y(k) in the Z update, so the Y update runs for k < L-1
alone: the stream holds Y(0..L-1), with Z's widths, and W_e(0..L-2) are
its only weights.  The four variants (p2, plusplus, wt, h2) swap in a
different node operator and drop the cross-stream B terms.  Their Y would
then never reach Z, and no loss or output reads it, so they have no Y
stream at all: no S_e, Y(0), Y update or W_e.  The hyperedge-dependent
embedding of node i in hyperedge e, act([z_i ; mean of e's rows of Z(L)] @
psi), is computed from Z(L) alone (``training.dependent_embeddings``).

Every operator is an ``Operator``: a sum of products of the scaled incidence
factors D^-1 H, H De^-1, D^-1 H De^-1 and their transposes, as the paper
writes them, applied factor by factor.  No product is multiplied out, so
every stored factor has one nonzero per incidence, and a build is three
scalings of H and one transpose.  ``build_operators`` returns read-only
arrays; ``train`` and each checkpoint replay build their own.

Before W(0), layer 0 only aggregates fixed inputs through fixed operators.
So a ``ForwardInputs`` holds Z(0), Y(0) and their layer-0 products,
S_v Z(0) (+ B_v Y(0)) and base's S_e Y(0), formed once per (operators,
features) pair.  ``training.train`` builds one per trial, and all of its
forwards, the final eval pass included, read layer 0 from it.

Row-wise work.  Each layer's ``agg @ W`` is one GEMM, and ``activate``
writes its value and derivative into two preallocated arrays one row block
of at most ``ROW_BLOCK`` elements at a time, so a block's temporaries stay
in cache.  Every element goes through the same operations as in the
whole-array expression, so every float is the whole-array one.  The GEMM
itself is not cut into row blocks: OpenBLAS's kernels sum a narrow
product's rows in an order that depends on the block (30,000 x 33 by
33 x 3 in 2,048-row blocks differs in the last bits).  The module also
holds seeded weight initialisation and the checkpoint format.
"""

from __future__ import annotations

import functools
import json
import operator
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


# an activation and its derivative run in row blocks of at most this many elements
# (256 KiB of float64), so a block's temporaries stay in a core's 2 MiB L2.  Random
# float64 arrays on the 2-vCPU benchmark host, one BLAS thread, median of 25 calls of
# ``activate``, whole array -> blocks of 2^15: at 43,413 x 32 (dblp size) tanh 12.5
# -> 9.3 ms, gelu 60.7 -> 46.3, selu 44.3 -> 27.5; at 3,327 x 32 (citeseer size) tanh
# 0.53 -> 0.48, gelu 3.07 -> 2.94.  Blocks of 2^14 read the same and 2^16-2^17 up to
# 20% slower at dblp size.  Spreading the blocks over both vCPUs gained nothing in an
# earlier probe at either size (dblp size: tanh 3.5 -> 4.0 ms, gelu 27.4 -> 31.2; two
# threads each running tanh took twice one thread's time), so they run on the calling
# thread
ROW_BLOCK = 1 << 15

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


def row_blocks(rows: int, row_size: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds that cut ``rows`` rows of ``row_size`` elements into the
    fewest even blocks of at most ``ROW_BLOCK`` elements, or of one row each
    when a row is larger; an array of at most ``ROW_BLOCK`` elements is one block."""
    blocks = -(-rows // max(1, ROW_BLOCK // max(row_size, 1)))
    bounds = [rows * i // blocks for i in range(blocks + 1)] if blocks else [0]
    return list(zip(bounds, bounds[1:]))


def _activation_block(tag: str, x: np.ndarray, value: np.ndarray, deriv: np.ndarray, slope) -> None:
    """Write tag(x) into ``value`` and its derivative at x into ``deriv``.

    Every float is the one the whole-array expression gives: each element
    goes through the same elementwise operations in the same order.
    """
    if tag == "tanh":
        np.tanh(x, out=value)
        np.subtract(1.0, value * value, out=deriv)
    elif tag == "leaky-relu":
        pos = x > 0
        deriv[...] = np.where(pos, 1.0, LEAKY_SLOPE)
        value[...] = np.where(pos, x, LEAKY_SLOPE * x)
    elif tag == "gelu":
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        np.multiply(x, cdf, out=value)
        np.add(cdf, x * pdf, out=deriv)
    elif tag == "selu":
        pos = x > 0
        ex = np.exp(np.minimum(x, 0.0))
        np.multiply(SELU_LAMBDA, np.where(pos, x, SELU_ALPHA * (ex - 1.0)), out=value)
        np.multiply(SELU_LAMBDA, np.where(pos, 1.0, SELU_ALPHA * ex), out=deriv)
    else:  # rrelu
        pos = x >= 0
        value[...] = np.where(pos, x, slope * x)
        deriv[...] = np.where(pos, 1.0, slope)


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
    midpoint in eval mode.  The slopes are drawn whole; then both outputs
    are allocated and written one row block (``row_blocks``) at a time, so a
    block's temporaries stay in cache.
    """
    if tag not in ACTIVATION_TAGS:
        raise ConfigError(f"unknown activation {tag!r}")
    x = np.asarray(x, dtype=np.float64)
    slope = None
    if tag == "rrelu":
        lo, hi = RRELU_RANGE
        if training:
            if rng is None:
                raise ConfigError("rrelu in training mode needs a random generator")
            slope = rng.uniform(lo, hi, size=x.shape)
        else:
            slope = (lo + hi) / 2.0
    value, deriv = np.empty_like(x), np.empty_like(x)
    rows = x.shape[0]
    for lo, hi in row_blocks(rows, x.size // max(rows, 1)):
        block_slope = slope[lo:hi] if isinstance(slope, np.ndarray) else slope
        _activation_block(tag, x[lo:hi], value[lo:hi], deriv[lo:hi], block_slope)
    return value, deriv


@dataclass(frozen=True, eq=False)
class Operator:
    """A sum of sparse products, applied without multiplying them out.

    Each term is a tuple of sparse factors (CSR, or the CSC view ``.T`` of
    one) applied right to left, one ``f @ y`` per factor; the terms' results
    are summed in order.  ``data``, ``indices`` and ``indptr`` are the
    factors' arrays, concatenated when there are several, so their
    ``nbytes`` count what the operator reads per application.
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
                y = f @ y
            if out is None:
                out = y
            else:  # the first term's result is a fresh product, so it takes the sum
                out += y
        return out

    def toarray(self) -> np.ndarray:
        return sum(functools.reduce(operator.matmul, term).toarray() for term in self.terms)

    def _stored(self, name: str) -> np.ndarray:
        arrays = [getattr(f, name) for f in self.factors]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    data = property(lambda self: self._stored("data"))
    indices = property(lambda self: self._stored("indices"))
    indptr = property(lambda self: self._stored("indptr"))


@dataclass(frozen=True, eq=False)
class PropagationOperators:
    """The propagation operators for one (graph, variant) pair.

    s_e, b_v and b_e are None for the decoupled variants, which have no Y stream.
    """

    tag: str
    s_v: Operator
    s_e: Optional[Operator]
    b_v: Optional[Operator] = None
    b_e: Optional[Operator] = None

    @property
    def num_nodes(self) -> int:
        return self.s_v.shape[0]


def build_operators(g: Hypergraph, variant: VariantKind | str) -> PropagationOperators:
    """Assemble the propagation operators for the given variant.

    Each operator is a sum of products of the scaled incidence factors, kept
    as chains of those factors; P = H De^-1 (D^-1 H)^T and
    P_e = (D^-1 H)^T H De^-1 are written as their two factors.  The factors'
    arrays are read-only.
    """
    if isinstance(variant, str):
        variant = VariantKind(tag=variant)
    h, d_inv, de_inv = g.pack.h, g.pack.d_inv, g.pack.de_inv

    hd = canonical(h.multiply(d_inv[:, np.newaxis]))  # D^-1 H
    hde = canonical(h.multiply(de_inv[np.newaxis, :]))  # H De^-1
    hdd = canonical(hd.multiply(de_inv[np.newaxis, :]))  # D^-1 H De^-1
    dt = canonical(hd.T)  # (D^-1 H)^T, stored row-wise
    p, p_e = (hde, dt), (dt, hde)

    tag = variant.tag
    if tag == "base":
        ops = PropagationOperators(
            tag,
            Operator(((hd, *p_e, hdd.T),)),
            Operator(((hde.T, *p, hdd),)),
            b_v=Operator(((hd,),)),
            b_e=Operator(((hde.T,),)),
        )
    else:
        s_v = {
            "p2": ((hdd, hd.T), p, (*p, *p)),
            "plusplus": ((hd, *p_e, hdd.T), p),
            "wt": ((hd, *p_e, hd.T),),
            "h2": ((h, h.T), p),
        }[tag]
        ops = PropagationOperators(tag, Operator(s_v), None)
    for op in (ops.s_v, ops.s_e, ops.b_v, ops.b_e):
        for f in op.factors if op is not None else ():
            for a in (f.data, f.indices, f.indptr):
                a.setflags(write=False)
    return ops


@dataclass
class ModelParams:
    """Learned weights or their gradients: per-layer W, base's W_e(0..L-2), psi, optional head."""

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

    def check(self, coupled: bool) -> None:
        """Raise DataError unless the arrays make one stack: W(k) chaining, base's
        one width, each W_e shaped like its W, psi (2 d_L, d_L), head d_L rows."""
        for name, a in self.named_arrays():
            if a.ndim != 2:
                raise DataError(f"{name} is {a.ndim}-d, not a matrix")
        for k in range(1, self.layers):
            if self.w[k].shape[0] != self.w[k - 1].shape[1]:
                raise DataError(f"w_{k} is shaped {self.w[k].shape}, which does not chain onto "
                                f"w_{k - 1} {self.w[k - 1].shape}")
        if coupled and len({n for a in self.w for n in a.shape}) > 1:
            raise DataError(f"base needs one width throughout, got {[a.shape for a in self.w]}")
        for k, a in enumerate(self.w_e):
            if a.shape != self.w[k].shape:
                raise DataError(f"we_{k} is shaped {a.shape}, w_{k} {self.w[k].shape}")
        d = self.w[-1].shape[1]
        if self.psi.shape != (2 * d, d):
            raise DataError(f"psi is shaped {self.psi.shape}; Z(L) of width {d} needs ({2 * d}, {d})")
        if self.head is not None and self.head.shape[0] != d:
            raise DataError(f"head is shaped {self.head.shape}; Z(L) of width {d} needs ({d}, *)")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def default_dims(f: int, layers: int, width: Optional[int] = None) -> list[int]:
    """Uniform widths of Z(0..L): Z(0) has the feature dim ``f``, and every
    hidden/output dim equals it unless ``width`` overrides it."""
    if layers < 1:
        raise ConfigError(f"need at least one layer, got {layers}")
    width = f if width is None else int(width)
    if width < 1:
        raise ConfigError(f"layer width must be >= 1, got {width}")
    return [int(f)] + [width] * layers


def init_params(
    dims: Sequence[int],
    variant: VariantKind,
    rng: RngLike = 0,
    n_classes: Optional[int] = None,
) -> ModelParams:
    """Seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights for the whole stack.

    ``dims`` lists the widths of Z(0..L), and Y(k) has Z(k)'s width.  The
    base variant adds B_v Y(k) to S_v Z(k) and B_e Z(k+1) to S_e Y(k), so it
    needs one width throughout; other widths are rejected here rather than
    mid-forward.
    """
    rng = as_rng(rng)
    if len(dims) < 2:
        raise ConfigError(f"dims must list at least 2 widths, got {len(dims)}")
    if variant.coupled and len(set(dims)) > 1:
        raise ConfigError(f"base variant needs one width throughout, got dims {list(dims)}")
    layers = len(dims) - 1
    w = [_glorot(rng, dims[k], dims[k + 1]) for k in range(layers)]
    w_e = [_glorot(rng, dims[k], dims[k + 1]) for k in range(layers - 1 if variant.coupled else 0)]
    psi = _glorot(rng, 2 * dims[-1], dims[-1])
    head = None
    if n_classes is not None:
        if n_classes < 2:
            raise ConfigError(f"classifier head needs >= 2 classes, got {n_classes}")
        head = _glorot(rng, dims[-1], n_classes)
    return ModelParams(w=w, w_e=w_e, psi=psi, head=head)


@dataclass
class EmbeddingState:
    """Per-layer embeddings plus the caches the backward pass consumes.

    z[k]/y[k] are the layer inputs and outputs (z[0] = input features);
    agg_z[k]/agg_y[k] are the pre-weight aggregates fed into W(k)/W_e(k);
    deriv_z[k]/deriv_y[k] are the activation derivatives at the layer-k
    pre-activations (rrelu's sampled slopes live inside these).  Only base
    has a Y stream, and it ends at Y(L-1), the last Y the Z update reads:
    y holds L entries, agg_y and deriv_y L-1.  A decoupled variant's y,
    agg_y and deriv_y stay empty.
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


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes; ``a`` itself keeps its flag."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class ForwardInputs:
    """Z(0), Y(0) and their layer-0 products under one set of operators.

    ``agg_z0`` (S_v Z(0), plus B_v Y(0) for base) and base's ``s_e_y0``
    (S_e Y(0)) are formed on first read, and every ``forward`` on these
    inputs reuses them.  ``forward`` reads ``s_e_y0`` only when a Y update
    runs, so base at L = 1 never forms it.  Every array is read-only.  A
    decoupled variant has no Y stream, so its ``y0`` is dropped (None).
    A float64 ``z0`` is held as a read-only view of the given array, not a copy.
    """

    ops: PropagationOperators
    z0: np.ndarray
    y0: Optional[np.ndarray] = None

    def __post_init__(self):
        ops = self.ops
        z0 = np.asarray(self.z0, dtype=np.float64)
        if z0.ndim != 2 or z0.shape[0] != ops.num_nodes:
            raise DataError(f"z0 must be ({ops.num_nodes}, *), got {z0.shape}")
        y0 = None
        if ops.s_e is not None:
            y0 = np.asarray(self.y0, dtype=np.float64)
            if y0.ndim != 2 or y0.shape[0] != ops.s_e.shape[0]:
                raise DataError(f"y0 must be ({ops.s_e.shape[0]}, *), got {y0.shape}")
            if y0.shape[1] != z0.shape[1]:
                raise DataError(f"y0 width {y0.shape[1]} does not match z0 width {z0.shape[1]}")
            y0 = _read_only(y0)
        object.__setattr__(self, "z0", _read_only(z0))
        object.__setattr__(self, "y0", y0)

    @functools.cached_property
    def agg_z0(self) -> np.ndarray:
        """agg_z[0], the aggregate W(0) reads: S_v Z(0), plus B_v Y(0) for base."""
        agg = self.ops.s_v @ self.z0
        if self.ops.b_v is not None:
            agg = agg + self.ops.b_v @ self.y0
        return _read_only(agg)

    @functools.cached_property
    def s_e_y0(self) -> np.ndarray:
        """S_e Y(0), the first term of base's agg_y[0]."""
        return _read_only(self.ops.s_e @ self.y0)


def forward(
    ops: PropagationOperators,
    params: ModelParams,
    inputs: ForwardInputs,
    variant: VariantKind,
    rng: RngLike = None,
    training: bool = False,
) -> EmbeddingState:
    """Run all layers, caching everything the backward pass needs.

    ``inputs`` must have been built on ``ops``.  Layer 0 reads its
    aggregates from ``inputs``, so a forward applies S_v (and base's B_v and
    B_e) L-1 times and base's S_e L-2 times, never at L = 1.  Only the
    coupled ``base`` variant runs the Y update, for k < L-1; a decoupled
    variant runs the Z stream alone, in training and eval mode alike.
    """
    if inputs.ops is not ops:
        raise ConfigError("inputs were built on other operators than the ones forward was given")
    if variant.tag != ops.tag:
        raise ConfigError(f"operators built for {ops.tag!r} but forward asked for {variant.tag!r}")
    if len(params.w_e) != (params.layers - 1 if variant.coupled else 0):
        raise DataError(f"{variant.tag} reads W_e(0..L-2) for base, none otherwise; got {len(params.w_e)}")
    z0 = inputs.z0
    if z0.shape[1] != params.w[0].shape[0]:
        raise DataError(
            f"z0 width {z0.shape[1]} does not match W(0) input dim {params.w[0].shape[0]}"
        )
    rng = as_rng(rng) if training else None

    ys = [inputs.y0] if variant.coupled else []
    state = EmbeddingState(z=[z0], y=ys, agg_z=[], agg_y=[], deriv_z=[], deriv_y=[])
    for k in range(params.layers):
        if k:
            agg_z = ops.s_v @ state.z[k]
            if ops.b_v is not None:
                agg_z = agg_z + ops.b_v @ state.y[k]
        else:
            agg_z = inputs.agg_z0
        z_next, dz = activate(variant.sigma_v, agg_z @ params.w[k], rng, training)
        state.z.append(z_next)
        state.agg_z.append(agg_z)
        state.deriv_z.append(dz)
        if not variant.coupled or k == params.layers - 1:
            continue
        agg_y = (ops.s_e @ state.y[k] if k else inputs.s_e_y0) + ops.b_e @ z_next
        y_next, dy = activate(variant.sigma_e, agg_y @ params.w_e[k], rng, training)
        state.y.append(y_next)
        state.agg_y.append(agg_y)
        state.deriv_y.append(dy)
    return state


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
    """Bit-exact inverse of save_checkpoint, with the arrays' shapes checked.  The
    ``we_K`` the meta's variant never reads, which checkpoints of every variant
    stored for all L layers before W_e was trimmed, are skipped."""
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
            if layers < 1:
                raise DataError(f"checkpoint {path} has layer_count {layers}; it needs at least 1")
            meta = json.loads(bytes(blob["meta_json"]).decode("utf-8"))
            coupled = meta["variant"] == "base" if "variant" in meta else "we_0" in blob.files
            w = [blob[f"w_{k}"] for k in range(layers)]
            w_e = [blob[f"we_{k}"] for k in range(layers - 1 if coupled else 0)]
            psi = blob["psi"]
            head = blob["head"] if "head" in blob.files else None
        except KeyError as exc:
            raise DataError(f"checkpoint {path} is not a hyperemb checkpoint: {exc.args[0]}")
    params = ModelParams(w=w, w_e=w_e, psi=psi, head=head)
    try:
        params.check(coupled)
    except DataError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    return params, meta
