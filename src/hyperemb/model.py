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
factors D^-1 H, H De^-1, D^-1 H De^-1 and their transposes.  ``build_operators``
decides from nonzero counts alone which products to multiply out into one CSR
and which to apply factor by factor, and returns read-only arrays.  Training
and checkpoint replays take them from ``training.shared_operators``, so each
(graph, variant) is built once and shared by every epoch, trial, sweep cell
and replay on that graph, and one set stays alive with the graph.

Before W(0), layer 0 only aggregates fixed inputs through fixed operators.
So a ``ForwardInputs`` holds Z(0), Y(0) and their layer-0 products,
S_v Z(0) (+ B_v Y(0)) and base's S_e Y(0), formed once per (operators,
features) pair.  ``training.train`` builds one per trial, and all of its
forwards, the final eval pass included, read layer 0 from it.

Node order.  A graph of at least ``REORDER_MIN_NODES`` nodes is propagated
in reverse Cuthill-McKee order (``PropagationOperators.order``), so the
gathers of S_v Z and S_v^T dZ read rows that lie close together.  The
operators' node axes are relabelled without re-sorting any row, and the
dense state stays in that storage order for the whole trial: ``forward``
returns Z(L) in node order and ``training.backward`` takes its adjoint in
node order.  Every forward float is the one the node-order pass gives, bit
for bit, rrelu's training slopes included.  The W gradients sum over nodes
in the new order, through W's aggregate and through the transposed
operators, so they, and every weight trained from them, move in the last
bits.  Smaller graphs keep their own order and their floats.

Every sparse-times-dense product of the forward pass, and of the backward
pass in ``training``, goes through ``spmm``.  When the BLAS runs one thread,
a large product is split by the dense operand's columns over the CPUs of
the process's affinity mask; each output element is still summed in the
same order, so the result is bit-identical to a one-CPU run.

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf

from .errors import ConfigError, DataError
from .features import RngLike, as_rng
from .hypergraph import Hypergraph, canonical, node_adjacency

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

    The parts read the operands from a list that is emptied once every part
    has returned: a pool worker drops its work item only after the result is
    set, so a part that held ``x`` itself could keep it alive past the return.
    """
    width = x.shape[1]
    parts = _split_parts(a.nnz, a.shape[0], width)
    if parts < 2:
        return a @ x
    out = np.empty((a.shape[0], width), dtype=np.result_type(a.dtype, x.dtype))
    bounds = [width * i // parts for i in range(parts + 1)]
    operands = [a, x, out]
    for future in [_POOL.submit(_spmm_part, operands, lo, hi) for lo, hi in zip(bounds, bounds[1:])]:
        future.result()
    operands.clear()
    return out


def _spmm_part(operands: list, lo: int, hi: int) -> None:
    """Columns lo:hi of one split ``spmm`` product."""
    a, x, out = operands
    out[:, lo:hi] = a @ x[:, lo:hi]


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
    order: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the tagged nonlinearity; return (value, elementwise derivative).

    The derivative is evaluated at x and cached by the caller for the
    backward pass.  rrelu draws per-element negative slopes uniformly from
    ``RRELU_RANGE`` with ``rng`` in training mode and uses the range's
    midpoint in eval mode.  When x's rows are nodes in storage order
    ``order``, the slopes are drawn for node-order rows and gathered, so each
    node gets the slopes it would get in node order.  The slopes are drawn
    whole; then both outputs are allocated and written one row block
    (``row_blocks``) at a time, so a block's temporaries stay in cache.
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
            if order is not None:
                slope = slope[order]
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


@dataclass(frozen=True, eq=False)
class PropagationOperators:
    """The propagation operators for one (graph, variant) pair.

    s_e, b_v and b_e are None for the decoupled variants, which have no Y stream.
    ``order`` is the storage order of the node axes: storage row j is node
    ``order[j]``.  It is None when nodes keep their own order.
    """

    tag: str
    s_v: Operator
    s_e: Optional[Operator]
    b_v: Optional[Operator] = None
    b_e: Optional[Operator] = None
    order: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return self.s_v.shape[0]


# a product stays a chain of factors when the row-wise bound on its multiplied-out
# nonzeros is at least this many times the chain's work, sum(factor nnz + factor
# rows).  Probe, one width-32 product at one BLAS thread on the seed-1 planted
# graphs: on the citeseer-size train split base's S_v and S_e (ratios 27.7 and
# 29.4) went 12.6 -> 1.5 and 15.2 -> 1.8 ms as chains; at dblp size base's S_e and
# p2's P_e P_e (5.8) lost, 19.3 -> 22.6 ms, and S_v and P P (11.3) won alone,
# 54.7 -> 24.7 ms, which 16 leaves unclaimed so that dblp keeps its operators
CHAIN_MIN_RATIO = 16

# a graph of at least this many nodes is propagated in reverse Cuthill-McKee order.
# At 16,384 nodes a width-32 float64 operand is 4 MiB, the two 2 MiB L2s of the
# 2-vCPU benchmark host, where ``spmm`` gives each core a 16-column half; a smaller
# graph's gathers hit the cache in any order: on the seed-1 citeseer-size graph one
# S_v Z took 1.59 -> 1.52 ms reordered for base and 2.71 -> 2.73 ms for p2.  In seed-1 dblp-size node-class trials (43,413 nodes,
# one BLAS thread, split in two), p2's S_v Z went from 46-70 ms per product to 24.5 ms
# and S_v^T dZ from 38-59 ms to 23.5 ms, for about 0.035 s of H H^T and ordering per build
REORDER_MIN_NODES = 16_384


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


def _node_order(g: Hypergraph) -> Optional[np.ndarray]:
    """Reverse Cuthill-McKee order of H H^T's pattern, or None below ``REORDER_MIN_NODES`` nodes."""
    if g.num_nodes < REORDER_MIN_NODES:
        return None
    # imported here: the module costs 7 MB of RSS that smaller graphs need not pay
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return reverse_cuthill_mckee(node_adjacency(g), symmetric_mode=True)


def _relabel_factor(f: sparse.sparray, order: np.ndarray, inv: np.ndarray, rows: bool, cols: bool):
    """``f`` with its node rows and/or columns renumbered into storage order.

    Storage row j is old row ``order[j]``, moved whole, and old column c
    becomes column ``inv[c]``, with no row re-sorted, so every output element
    sums its terms in the order it did before.  The kernel of a CSC view
    ``c.T`` adds each output row's terms in column order, so a view whose
    columns are nodes is stored row-wise first; any other is relabelled
    through ``c``.
    """
    if f.format == "csc":
        if not cols:
            return _relabel_factor(f.T, order, inv, False, rows).T
        f = sparse.csr_array(f)
    if rows:
        f = f[order]
    indices = inv[f.indices].astype(f.indices.dtype, copy=False) if cols else f.indices
    return sparse.csr_array((f.data, indices, f.indptr), shape=f.shape)


def _reordered(ops: PropagationOperators, order: np.ndarray) -> PropagationOperators:
    """``ops`` with every node axis of every factor in storage order ``order``.

    A chain's factors are incidence factors, each between nodes and
    hyperedges, so its axes alternate between the two kinds.  A factor that
    several terms share is relabelled once and stays shared.
    """
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size, dtype=order.dtype)
    done: dict = {}

    def factor(f, rows, cols):
        if not (rows or cols):
            return f
        key = (id(f), rows, cols)
        if key not in done:
            done[key] = _relabel_factor(f, order, inv, rows, cols)
        return done[key]

    def relabel(op, rows, cols):
        if op is None:
            return None
        terms = []
        for term in op.terms:
            nodes = [rows, cols] if len(term) == 1 else [rows != bool(i % 2) for i in range(len(term) + 1)]
            terms.append(tuple(factor(f, nodes[i], nodes[i + 1]) for i, f in enumerate(term)))
        return Operator(tuple(terms))

    return PropagationOperators(
        ops.tag, relabel(ops.s_v, True, True), ops.s_e,
        b_v=relabel(ops.b_v, True, False), b_e=relabel(ops.b_e, False, True), order=order,
    )


def build_operators(g: Hypergraph, variant: VariantKind | str) -> PropagationOperators:
    """Assemble the propagation operators for the given variant.

    Each operator is written as a sum of products over the scaled incidence
    factors and planned term by term (``_plan``); the result depends only on
    the graph's nonzero counts, never on a timing.  From ``REORDER_MIN_NODES``
    nodes on, the node axes are then put in reverse Cuthill-McKee order.
    Every call returns new objects, whose arrays are read-only, because
    ``training.shared_operators`` hands one set to every trial on the graph.
    """
    order = _node_order(g)
    ops = _operators(g, variant)
    if order is not None:
        ops = _reordered(ops, order)
        order.setflags(write=False)
    for op in (ops.s_v, ops.s_e, ops.b_v, ops.b_e):
        for f in op.factors if op is not None else ():
            for a in (f.data, f.indices, f.indptr):
                a.setflags(write=False)
    return ops


def _operators(g: Hypergraph, variant: VariantKind | str) -> PropagationOperators:
    """The operators of ``build_operators`` with nodes in their own order."""
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
    elif tag == "plusplus":
        s_v = [(hd, p_e, hdd.T), (p,)]
    elif tag == "wt":
        s_v = [(hd, p_e, hd.T)]
    elif tag == "h2":
        s_v = [(h, h.T), (p,)]
    else:  # pragma: no cover - guarded by VariantKind
        raise ConfigError(f"unknown variant {tag!r}")
    return PropagationOperators(tag, _plan(s_v), None)


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

    z[0..L-1], agg_z and deriv_z have their rows in the operators' storage
    order (``PropagationOperators.order``); ``z_final`` = z[L] is in node
    order.  The Y stream's rows are hyperedges, which are never reordered.
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

    ``z0`` is given in node order and held in the operators' storage order,
    as is ``agg_z0``.  When the operators reorder nodes, ``z0`` is a gathered
    copy, and these inputs should be its only holder: a caller that keeps the
    node-order array keeps a second N x F array alive.
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
        if ops.order is not None:
            z0 = z0[ops.order]
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
    variant runs the Z stream alone, in training and eval mode alike.  The
    layers run in the operators' storage order, and Z(L) is put back in node
    order once, replacing the storage-order array.
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
        z_next, dz = activate(variant.sigma_v, agg_z @ params.w[k], rng, training, ops.order)
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
    if ops.order is not None:
        z_final = np.empty_like(z_next)
        z_final[ops.order] = z_next
        state.z[-1] = z_final
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
