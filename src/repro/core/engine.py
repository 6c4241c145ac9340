"""The factorization-reusing inference engine (LIA's hot path).

The paper stresses that "the inference method is fast": after the
augmented matrix ``A`` is built once per network, per-snapshot inference
should cost little more than a pair of triangular solves.  The seed code
met the first half (cached intersecting pairs) but re-ran the phase-2
column reduction *and* re-factorized ``R*`` from scratch on every
``infer()`` call — even when consecutive snapshots keep exactly the same
column set, which is the common case for rolling-window monitoring and
every fig*/table* campaign.

:class:`InferenceEngine` closes that gap.  It owns the cached
:class:`~repro.core.augmented.IntersectingPairs`, memoizes phase-2
reductions keyed by (variance vector, cutoff), and memoizes the thin QR
factorization of ``R*`` keyed by the kept-column set
(:class:`FactorizationCache`).  :meth:`InferenceEngine.infer_batch`
solves a whole window of snapshots as one multi-RHS triangular solve
against a single factorization.

:class:`repro.core.lia.LossInferenceAlgorithm` is the user-facing wrapper
bound to this engine; the delay and monitoring layers reuse the same
caches through it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as scipy_linalg
from scipy import sparse

from repro.core.augmented import IntersectingPairs, intersecting_pairs
from repro.core.kernels import cgs2_project
from repro.core.linalg import (
    IncrementalColumnBasis,
    QRFactorization,
    solve_upper_triangular,
)
from repro.core.sparse_solvers import solve_normal_sparse
from repro.core.reduction import (
    REDUCTION_STRATEGIES,
    ReductionResult,
    reduce_to_full_rank,
)
from repro.core.variance import (
    VARIANCE_METHODS,
    VarianceEstimate,
    estimate_link_variances,
)
from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.routing import RoutingMatrix


@dataclass(frozen=True)
class LIAResult:
    """Inferred link performance for one snapshot."""

    transmission_rates: np.ndarray  # per routing-matrix column, in (0, 1]
    variance_estimate: VarianceEstimate
    reduction: ReductionResult

    @property
    def loss_rates(self) -> np.ndarray:
        return 1.0 - self.transmission_rates

    @property
    def num_links(self) -> int:
        return int(self.transmission_rates.shape[0])

    def congested_links(self, threshold: float) -> np.ndarray:
        """Boolean mask of links whose inferred loss rate exceeds *threshold*."""
        return self.loss_rates > threshold


@dataclass(frozen=True)
class CacheInfo:
    """One engine cache's counters, in ``functools``-style spirit.

    ``updates`` counts requests absorbed by an incremental update
    (column adds for the factorization cache, sweep-free reuse for the
    reduction cache), ``downdates`` by Givens column removals;
    ``misses`` are the requests that paid full price.
    ``resident_bytes`` tracks the arrays the cache keeps alive (shared
    arrays between entries are counted once per entry, a deliberate
    overcount that keeps the byte budget conservative).
    """

    hits: int
    misses: int
    updates: int
    downdates: int
    evictions: int
    entries: int
    resident_bytes: int

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class FactorizationCache:
    """LRU cache of thin QR factorizations of kept-column blocks ``R*``.

    Holds the routing matrix once (as CSC for cheap column slicing) and
    hands out :class:`~repro.core.linalg.QRFactorization` objects keyed
    by the kept-column index set.  Consecutive inferences with the same
    kept set — rolling-window monitoring, consecutive-snapshot
    experiments, every batch — pay for one factorization total.

    With ``downdate_limit > 0``, a requested kept set that is a subset
    of a cached one missing at most that many columns — the
    rolling-monitor pattern where a variance refresh exonerates a link
    or two — is served by *downdating* the cached factorization with
    Givens rotations
    (:meth:`~repro.core.linalg.QRFactorization.remove_column`) instead
    of refactorizing from scratch: O(m k) per removed column versus
    O(m k^2) for a fresh QR.  ``update_limit > 0`` is the mirror-image
    grow direction — a kept set that is a *superset* of a cached one is
    served by CGS2 column adds
    (:meth:`~repro.core.linalg.QRFactorization.add_column`) — covering
    the congestion-churn pattern where links re-enter the kept set.
    Updated/downdated factors equal a fresh QR only to working
    precision, so both limits default to 0 (off) and long-lived
    consumers (:class:`repro.monitor.OnlineLossMonitor`) opt in; batch
    experiment pipelines stay bit-identical to a cold engine.

    *max_bytes*, when set, bounds the bytes resident across cached
    ``Q``/``R`` factors: least-recently-used entries are evicted past
    either the entry or the byte budget (at least one entry always
    stays, so the working set never thrashes to nothing).
    """

    def __init__(
        self,
        matrix,
        max_entries: int = 8,
        downdate_limit: int = 0,
        update_limit: int = 0,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if downdate_limit < 0:
            raise ValueError("downdate_limit must be non-negative")
        if update_limit < 0:
            raise ValueError("update_limit must be non-negative")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        if sparse.issparse(matrix):
            self._matrix = matrix.tocsc().astype(np.float64)
        else:
            dense = np.asarray(matrix, dtype=np.float64)
            if dense.ndim != 2:
                raise ValueError("matrix must be two-dimensional")
            self._matrix = sparse.csc_matrix(dense)
        self.max_entries = max_entries
        self.downdate_limit = downdate_limit
        self.update_limit = update_limit
        self.max_bytes = max_bytes
        self._cache: "OrderedDict[bytes, QRFactorization]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.updates = 0
        self.downdates = 0
        self.evictions = 0
        self._resident_bytes = 0

    @property
    def num_rows(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def num_columns(self) -> int:
        return int(self._matrix.shape[1])

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def resident_bytes(self) -> int:
        """Bytes held by cached ``Q``/``R`` factors."""
        return self._resident_bytes

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            updates=self.updates,
            downdates=self.downdates,
            evictions=self.evictions,
            entries=len(self._cache),
            resident_bytes=self._resident_bytes,
        )

    def block(self, kept: np.ndarray) -> np.ndarray:
        """The dense kept-column block ``R*`` (never the full matrix)."""
        kept = np.asarray(kept, dtype=np.int64)
        return np.asarray(self._matrix[:, kept].todense(), dtype=np.float64)

    def column(self, index: int) -> np.ndarray:
        """One dense matrix column (for incremental factorization adds)."""
        out = np.zeros(self.num_rows, dtype=np.float64)
        start, end = self._matrix.indptr[index], self._matrix.indptr[index + 1]
        out[self._matrix.indices[start:end]] = self._matrix.data[start:end]
        return out

    @staticmethod
    def _entry_bytes(factorization: QRFactorization) -> int:
        return int(factorization.q.nbytes + factorization.r.nbytes)

    def _store(self, key: bytes, factorization: QRFactorization) -> None:
        self._cache[key] = factorization
        self._resident_bytes += self._entry_bytes(factorization)
        while len(self._cache) > 1 and (
            len(self._cache) > self.max_entries
            or (
                self.max_bytes is not None
                and self._resident_bytes > self.max_bytes
            )
        ):
            _, evicted = self._cache.popitem(last=False)
            self._resident_bytes -= self._entry_bytes(evicted)
            self.evictions += 1

    def factorization(self, kept: np.ndarray) -> QRFactorization:
        """The (cached) thin QR of ``R*`` for this kept-column set."""
        kept = np.asarray(kept, dtype=np.int64)
        key = kept.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached
        factorization = self._downdate_from_superset(kept)
        if factorization is not None:
            self.downdates += 1
        else:
            factorization = self._update_from_subset(kept)
            if factorization is not None:
                self.updates += 1
            else:
                self.misses += 1
                factorization = QRFactorization.factorize(
                    self.block(kept), columns=kept
                )
        self._store(key, factorization)
        return factorization

    def _downdate_from_superset(
        self, kept: np.ndarray
    ) -> Optional[QRFactorization]:
        """Givens-downdate a cached superset factorization, if one is close.

        Scans most-recently-used first for a full-rank cached
        factorization whose column set contains *kept* with at most
        ``downdate_limit`` extras; the best (fewest-extras) candidate is
        shrunk column by column.  Returns ``None`` when no candidate
        exists or the downdated factorization lost full rank (the caller
        then refactorizes from scratch).
        """
        if self.downdate_limit == 0 or not len(self._cache):
            return None
        wanted = set(int(c) for c in kept)
        best: Optional[QRFactorization] = None
        for candidate in reversed(self._cache.values()):
            extra = len(candidate.columns) - len(wanted)
            if not 0 < extra <= self.downdate_limit:
                continue
            if best is not None and extra >= len(best.columns) - len(wanted):
                continue
            if wanted.issubset(candidate.columns) and candidate.is_full_rank():
                best = candidate
                if extra == 1:
                    break
        if best is None:
            return None
        factorization = best
        for position in reversed(
            [i for i, c in enumerate(best.columns) if c not in wanted]
        ):
            factorization = factorization.remove_column(position)
        if not factorization.is_full_rank():
            return None  # numerically degraded; fall back to a fresh QR
        return factorization

    def _update_from_subset(
        self, kept: np.ndarray
    ) -> Optional[QRFactorization]:
        """Column-add a cached subset factorization, if one is close.

        The mirror image of :meth:`_downdate_from_superset`: scans
        most-recently-used first for a full-rank cached factorization
        whose column set is contained in *kept* missing at most
        ``update_limit`` columns; the best (fewest-missing) candidate is
        grown one CGS2 column offer at a time.  Returns ``None`` when no
        candidate exists, a missing column turns out (numerically)
        dependent, or the grown column order cannot match *kept* — the
        caller then refactorizes from scratch.
        """
        if self.update_limit == 0 or not len(self._cache):
            return None
        wanted = tuple(int(c) for c in kept)
        wanted_set = set(wanted)
        best: Optional[QRFactorization] = None
        for candidate in reversed(self._cache.values()):
            missing = len(wanted) - len(candidate.columns)
            if not 0 < missing <= self.update_limit:
                continue
            if best is not None and missing >= len(wanted) - len(best.columns):
                continue
            if wanted_set.issuperset(candidate.columns) and candidate.full_rank:
                best = candidate
                if missing == 1:
                    break
        if best is None:
            return None
        factorization = best
        for column in sorted(wanted_set.difference(best.columns)):
            position = int(
                np.searchsorted(
                    np.asarray(factorization.columns, dtype=np.int64), column
                )
            )
            try:
                factorization = factorization.add_column(
                    self.column(column), column, position
                )
            except scipy_linalg.LinAlgError:
                return None  # dependent column; fall back to a fresh QR
        if factorization.columns != wanted:
            # The engine's kept arrays are sorted, so sorted-position
            # inserts reproduce them; a hand-built unsorted request
            # cannot be matched by updating.
            return None
        if not factorization.is_full_rank():
            return None  # numerically degraded; fall back to a fresh QR
        return factorization


@dataclass
class _ReductionEntry:
    """One memoized reduction plus the state incremental reuse needs.

    ``candidates`` is the threshold strategy's descending-variance scan
    order (``None`` for other strategies or when incremental reuse is
    off), ``all_accepted`` whether the basis sweep kept every candidate,
    and ``basis`` the orthonormal basis the sweep built (kept only when
    all candidates were accepted — the precondition for serving a grown
    candidate set with a handful of CGS2 offers).
    """

    result: ReductionResult
    candidates: Optional[np.ndarray] = None
    all_accepted: bool = False
    basis: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        total = (
            self.result.kept_columns.nbytes + self.result.removed_columns.nbytes
        )
        if self.candidates is not None:
            total += self.candidates.nbytes
        if self.basis is not None:
            total += self.basis.nbytes
        return int(total)


class ReductionCache:
    """LRU memo of phase-2 column reductions for one routing matrix.

    Keyed by (strategy, variance vector, cutoff): a rolling monitor — or
    any consumer re-inferring against one variance estimate — re-reduces
    only when the estimate or a reduction knob actually changes.  Shared
    by :class:`InferenceEngine` and the delay layer
    (:class:`repro.delay.inference.DelayInferenceAlgorithm`), which used
    to reimplement the same memoized kept-column selection by hand.

    With ``reuse_limit > 0`` the ``"threshold"`` strategy also reuses
    *across* variance vectors: a refresh whose above-cutoff candidate
    set matches a cached one reuses its sweep outright; a candidate set
    that shrank by at most ``reuse_limit`` columns from a cached
    all-accepted sweep keeps the remaining candidates without any sweep
    (a subset of an independent set is independent); one that *grew* by
    at most ``reuse_limit`` columns offers only the new columns against
    the cached orthonormal basis — O(n_p k) per new link instead of the
    O(n_p k^2) full basis sweep.  Near the 1e-9 independence tolerance
    the offer order can differ from a cold sweep's, so reuse defaults to
    0 (off) and only long-lived monitors opt in; batch pipelines stay
    bit-identical.
    """

    def __init__(
        self,
        matrix,
        max_entries: int = 8,
        reuse_limit: int = 0,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if reuse_limit < 0:
            raise ValueError("reuse_limit must be non-negative")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        self._matrix = matrix
        self.max_entries = max_entries
        self.reuse_limit = reuse_limit
        self.max_bytes = max_bytes
        self._cache: "OrderedDict[Tuple[str, bytes, Optional[float]], _ReductionEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.updates = 0
        self.evictions = 0
        self._resident_bytes = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            updates=self.updates,
            downdates=0,
            evictions=self.evictions,
            entries=len(self._cache),
            resident_bytes=self._resident_bytes,
        )

    def _store(self, key, entry: _ReductionEntry) -> None:
        self._cache[key] = entry
        self._resident_bytes += entry.nbytes
        while len(self._cache) > 1 and (
            len(self._cache) > self.max_entries
            or (
                self.max_bytes is not None
                and self._resident_bytes > self.max_bytes
            )
        ):
            _, evicted = self._cache.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self.evictions += 1

    def reduce(
        self,
        variances: np.ndarray,
        strategy: str,
        variance_cutoff: Optional[float] = None,
    ) -> ReductionResult:
        """The (memoized) reduction for one variance vector."""
        variances = np.asarray(variances, dtype=np.float64)
        key = (strategy, variances.tobytes(), variance_cutoff)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached.result
        entry = None
        if (
            self.reuse_limit
            and strategy == "threshold"
            and variance_cutoff is not None
            and variance_cutoff > 0
        ):
            candidates = self._threshold_candidates(variances, variance_cutoff)
            entry = self._reuse(candidates)
            if entry is not None:
                self.updates += 1
            else:
                self.misses += 1
                entry = self._threshold_sweep(candidates)
        if entry is None:
            self.misses += 1
            entry = _ReductionEntry(
                result=reduce_to_full_rank(
                    self._matrix,
                    variances,
                    strategy=strategy,
                    variance_cutoff=variance_cutoff,
                )
            )
        self._store(key, entry)
        return entry.result

    # -- threshold-strategy incremental reuse --------------------------------

    def _threshold_candidates(
        self, variances: np.ndarray, variance_cutoff: float
    ) -> np.ndarray:
        """The threshold strategy's exact candidate scan order.

        Must reproduce ``reduce_to_full_rank``: descending variance,
        ties broken by ascending column index, filtered to variances
        strictly above the cutoff.
        """
        ascending = np.lexsort((np.arange(len(variances)), variances))
        descending = ascending[::-1]
        return np.asarray(
            descending[variances[descending] > variance_cutoff],
            dtype=np.int64,
        )

    def _result_for(self, kept) -> ReductionResult:
        num_cols = int(self._matrix.shape[1])
        kept_arr = np.array(sorted(int(c) for c in kept), dtype=np.int64)
        removed = np.setdiff1d(np.arange(num_cols, dtype=np.int64), kept_arr)
        return ReductionResult(
            kept_columns=kept_arr, removed_columns=removed, strategy="threshold"
        )

    def _threshold_sweep(self, candidates: np.ndarray) -> _ReductionEntry:
        """The cold basis sweep, keeping the basis for later grow reuse.

        Decision-identical to ``reduce_to_full_rank``'s threshold path
        (same :class:`IncrementalColumnBasis` offers in the same order).
        """
        num_rows = int(self._matrix.shape[0])
        basis = IncrementalColumnBasis(dimension=num_rows)
        kept: List[int] = []
        for col in candidates:
            if basis.try_add(self._column(int(col))):
                kept.append(int(col))
        all_accepted = len(kept) == len(candidates)
        return _ReductionEntry(
            result=self._result_for(kept),
            candidates=candidates,
            all_accepted=all_accepted,
            basis=np.array(basis.basis_matrix) if all_accepted else None,
        )

    def _reuse(self, candidates: np.ndarray) -> Optional[_ReductionEntry]:
        """Serve a new candidate set from a cached sweep, if one is close."""
        cand_key = candidates.tobytes()
        cand_set = set(int(c) for c in candidates)
        for entry in reversed(self._cache.values()):
            if entry.candidates is None:
                continue
            if entry.candidates.tobytes() == cand_key:
                # Identical scan — identical sweep, basis and all.
                return entry
            if not entry.all_accepted:
                continue
            entry_set = set(int(c) for c in entry.candidates)
            shrunk = len(entry_set) - len(cand_set)
            if 0 < shrunk <= self.reuse_limit and cand_set <= entry_set:
                # A subset of an independent set is independent: every
                # candidate survives the sweep without running it.  (The
                # subset's basis is not cheaply derivable, so grow reuse
                # from this entry is unavailable.)
                return _ReductionEntry(
                    result=self._result_for(cand_set),
                    candidates=candidates,
                    all_accepted=True,
                    basis=None,
                )
            grown = len(cand_set) - len(entry_set)
            if (
                0 < grown <= self.reuse_limit
                and entry.basis is not None
                and entry_set <= cand_set
            ):
                grown_entry = self._grow(entry, sorted(cand_set - entry_set))
                if grown_entry is not None:
                    grown_entry.candidates = candidates
                    return grown_entry
        return None

    def _grow(
        self, entry: _ReductionEntry, extras: List[int]
    ) -> Optional[_ReductionEntry]:
        """Offer *extras* against a cached basis; None on any rejection.

        If every extra column enlarges the span then the grown candidate
        set is linearly independent, and a cold sweep — in any scan
        order — would keep all of it.  A rejection means the cold sweep
        could keep a different subset, so fall back to running it.
        """
        basis_cols = entry.basis
        rank = basis_cols.shape[1]
        storage = np.empty(
            (basis_cols.shape[0], rank + len(extras)), dtype=np.float64
        )
        storage[:, :rank] = basis_cols
        for column in extras:
            col = self._column(column)
            norm0 = float(np.linalg.norm(col))
            if norm0 == 0.0:
                return None
            v = cgs2_project(storage, rank, col) if rank else col
            norm1 = float(np.linalg.norm(v))
            if norm1 <= 1e-9 * norm0:
                return None
            storage[:, rank] = v / norm1
            rank += 1
        kept = set(int(c) for c in entry.candidates) | set(extras)
        return _ReductionEntry(
            result=self._result_for(kept),
            all_accepted=True,
            basis=storage,
        )

    def _column(self, index: int) -> np.ndarray:
        """One dense routing-matrix column (for the incremental offers)."""
        matrix = self._csc
        out = np.zeros(int(matrix.shape[0]), dtype=np.float64)
        start, end = matrix.indptr[index], matrix.indptr[index + 1]
        out[matrix.indices[start:end]] = matrix.data[start:end]
        return out

    @property
    def _csc(self):
        csc = getattr(self, "_csc_matrix", None)
        if csc is None:
            if sparse.issparse(self._matrix):
                csc = self._matrix.tocsc().astype(np.float64)
            else:
                csc = sparse.csc_matrix(
                    np.asarray(self._matrix, dtype=np.float64)
                )
            self._csc_matrix = csc
        return csc


class InferenceEngine:
    """LIA phases 1+2 with every reusable intermediate cached.

    Parameters mirror :class:`repro.core.lia.LossInferenceAlgorithm`
    (which delegates here); see its docstring for the statistical
    meaning of each knob.  *max_cached_factorizations* bounds the
    kept-column-set LRU; the reduction memo is bounded to the same size.

    *downdate_limit* / *update_limit* / *reduction_reuse_limit* enable
    the incremental cache paths (Givens downdates, CGS2 column adds,
    sweep-free reduction reuse) for kept-set changes of at most that
    many columns; all default to 0 (off) so batch pipelines stay
    bit-identical, and :class:`repro.monitor.OnlineLossMonitor` opts in.
    *max_cache_bytes* byte-bounds each cache's resident arrays.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        variance_method: str = "wls",
        reduction_strategy: str = "threshold",
        drop_negative: bool = True,
        floor: Optional[float] = None,
        congestion_threshold: float = 0.002,
        cutoff_scale: float = 16.0,
        max_cached_factorizations: int = 8,
        downdate_limit: int = 0,
        update_limit: int = 0,
        reduction_reuse_limit: int = 0,
        max_cache_bytes: Optional[int] = None,
    ) -> None:
        if variance_method not in VARIANCE_METHODS:
            raise ValueError(f"unknown variance method {variance_method!r}")
        if reduction_strategy not in REDUCTION_STRATEGIES:
            raise ValueError(f"unknown reduction strategy {reduction_strategy!r}")
        if not 0 < congestion_threshold < 1:
            raise ValueError("congestion_threshold must be in (0, 1)")
        if cutoff_scale <= 0:
            raise ValueError("cutoff_scale must be positive")
        self.routing = routing
        self.variance_method = variance_method
        self.reduction_strategy = reduction_strategy
        self.drop_negative = drop_negative
        self.floor = floor
        self.congestion_threshold = congestion_threshold
        self.cutoff_scale = cutoff_scale
        self._pairs: Optional[IntersectingPairs] = None
        self._routing_sparse = routing.to_sparse()
        self._factorizations = FactorizationCache(
            self._routing_sparse,
            max_entries=max_cached_factorizations,
            downdate_limit=downdate_limit,
            update_limit=update_limit,
            max_bytes=max_cache_bytes,
        )
        self._reductions = ReductionCache(
            self._routing_sparse,
            max_entries=max_cached_factorizations,
            reuse_limit=reduction_reuse_limit,
            max_bytes=max_cache_bytes,
        )

    # -- cached structures ----------------------------------------------------

    @property
    def pairs(self) -> IntersectingPairs:
        """The (cached) non-zero rows of the augmented matrix A."""
        if self._pairs is None:
            self._pairs = intersecting_pairs(self.routing.matrix)
        return self._pairs

    @pairs.setter
    def pairs(self, value: IntersectingPairs) -> None:
        """Adopt a pre-built structure (a monitoring service hands it down)."""
        if value.num_links != self.routing.num_links:
            raise ValueError("pairs do not match the routing matrix")
        self._pairs = value

    @property
    def factorization_cache(self) -> FactorizationCache:
        return self._factorizations

    @property
    def reduction_cache(self) -> ReductionCache:
        return self._reductions

    def cache_info(self) -> Dict[str, CacheInfo]:
        """Counters of both engine caches, keyed by cache name."""
        return {
            "factorization": self._factorizations.cache_info(),
            "reduction": self._reductions.cache_info(),
        }

    # -- phase 1 ----------------------------------------------------------------

    def learn_variances(self, training: MeasurementCampaign) -> VarianceEstimate:
        """Estimate link variances from the m training snapshots."""
        for snapshot in training.snapshots:
            self._check_paths(snapshot)
        if training.routing is not self.routing and not np.array_equal(
            training.routing.matrix, self.routing.matrix
        ):
            raise ValueError("campaign routing matrix differs from LIA's")
        return estimate_link_variances(
            training,
            method=self.variance_method,
            drop_negative=self.drop_negative,
            floor=self.floor,
            pairs=self.pairs,
        )

    def _check_paths(self, snapshot: Snapshot) -> None:
        if snapshot.num_paths != self.routing.num_paths:
            raise ValueError(
                f"snapshot has {snapshot.num_paths} paths, but the routing "
                f"matrix has {self.routing.num_paths}"
            )

    # -- phase 2 ----------------------------------------------------------------

    def variance_cutoff(self, num_probes: int) -> Optional[float]:
        """The threshold strategy's physics cutoff for this probe count."""
        if self.reduction_strategy != "threshold":
            return None
        return self.cutoff_scale * self.congestion_threshold / num_probes

    def reduce(
        self, estimate: VarianceEstimate, num_probes: int
    ) -> ReductionResult:
        """Memoized phase-2 reduction for one variance estimate.

        Delegates to the shared :class:`ReductionCache`, so a rolling
        monitor re-reduces only when it re-learns variances (or the
        snapshot probe count or a reduction knob changes), not on every
        snapshot.
        """
        self._check_estimate(estimate)
        return self._reductions.reduce(
            estimate.variances,
            self.reduction_strategy,
            self.variance_cutoff(num_probes),
        )

    def _check_estimate(self, estimate: VarianceEstimate) -> None:
        if estimate.num_links != self.routing.num_links:
            raise ValueError("variance vector does not match routing matrix")

    def _solve_reduced(
        self, reduction: ReductionResult, y: np.ndarray
    ) -> np.ndarray:
        """Solve ``Y = R* X*`` via the cached factorization; re-embed and clip.

        *y* is one log-rate vector ``(n_p,)`` or a stack ``(s, n_p)``;
        the stacked form is a single multi-RHS triangular solve.
        """
        kept = reduction.kept_columns
        num_cols = self.routing.num_links
        shape = (num_cols,) if y.ndim == 1 else (y.shape[0], num_cols)
        x_full = np.zeros(shape, dtype=np.float64)
        if len(kept) == 0:
            return x_full
        factorization = self._factorizations.factorization(kept)
        rhs = y if y.ndim == 1 else y.T
        if factorization.full_rank:
            x_star = factorization.solve(rhs)
        else:
            # Every built-in strategy keeps an independent set, but a
            # hand-built ReductionResult may not; match the seed's
            # minimum-norm lstsq behaviour there.
            x_star, *_ = np.linalg.lstsq(
                self._factorizations.block(kept), rhs, rcond=None
            )
        x_star = np.minimum(x_star, 0.0)
        if y.ndim == 1:
            x_full[kept] = x_star
        else:
            x_full[:, kept] = x_star.T
        return x_full

    # -- inference ---------------------------------------------------------------

    def infer(
        self, snapshot: Snapshot, estimate: VarianceEstimate
    ) -> LIAResult:
        """Infer link loss rates on one snapshot using learned variances."""
        self._check_paths(snapshot)
        reduction = self.reduce(estimate, snapshot.num_probes)
        y = snapshot.path_log_rates(self.floor)
        x = self._solve_reduced(reduction, y)
        return LIAResult(
            transmission_rates=np.exp(x),
            variance_estimate=estimate,
            reduction=reduction,
        )

    def infer_batch(
        self, snapshots: Sequence[Snapshot], estimate: VarianceEstimate
    ) -> List[LIAResult]:
        """Infer many snapshots against one variance estimate.

        Snapshots sharing a kept-column set (all of them, in the common
        fixed-probe-count case) are solved as one multi-RHS system with
        one factorization.  Results match per-snapshot :meth:`infer` to
        machine precision (the multi-RHS triangular solve may reorder
        sums); order follows the input.
        """
        snapshots = list(snapshots)
        results: List[Optional[LIAResult]] = [None] * len(snapshots)
        groups: "OrderedDict[bytes, Tuple[ReductionResult, List[int]]]" = (
            OrderedDict()
        )
        for index, snapshot in enumerate(snapshots):
            self._check_paths(snapshot)
            reduction = self.reduce(estimate, snapshot.num_probes)
            entry = groups.setdefault(reduction.key(), (reduction, []))
            entry[1].append(index)
        for reduction, indices in groups.values():
            Y = np.vstack(
                [snapshots[i].path_log_rates(self.floor) for i in indices]
            )
            X = self._solve_reduced(reduction, Y)
            rates = np.exp(X)
            for row, index in enumerate(indices):
                results[index] = LIAResult(
                    transmission_rates=rates[row],
                    variance_estimate=estimate,
                    reduction=reduction,
                )
        return results  # type: ignore[return-value]

    # -- end-to-end ---------------------------------------------------------------

    def run(
        self,
        campaign: MeasurementCampaign,
        num_training: Optional[int] = None,
    ) -> LIAResult:
        """Learn on the first ``m`` snapshots, infer on the last one."""
        training, target = campaign.split_training_target(num_training)
        estimate = self.learn_variances(training)
        return self.infer(target, estimate)

    @staticmethod
    def infer_many(
        runs: Sequence[Tuple["InferenceEngine", Snapshot, VarianceEstimate]],
        mode: str = "auto",
    ) -> List[LIAResult]:
        """Batched inference across many independent trees; see the
        module-level :func:`infer_many`."""
        return infer_many(runs, mode=mode)


#: Valid *mode* values for :func:`infer_many`.
INFER_MANY_MODES = ("auto", "loop", "packed", "sparse")

#: How many distinct forests keep a cached :class:`_ForestPlan` alive.
FOREST_PLAN_LIMIT = 4

#: Guards the plan LRU and its byte counter: the ``thread`` execution
#: backend runs trials concurrently in one process, so plan lookups,
#: insertions and evictions from different trials interleave.
_FOREST_PLAN_LOCK = threading.Lock()
_forest_plans: "OrderedDict[Tuple, _ForestPlan]" = OrderedDict()
_forest_plan_max_bytes: Optional[int] = None
_forest_plan_bytes = 0


def set_forest_plan_budget(max_bytes: Optional[int]) -> None:
    """Byte-bound the forest-plan LRU (None removes the bound).

    Complements :data:`FOREST_PLAN_LIMIT` the way the engine caches'
    ``max_bytes`` complements their entry counts: whichever bound is hit
    first evicts least-recently-used plans (the current plan always
    survives).  Takes effect on the next :func:`infer_many` call.
    """
    global _forest_plan_max_bytes
    if max_bytes is not None and max_bytes < 1:
        raise ValueError("max_bytes must be positive (or None)")
    with _FOREST_PLAN_LOCK:
        _forest_plan_max_bytes = max_bytes


def invalidate_forest_plans() -> None:
    """Drop every cached forest plan (releases engine/estimate refs).

    Needed only if an engine's knobs (``floor`` is keyed, the others are
    not) or an estimate's variance array were mutated *in place* after a
    packed :func:`infer_many` call — identity-keyed plans cannot see
    in-place mutation.  Fresh objects get fresh plans automatically.
    """
    global _forest_plan_bytes
    with _FOREST_PLAN_LOCK:
        _forest_plans.clear()
        _forest_plan_bytes = 0


class _ForestPlan:
    """Per-tree solve state for one forest, reusable across windows.

    ``infer_many``'s packed mode re-infers the *same* trees (engines and
    variance estimates) for window after window of snapshots; everything
    except the measured rates — the memoized reduction, the (full-rank)
    thin-QR factors, the scatter indices into the flat output buffer,
    the continuity-floor vector — is snapshot-independent.  Resolving it
    per call costs more Python time than the solves themselves, so the
    plan resolves it once and the warm path is reduced to one fused
    clip+log, one ``Q^T y`` + ``trtrs`` pair per tree, and one fused
    clip+exp.

    The plan holds strong references to its engines and estimates: that
    both keeps the factorizations it resolved coherent with the engine
    caches and pins the object ids the plan-cache key is built from.
    """

    __slots__ = (
        "engines",
        "estimates",
        "reductions",
        "offsets",
        "path_counts",
        "path_offsets",
        "floors_expanded",
        "solves",
        "total_links",
        "nbytes",
    )

    def __init__(
        self,
        runs: Sequence[Tuple["InferenceEngine", Snapshot, VarianceEstimate]],
    ) -> None:
        self.engines = [eng for eng, _, _ in runs]
        self.estimates = [est for _, _, est in runs]
        n = len(runs)
        self.reductions: List[ReductionResult] = []
        offsets = np.zeros(n + 1, dtype=np.int64)
        path_counts = np.empty(n, dtype=np.int64)
        floors = np.empty(n, dtype=np.float64)
        for i, (eng, snap, est) in enumerate(runs):
            self.reductions.append(eng.reduce(est, snap.num_probes))
            offsets[i + 1] = offsets[i] + eng.routing.num_links
            path_counts[i] = snap.path_transmission.shape[0]
            floor = (
                eng.floor
                if eng.floor is not None
                else 0.5 / float(snap.num_probes)
            )
            if not 0 < floor <= 1:
                raise ValueError(f"floor must be in (0, 1], got {floor}")
            floors[i] = floor
        self.offsets = offsets
        self.path_counts = path_counts
        path_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(path_counts, out=path_offsets[1:])
        self.path_offsets = path_offsets
        self.floors_expanded = np.repeat(floors, path_counts)
        self.total_links = int(offsets[-1])
        # One entry per tree with a non-empty kept set:
        # (p0, p1, scatter, r, q_t, block) — r/q_t for the full-rank
        # triangular path, block for the lstsq fallback.
        self.solves: List[Tuple] = []
        for i, (eng, snap, est) in enumerate(runs):
            kept = self.reductions[i].kept_columns
            if len(kept) == 0:
                continue
            p0, p1 = int(path_offsets[i]), int(path_offsets[i + 1])
            scatter = offsets[i] + np.asarray(kept, dtype=np.int64)
            factorization = eng._factorizations.factorization(kept)
            if factorization.full_rank:
                self.solves.append(
                    (p0, p1, scatter, factorization.r, factorization.q.T, None)
                )
            else:
                self.solves.append(
                    (p0, p1, scatter, None, None, eng._factorizations.block(kept))
                )
        # Arrays this plan keeps alive (the r/q_t views are shared with
        # the engine caches; counting them here keeps the plan budget
        # conservative), for the byte-bounded plan LRU.
        total = (
            self.offsets.nbytes
            + self.path_counts.nbytes
            + self.path_offsets.nbytes
            + self.floors_expanded.nbytes
        )
        for _, _, scatter, r, q_t, block in self.solves:
            total += scatter.nbytes
            if r is not None:
                total += r.nbytes + q_t.nbytes
            else:
                total += block.nbytes
        self.nbytes = int(total)

    def log_rates(
        self,
        runs: Sequence[Tuple["InferenceEngine", Snapshot, VarianceEstimate]],
    ) -> np.ndarray:
        """One fused clip+log over every tree's measured path rates.

        Elementwise ufuncs are batching-invariant, so each slice is
        bit-identical to the tree's own ``snapshot.path_log_rates``.
        """
        rates = np.concatenate(
            [snap.path_transmission for _, snap, _ in runs]
        )
        return np.log(np.clip(rates, self.floors_expanded, 1.0))

    def solve(self, log_concat: np.ndarray) -> np.ndarray:
        """Embedded, clipped solutions for all trees in one flat buffer."""
        flat = np.zeros(self.total_links, dtype=np.float64)
        for p0, p1, scatter, r, q_t, block in self.solves:
            y = log_concat[p0:p1]
            if r is not None:
                flat[scatter] = solve_upper_triangular(r, q_t @ y)
            else:
                x_star, *_ = np.linalg.lstsq(block, y, rcond=None)
                flat[scatter] = x_star
        np.minimum(flat, 0.0, out=flat)
        return flat

    def results(self, rates: np.ndarray) -> List[LIAResult]:
        offsets = self.offsets
        return [
            LIAResult(
                transmission_rates=rates[offsets[i] : offsets[i + 1]],
                variance_estimate=self.estimates[i],
                reduction=self.reductions[i],
            )
            for i in range(len(self.estimates))
        ]


def _forest_plan(
    runs: Sequence[Tuple["InferenceEngine", Snapshot, VarianceEstimate]],
) -> "_ForestPlan":
    """The (cached) plan for this forest.

    Keyed by per-tree (engine id, estimate id, probe count, floor knob);
    the cached plan's strong references keep those ids from being
    reused, which is what makes identity keying sound.  Engines with
    factorization downdating or updating enabled get a fresh plan every
    call — their factorization cache is history-dependent, and a stored
    plan could disagree with what a plain loop would see.
    """
    global _forest_plan_bytes
    if any(
        eng._factorizations.downdate_limit or eng._factorizations.update_limit
        for eng, _, _ in runs
    ):
        return _ForestPlan(runs)
    key = tuple(
        (id(eng), id(est), snap.num_probes, eng.floor)
        for eng, snap, est in runs
    )
    with _FOREST_PLAN_LOCK:
        plan = _forest_plans.get(key)
        if plan is not None:
            if np.array_equal(
                plan.path_counts,
                np.fromiter(
                    (snap.path_transmission.shape[0] for _, snap, _ in runs),
                    dtype=np.int64,
                    count=len(runs),
                ),
            ):
                _forest_plans.move_to_end(key)
                return plan
            del _forest_plans[key]
            _forest_plan_bytes -= plan.nbytes
    # Resolve the plan outside the lock — it walks every tree's
    # reduction and factorization, and other threads' forests should
    # not wait on that.  A racing thread building the same key would
    # have to share these engine objects, which are not thread-safe to
    # begin with; last insert simply wins.
    plan = _ForestPlan(runs)
    with _FOREST_PLAN_LOCK:
        displaced = _forest_plans.get(key)
        if displaced is not None:
            _forest_plan_bytes -= displaced.nbytes
        _forest_plans[key] = plan
        _forest_plan_bytes += plan.nbytes
        while len(_forest_plans) > 1 and (
            len(_forest_plans) > FOREST_PLAN_LIMIT
            or (
                _forest_plan_max_bytes is not None
                and _forest_plan_bytes > _forest_plan_max_bytes
            )
        ):
            _, evicted = _forest_plans.popitem(last=False)
            _forest_plan_bytes -= evicted.nbytes
    return plan


def infer_many(
    runs: Sequence[Tuple[InferenceEngine, Snapshot, VarianceEstimate]],
    mode: str = "auto",
) -> List[LIAResult]:
    """Infer many *independent trees* — (engine, snapshot, estimate)
    triples — as one batched operation instead of a Python loop.

    A campaign grid point often evaluates hundreds of small trees, each
    with its own :class:`InferenceEngine`; looping ``engine.infer`` pays
    Python dispatch, ufunc launch, and small-allocation overhead per
    tree that dwarfs the tree's actual FLOPs.  Modes:

    ``"loop"``
        the reference: literally ``engine.infer`` per tree.
    ``"packed"`` (what ``"auto"`` selects)
        one pass issuing the identical per-tree BLAS/LAPACK calls
        (``Q^T y`` then the LAPACK ``trtrs`` the factorization's own
        ``solve`` uses) with everything batchable hoisted out of the
        loop: the embedded solutions land in one flat buffer so the
        negative-clip and the final ``exp`` run as *one* ufunc call over
        all trees.  Elementwise ufuncs are batching-invariant, so the
        results match ``"loop"`` **to the byte** (pinned by
        ``tests/test_engine.py``).
    ``"sparse"``
        assembles every tree's kept-column block into one block-diagonal
        sparse system and solves it in a single
        :func:`~repro.core.sparse_solvers.solve_normal_sparse` call —
        the scale path for thousands of tiny trees, where even the
        packed loop's per-tree factorization bookkeeping dominates.
        Agrees with ``"loop"`` to solver precision (~1e-9 relative), not
        bitwise, so experiments default to ``"packed"``.

    All modes share each engine's reduction/factorization caches, so
    repeated windows against the same trees stay warm.
    """
    if mode not in INFER_MANY_MODES:
        raise ValueError(
            f"unknown infer_many mode {mode!r}; "
            f"choose one of {', '.join(INFER_MANY_MODES)}"
        )
    runs = list(runs)
    if mode == "loop":
        return [eng.infer(snap, est) for eng, snap, est in runs]
    if not runs:
        return []
    if mode == "auto":
        mode = "packed"

    plan = _forest_plan(runs)
    log_concat = plan.log_rates(runs)

    if mode == "packed":
        flat = plan.solve(log_concat)
    else:  # mode == "sparse"
        flat = np.zeros(plan.total_links, dtype=np.float64)
        blocks = []
        stacked_rhs = []
        spans: List[Tuple[int, np.ndarray, int]] = []  # (run idx, kept, k)
        for index, (eng, snap, est) in enumerate(runs):
            kept = plan.reductions[index].kept_columns
            if len(kept) == 0:
                continue
            blocks.append(eng._factorizations.block(kept))
            stacked_rhs.append(
                log_concat[
                    plan.path_offsets[index] : plan.path_offsets[index + 1]
                ]
            )
            spans.append((index, np.asarray(kept, dtype=np.int64), len(kept)))
        if blocks:
            system = sparse.block_diag(blocks, format="csr")
            solution = solve_normal_sparse(system, np.concatenate(stacked_rhs))
            start = 0
            for index, kept, width in spans:
                flat[plan.offsets[index] + kept] = (
                    solution[start : start + width]
                )
                start += width
        np.minimum(flat, 0.0, out=flat)

    # One exp over every tree at once: elementwise, so each entry is
    # bit-identical to the per-tree np.exp the loop mode applies (the
    # never-kept entries stay exp(0) = 1).
    return plan.results(np.exp(flat))
