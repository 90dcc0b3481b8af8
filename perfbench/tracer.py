"""Layer spans and counters, attached to ``repro`` from outside at run time.

The benchmark never edits the program: :func:`install` wraps the public
functions and methods at each layer boundary (DESIGN.md's layers, named
here by module) and restores them on :func:`uninstall`.  A wrapped call
opens a span; a span's *self* time is its duration minus the time its
child spans cover, so nested layers never count twice.  Counters are
recorded at the same boundaries, after the wrapped call returns: that
bookkeeping is timed separately (``bookkeeping_s``) and charged to
neither the span nor its parent.

Spans stay in memory as per-name totals plus ``(parent, child)`` call
edges; :meth:`Tracer.summary` turns them into a JSON-able dict.

Targets that a later refactor removes are skipped, so their metrics
read zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Per-name span totals, call edges and counters for one process."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.edges: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.top_s = 0.0
        self.bookkeeping_s = 0.0
        self._stack: list = []
        self._open: dict = defaultdict(int)
        self._absorb = 0
        self._patches: list = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].name if self._stack else "<root>"
        self.edges[(parent, name)] += 1
        frame = _Frame(name, _now())
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = _now() - frame.start
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        self._open[frame.name] -= 1
        self.calls[frame.name] += 1
        self.total_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        else:
            self.top_s += duration

    def _bookkeep(self, seconds: float) -> None:
        self.bookkeeping_s += seconds
        if self._stack:
            self._stack[-1].child_s += seconds
        else:
            self.top_s += seconds

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return self._open[name] > 0

    @contextmanager
    def span(self, name: str, absorb: bool = False):
        """Time a block as span ``name``.

        With ``absorb`` the block is one opaque span: wrapped calls
        inside it still count but open no spans, so their time is the
        span's self time (used for set-up, where a lazy structure is
        built by the first call of a layer that later serves rounds).
        """
        if self._absorb:
            yield
            return
        frame = self._enter(name)
        self._absorb += absorb
        try:
            yield
        finally:
            self._absorb -= absorb
            self._exit(frame)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] += value

    def wrap(self, fn, name, after=None, when=None):
        """``fn`` timed as span ``name``.

        :param after: ``after(result, args, kwargs)`` records counters
            once the call has returned; its time is bookkeeping.
        :param when: ``when(args, kwargs)`` false means the call is not
            this layer's (e.g. a dense resolver handing off to the
            sparse backend) and passes through untimed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            if tracer._absorb:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            if after is not None:
                started = _now()
                after(result, args, kwargs)
                tracer._bookkeep(_now() - started)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, after=None, when=None):
        """Wrap ``module.attr`` and every ``repro`` module's alias of it."""
        original = getattr(module, attr, None)
        if original is None or hasattr(original, "__wrapped_by_tracer__"):
            return
        traced = self.wrap(original, name, after=after, when=when)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr, name, after=None, when=None):
        """Wrap a method (or a property's getter) defined on ``cls``."""
        if cls is None or attr not in cls.__dict__:
            return
        original = cls.__dict__[attr]
        if isinstance(original, property):
            traced = property(
                self.wrap(original.fget, name, after=after, when=when),
                original.fset, original.fdel, original.__doc__,
            )
        else:
            traced = self.wrap(original, name, after=after, when=when)
        self._set(cls, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- report ----------------------------------------------------------
    def summary(self) -> dict:
        """Span totals, call edges and counters as plain JSON types."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [
                [parent, child, calls]
                for (parent, child), calls in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "top_s": self.top_s,
            "bookkeeping_s": self.bookkeeping_s,
        }


def import_program() -> None:
    """Import every ``repro`` module, so :func:`install` sees all aliases."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _is_dense(args, kwargs) -> bool:
    gain = kwargs.get("gain", args[0] if args else None)
    return isinstance(gain, np.ndarray)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the loaded program with ``tracer``."""
    import_program()
    network_mod = _module("repro.network.network")
    sparse_mod = _module("repro.sinr.sparse")
    reception = _module("repro.sinr.reception")
    Network = getattr(network_mod, "Network", None)
    Sparse = getattr(sparse_mod, "SparseGainBackend", None)

    def count_resolve_round(batch: int) -> None:
        if tracer.active("fastsim.kernel"):
            tracer.count("fastsim.rounds")
            tracer.count("fastsim.replication_rounds", batch)

    # network: deployment build and graph queries.
    tracer.patch_method(Sparse, "__init__", "network.build",
                        after=lambda r, a, k: tracer.count("network.builds"))
    for attr in ("distances", "gains"):
        tracer.patch_method(Network, attr, "network.build")
    for attr in ("graph", "is_connected", "diameter", "eccentricity"):
        tracer.patch_method(Network, attr, "network.graph")

    # sinr.sparse: the certified-truncation resolver and its far band.
    def sparse_resolve_counts(heard, args, kwargs):
        backend, tx_mask = args[0], np.asarray(args[1], dtype=bool)
        _, senders = np.nonzero(tx_mask)
        indptr = backend.indptr
        entries = int((indptr[senders + 1] - indptr[senders]).sum())
        item = backend.data.itemsize + backend.indices.itemsize
        tracer.count("sinr.sparse.resolve_calls")
        tracer.count("sinr.sparse.replications", tx_mask.shape[0])
        tracer.count("sinr.sparse.transmitters", senders.size)
        tracer.count("sinr.sparse.near_entries", entries)
        tracer.count("sinr.sparse.near_bytes_computed", entries * item)
        tracer.count("sinr.sparse.heard", int(np.count_nonzero(heard >= 0)))
        count_resolve_round(tx_mask.shape[0])

    tracer.patch_method(Sparse, "resolve_reception_batch",
                        "sinr.sparse.resolve", after=sparse_resolve_counts)
    tracer.patch_method(Sparse, "resolve_reception", "sinr.sparse.resolve")
    tracer.patch_method(Sparse, "far_band", "sinr.sparse.far_band")

    # sinr.reception: the dense resolvers (sparse hand-offs pass through).
    def dense_resolve_counts(heard, args, kwargs):
        tx_mask = np.asarray(kwargs.get("tx_mask", args[1]))
        tracer.count("sinr.reception.resolve_calls")
        count_resolve_round(tx_mask.shape[0] if tx_mask.ndim == 2 else 1)

    for attr in ("resolve_reception_batch", "resolve_reception"):
        tracer.patch_function(reception, attr, "sinr.reception.resolve",
                              after=dense_resolve_counts, when=_is_dense)
    for attr in ("sinr_values", "sinr_values_batch"):
        tracer.patch_function(reception, attr, "sinr.reception.resolve",
                              when=_is_dense)

    # fastsim: batched protocol kernels, sweep dispatch, grid, cache.
    for mod_name in list(sys.modules):
        if not mod_name.startswith("repro.fastsim."):
            continue
        mod = sys.modules[mod_name]
        for attr, value in list(vars(mod).items()):
            if (callable(value) and attr.endswith("_batch")
                    and getattr(value, "__module__", None) == mod_name
                    and (attr.startswith("fast_")
                         or attr == "dissemination_loop_batch")):
                tracer.patch_function(mod, attr, "fastsim.kernel")

    # run_sweep reaches most kernels through closures built at import,
    # which no attribute patch can reach: count it as kernel time too.
    sweep = _module("repro.fastsim.sweep")
    tracer.patch_function(
        sweep, "run_sweep", "fastsim.kernel",
        after=lambda r, a, k: tracer.count("fastsim.sweeps"),
    )

    def grid_counts(results, args, kwargs):
        tracer.count("grid.points", len(results))
        tracer.count("grid.replayed", sum(bool(r.cached) for r in results))

    grid = _module("repro.fastsim.grid")
    tracer.patch_function(grid, "run_grid", "grid.run", after=grid_counts)

    def get_counts(payload, args, kwargs):
        if payload is None:
            tracer.count("cache.misses")
            return
        tracer.count("cache.hits")
        tracer.count("cache.bytes_read", _pickled_size(payload))

    def put_counts(_none, args, kwargs):
        payload = kwargs.get("payload", args[2] if len(args) > 2 else None)
        tracer.count("cache.puts")
        tracer.count("cache.bytes_written", _pickled_size(payload))

    cache = _module("repro.fastsim.cache")
    ResultCache = getattr(cache, "ResultCache", None)
    tracer.patch_method(ResultCache, "get", "cache.get", after=get_counts)
    tracer.patch_method(ResultCache, "put", "cache.put", after=put_counts)
    journal = _module("repro.fastsim.journal")
    tracer.patch_method(getattr(journal, "SweepJournal", None), "append",
                        "journal.append",
                        after=lambda r, a, k: tracer.count("journal.appends"))

    # mac: every session's per-slot arbitration.
    def mask_counts(mask, args, kwargs):
        intents = np.asarray(kwargs.get("intents", args[2]), dtype=bool)
        tracer.count("mac.intents", int(np.count_nonzero(intents)))
        tracer.count(
            "mac.grants",
            int(np.count_nonzero(np.asarray(mask, dtype=bool) & intents)),
        )

    mac = _module("repro.mac")
    session_cls = getattr(mac, "MacSession", None)
    for cls in _subclasses(session_cls) if session_cls else []:
        tracer.patch_method(cls, "transmit_mask", "mac.transmit_mask",
                            after=mask_counts)

    # traffic: queued multihop forwarding.
    def traffic_counts(result, args, kwargs):
        tracer.count("traffic.runs")
        tracer.count("traffic.slots", result.rounds)
        for key in ("injected", "delivered", "dropped", "queued"):
            tracer.count(f"traffic.{key}",
                         sum(getattr(fs, key) for fs in result.flows))
        tracer.count("traffic.transmissions", result.transmissions)
        tracer.count("traffic.collisions", result.collisions)

    engine = _module("repro.traffic.engine")
    tracer.patch_function(engine, "run_traffic", "traffic.run",
                          after=traffic_counts)

    # experiments: one span per experiment run by id.
    registry = _module("repro.experiments.registry")
    lookup = getattr(registry, "get_experiment", None)
    if lookup is not None:
        def get_experiment(exp_id):
            run = lookup(exp_id)
            return tracer.wrap(run, f"experiments.{exp_id.upper()}")

        functools.update_wrapper(get_experiment, lookup)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is lookup:
                        tracer._set(mod, key, get_experiment)
    return tracer


def _pickled_size(payload) -> int:
    """Bytes of ``payload`` pickled as the cache stores it (computed)."""
    import pickle

    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
