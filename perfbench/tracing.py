"""Layer spans recorded from outside the program.

:func:`install` patches the public entry points of each simulator layer
(kernel, network, PVM, DSM, GA, Bayes sampler, machine assembly and
partitioner) so that every call into a layer opens a span.  The program
itself is not edited: the patches wrap functions and generators and
record, per span, its layer, start, end, parent span and scenario run.
:meth:`Patches.remove` restores the originals.

Spans are kept in flat in-memory arrays and written out once, when the
benchmark run ends (:meth:`SpanLog.save`).  A layer's self time is the
duration of its spans minus the time covered by their child spans
(:meth:`SpanLog.self_seconds`).

A wrapped call made while the innermost open span already belongs to
the same layer opens no new span: it would only move self time between
two spans of one layer.  It is still counted in :attr:`SpanLog.calls`.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: module prefix -> layer name, most specific first
LAYER_OF_PREFIX = (
    ("repro.sim", "sim"),
    ("repro.network", "network"),
    ("repro.pvm", "pvm"),
    ("repro.core", "core"),
    ("repro.ga", "ga"),
    ("repro.bayes", "bayes"),
    ("repro.cluster", "cluster"),
    ("repro.partition", "partition"),
)

#: the span that encloses one scenario run: program code outside every
#: wrapped entry point lands here as unattributed time
ROOT = "scenario"


def layer_of_module(module: str) -> str:
    """The layer a module belongs to (``other`` outside the listed layers)."""
    for prefix, layer in LAYER_OF_PREFIX:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanLog:
    """In-memory span arrays plus per-entry-point call counts."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.calls: dict[str, int] = {}
        self.run_id = -1
        self._stack: list[int] = [-1]
        self._stack_name: list[int] = [-1]

    def name_id(self, name: str) -> int:
        """Small integer id of a layer name (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span of layer ``nid`` under the innermost open span."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._stack_name.append(nid)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx`` (the innermost open span)."""
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._stack_name.pop()

    def inner_layer(self) -> int:
        """Layer id of the innermost open span (-1 outside every span)."""
        return self._stack_name[-1]

    def count(self, entry: str) -> None:
        """Count one call of a wrapped entry point."""
        self.calls[entry] = self.calls.get(entry, 0) + 1

    # -- analysis ---------------------------------------------------------
    def self_seconds(self, runs: set[int] | None = None) -> dict[str, float]:
        """Self time per layer, optionally over the given scenario runs."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        names = np.frombuffer(self.name, dtype=np.int32)
        if runs is not None:
            keep = np.isin(np.frombuffer(self.run, dtype=np.int32), list(runs))
            own, names = own[keep], names[keep]
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent, run) to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _traced_generator(log: SpanLog, nid: int, gen):
    """Re-yield ``gen``'s requests, timing each resumption as one span."""
    value = None
    thrown: BaseException | None = None
    while True:
        same = log.inner_layer() == nid
        idx = -1 if same else log.open(nid)
        try:
            request = gen.send(value) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            if not same:
                log.close(idx)
            return stop.value
        except BaseException:
            if not same:
                log.close(idx)
            raise
        if not same:
            log.close(idx)
        try:
            value = yield request
            thrown = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            thrown = exc


#: keyword arguments of a wrapped call that has none
_NO_KWARGS: dict = {}


def _call(log: SpanLog, nid: int, fn, args, kwargs):
    if log.inner_layer() == nid:
        return fn(*args, **kwargs)
    idx = log.open(nid)
    try:
        return fn(*args, **kwargs)
    finally:
        log.close(idx)


class Patches:
    """The installed wrappers; :meth:`remove` restores every original."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: list[tuple[object, str, object]] = []
        self._layer_cache: dict[object, int] = {}
        #: machines built during the traced runs, newest last
        self.machines: list = []
        #: GA fitness-cache (hits, misses) deltas summed over generations
        self.ga_cache = [0, 0]

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def layer_id_of(self, fn) -> int:
        """Layer id of a callable or generator, from its defining module."""
        frame = getattr(fn, "gi_frame", None)
        key = fn.gi_code if frame is not None else getattr(fn, "__func__", fn)
        nid = self._layer_cache.get(key)
        if nid is None:
            if frame is not None:
                module = frame.f_globals.get("__name__", "")
            else:
                module = getattr(key, "__module__", "") or ""
            nid = self.log.name_id(layer_of_module(module))
            self._layer_cache[key] = nid
        return nid

    def wrap_function(self, owner, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``."""
        log, orig = self.log, owner.__dict__[attr]
        nid, entry = log.name_id(layer), f"{owner.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            log.count(entry)
            return _call(log, nid, orig, args, kwargs)

        self._set(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, layer: str) -> None:
        """Time every resumption of the generators ``owner.attr`` returns."""
        log, orig = self.log, owner.__dict__[attr]
        nid, entry = log.name_id(layer), f"{owner.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            log.count(entry)
            return _traced_generator(log, nid, orig(*args, **kwargs))

        self._set(owner, attr, wrapper)


def install(log: SpanLog) -> Patches:
    """Patch every layer's public entry points to record spans into ``log``."""
    import repro.bayes.parallel as bayes_parallel
    import repro.ga.island as island
    from repro.bayes.network import BayesianNetwork
    from repro.bayes.rollback import ProcessorState
    from repro.cluster.machine import Machine
    from repro.core.dsm import DsmNode
    from repro.network.base import Adapter, Network
    from repro.pvm.vm import Task
    from repro.sim.kernel import Kernel

    p = Patches(log)

    # -- sim: the event loop, and every callback or process it runs -------
    p.wrap_function(Kernel, "run", "sim")
    orig_schedule, orig_schedule_at = Kernel.schedule, Kernel.schedule_at
    orig_spawn = Kernel.spawn

    def schedule(self, delay, fn, *args, **kw):
        return orig_schedule(
            self, delay, _call, log, p.layer_id_of(fn), fn, args, _NO_KWARGS, **kw
        )

    def schedule_at(self, at, fn, *args, **kw):
        return orig_schedule_at(
            self, at, _call, log, p.layer_id_of(fn), fn, args, _NO_KWARGS, **kw
        )

    def spawn(self, gen, name=None):
        return orig_spawn(self, _traced_generator(log, p.layer_id_of(gen), gen), name)

    p._set(Kernel, "schedule", schedule)
    p._set(Kernel, "schedule_at", schedule_at)
    p._set(Kernel, "spawn", spawn)

    # -- network: frame submission and the per-node delivery callback ----
    p.wrap_function(Adapter, "send", "network")
    orig_attach = Network.attach

    def attach(self, node_id, deliver):
        nid = p.layer_id_of(deliver)
        return orig_attach(
            self, node_id, lambda frame: _call(log, nid, deliver, (frame,), _NO_KWARGS)
        )

    p._set(Network, "attach", attach)

    # -- pvm: message passing ---------------------------------------------
    for attr in ("send", "mcast", "recv", "barrier"):
        p.wrap_generator(Task, attr, "pvm")
    p.wrap_function(Task, "nrecv", "pvm")

    # -- core: the DSM node's shared-memory operations --------------------
    for attr in ("write", "flush", "drain", "read_local", "global_read"):
        p.wrap_generator(DsmNode, attr, "core")

    # -- ga: one generation, with the fitness cache's hit/miss deltas -----
    orig_evolve = island.evolve_one_generation
    ga_id = log.name_id("ga")

    def evolve_one_generation(pop, params, scaling, evaluate, rng):
        log.count("evolve_one_generation")
        hits, misses = evaluate.hits, evaluate.misses
        out = _call(
            log, ga_id, orig_evolve, (pop, params, scaling, evaluate, rng), _NO_KWARGS
        )
        p.ga_cache[0] += evaluate.hits - hits
        p.ga_cache[1] += evaluate.misses - misses
        return out

    p._set(island, "evolve_one_generation", evolve_one_generation)

    # -- bayes: per-iteration sampling, rollback folding, node sampling ---
    for attr in ("sample_iteration", "apply_actual", "fold_correction"):
        p.wrap_function(ProcessorState, attr, "bayes")
    p.wrap_function(BayesianNetwork, "sample_node_scalar", "bayes")

    # -- cluster / partition: run set-up ----------------------------------
    orig_init = Machine.__init__
    cluster_id = log.name_id("cluster")

    def machine_init(self, cfg):
        log.count("Machine")
        _call(log, cluster_id, orig_init, (self, cfg), _NO_KWARGS)
        p.machines.append(self)

    p._set(Machine, "__init__", machine_init)
    p.wrap_function(bayes_parallel, "best_of", "partition")
    return p
