"""Timing probes owned by the E0 benchmark.

The program under test has no instrumentation seam yet (``repro/obs.py`` is
a later issue), so the traced run observes it from outside: every layer's
*public* object is wrapped in a :class:`Probe` that records one span per
call.  Layers are the repo's modules — ``operators``, ``quality``, ``core``,
``platform.client``, ``platform.transport``, ``platform.wire``,
``platform.server``, ``platform.store``, ``storage``, ``workers`` and
``workload``.

A span is ``[layer, name, start, seconds, parent, step, weight, failed]``.
``seconds`` is accumulated rather than ``end - start`` because a generator
returned by a probed method is resumed many times: each ``next()`` re-enters
the generator's span, so work done lazily is charged to the layer that does
it and not to whoever iterates.  One closed-loop client means at most one
span is running at any instant — also in ``wire_stream``, where the client
thread blocks on the socket while the server thread works — so a single
stack gives every span its causing parent, and a layer's self time is its
spans' seconds minus their direct children's seconds.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Iterable, Mapping

from repro.config import ReprowdConfig
from repro.core.context import CrowdContext
from repro.platform.transport import DirectTransport, Transport
from repro.storage.engine import open_engine
from repro.workers.pool import WorkerPool

LAYER, NAME, START, SECONDS, PARENT, STEP, WEIGHT, FAILED = range(8)
SPAN_FIELDS = ("layer", "name", "start", "seconds", "parent", "step", "weight", "failed")


class Tracer:
    """In-memory span recorder; written out once, when the run has ended."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Calls too frequent to afford a span each (``cache.object_key``).
        self.counts: Counter[str] = Counter()
        #: Scenario step (batch / crowd round / extension) new spans belong to.
        self.step = 0
        self._stack: list[tuple[int, float]] = []

    def begin(self, layer: str, name: str) -> int:
        """Open a span under the currently running one; return its index."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        now = perf_counter()
        self.spans.append([layer, name, now, 0.0, parent, self.step, 0, False])
        self._stack.append((index, now))
        return index

    def enter(self, index: int) -> None:
        """Resume span *index* (a generator being advanced)."""
        self._stack.append((index, perf_counter()))

    def leave(self) -> None:
        """Stop the running span, adding the elapsed interval to its seconds."""
        index, since = self._stack.pop()
        self.spans[index][SECONDS] += perf_counter() - since

    def dump(self, path: str, **header: Any) -> None:
        """Write every span (and the cheap counters) to *path* as JSON.

        Flushed to disk at once: megabytes left to the kernel's delayed
        write-back would slow the commits of whatever is measured next.
        """
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "fields": SPAN_FIELDS,
                    "counts": dict(self.counts),
                    "spans": self.spans,
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())


def self_seconds(spans: list[list[Any]]) -> list[float]:
    """Per span: its seconds minus the seconds of its direct children."""
    own = [span[SECONDS] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[SECONDS]
    return own


def layer_self_seconds(spans: list[list[Any]]) -> dict[str, float]:
    """Self time summed per layer."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_seconds(spans)):
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + own
    return totals


class Probe:
    """Transparent proxy timing the public methods of *target*.

    Only calls that arrive through the proxy are seen, so an object's calls
    to itself stay inside its own span — the span boundary is the layer
    boundary.  A method returning its own object (CrowdData's chaining
    verbs) returns the proxy, so a chain stays observed.
    """

    def __init__(
        self,
        target: Any,
        layer: str,
        tracer: Tracer,
        *,
        label: str = "",
        weigh: Mapping[str, Callable[[tuple, dict, Any], int]] | None = None,
        count_only: Iterable[str] = (),
        wrap_result: Callable[[Any], Any] | None = None,
    ):
        """Wrap *target*.

        Args:
            target: The object to observe.
            layer: Layer every span of this probe is charged to.
            tracer: Where spans go.
            label: Prefix for span names (``"cache."``) when several objects
                share one layer.
            weigh: Per method, ``(args, kwargs, result) -> int`` work units
                (rows, votes) stored as the span's weight.
            count_only: Methods called too often for a span; they only bump
                ``tracer.counts["<layer>.<label><method>"]``.
            wrap_result: Applied to plain results, to keep observing objects
                a method hands out (the pool's workers).
        """
        self.__dict__.update(
            _target=target,
            _layer=layer,
            _tracer=tracer,
            _label=label,
            _weigh=dict(weigh or {}),
            _count_only=frozenset(count_only),
            _wrap_result=wrap_result,
        )

    def __getattr__(self, name: str) -> Any:
        attribute = getattr(self._target, name)
        if name.startswith("_") or not callable(attribute):
            return attribute
        wrapper = self._wrap(name, attribute)
        self.__dict__[name] = wrapper  # later lookups skip __getattr__
        return wrapper

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def __bool__(self) -> bool:
        return True  # ``engine or open_engine(...)`` must not ask __len__

    def __len__(self) -> int:
        return len(self._target)

    def __iter__(self):
        return iter(self._target)

    def __repr__(self) -> str:
        return f"Probe[{self._layer}]({self._target!r})"

    def _wrap(self, name: str, method: Callable[..., Any]) -> Callable[..., Any]:
        tracer, layer, target = self._tracer, self._layer, self._target
        label = self._label + name
        if name in self._count_only:
            counts, key = tracer.counts, f"{layer}.{label}"

            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[key] += 1
                return method(*args, **kwargs)

            return counted
        weigh = self._weigh.get(name)
        wrap_result = self._wrap_result

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(layer, label)
            try:
                result = method(*args, **kwargs)
            except BaseException:
                tracer.spans[index][FAILED] = True
                raise
            finally:
                tracer.leave()
            if weigh is not None:
                tracer.spans[index][WEIGHT] = weigh(args, kwargs, result)
            if result is target:
                return self
            if type(result) is GeneratorType:
                return _resumed(tracer, index, result, count=weigh is None)
            if wrap_result is not None:
                return wrap_result(result)
            return result

        return traced


def _resumed(tracer: Tracer, index: int, generator: GeneratorType, count: bool):
    """Iterate *generator*, charging each advance to span *index*.

    With *count* the span's weight becomes the number of items yielded (the
    records an engine ``scan`` returned).
    """
    span = tracer.spans[index]
    try:
        while True:
            tracer.enter(index)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                tracer.leave()
            if count:
                span[WEIGHT] += 1
            yield item
    finally:
        generator.close()


class ProbeTransport(Transport):
    """Transport around the real one: one span per attempt, named by verb."""

    def __init__(self, inner: Transport, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def call(self, name: str, method: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        tracer = self.tracer
        index = tracer.begin("platform.transport", name)
        try:
            return self.inner.call(name, method, *args, **kwargs)
        except BaseException:
            tracer.spans[index][FAILED] = True
            raise
        finally:
            tracer.leave()

    def close(self) -> None:
        self.inner.close()


# -- work units per call ------------------------------------------------------
# Point reads weigh the keys looked up, scans the records returned, writes the
# items handed over: the "rows read per row kept" side of the cost model.


def _first_arg_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _second_arg_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1])


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


STORAGE_READS = {
    "get": _one,
    "get_record": _one,
    "contains": _one,
    "get_many": _second_arg_len,
    "scan_keys": _result_len,
    "keys": _result_len,
    "values": _result_len,
    "items": _result_len,
}
STORAGE_WRITES = {
    "put": _one,
    "put_new": _one,
    "delete": _one,
    "put_many": _second_arg_len,
    "delete_many": _second_arg_len,
}
#: With ``synchronous=True`` and no group commit each of these is one
#: durability barrier — the outside stand-in for a commit count.
STORAGE_BARRIERS = frozenset(STORAGE_WRITES) | {"commit_group"}

CACHE_READS = {
    "get_task": _one,
    "get_result": _one,
    "get_meta": _one,
    "get_tasks": _first_arg_len,
    "get_results": _first_arg_len,
    "iter_results": _first_arg_len,
}
CACHE_WRITES = {
    "put_task": _one,
    "put_result": _one,
    "put_meta": _one,
    "put_tasks": _first_arg_len,
    "update_tasks": _first_arg_len,
    "put_results": _first_arg_len,
}

STORE_WRITES = frozenset(
    {
        "allocate_project_id",
        "allocate_task_ids",
        "allocate_run_ids",
        "put_project",
        "remove_project",
        "add_tasks",
        "stage_tasks",
        "discard_staged",
        "update_task",
        "remove_task",
        "claim_dedup_keys",
        "ensure_indexed",
        "append_runs",
        "flush",
        "flush_appends",
    }
)

SERVER_READS = frozenset(
    {
        "get_task",
        "list_tasks",
        "get_task_runs",
        "project_task_runs",
        "get_task_runs_for_project",
        "list_project_task_ids",
        "get_task_runs_page",
        "list_project_task_ids_slice",
        "get_task_runs_slice",
        "iter_task_runs_for_project",
    }
)


def _votes(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(len(votes) for votes in args[0].values())


class Probes:
    """Builds the probes of one traced run, all feeding one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._workers: dict[str, Probe] = {}

    def probe(self, target: Any, layer: str, **options: Any) -> Any:
        """Wrap *target* unless it already is a probe."""
        if isinstance(target, Probe):
            return target
        return Probe(target, layer, self.tracer, **options)

    def function(self, function: Callable[..., Any], layer: str, wrap_result=None):
        """A module-level function (or class) timed as one span per call.

        *wrap_result* keeps observing what the call builds — the arrival
        process and key generator do their work in methods, not on creation.
        """
        tracer, name = self.tracer, function.__name__

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.begin(layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.leave()
            return result if wrap_result is None else wrap_result(result)

        return traced

    def engine(self, engine: Any) -> Any:
        return self.probe(engine, "storage", weigh={**STORAGE_READS, **STORAGE_WRITES})

    def store(self, store: Any) -> Any:
        return self.probe(store, "platform.store")

    def server(self, server: Any) -> Any:
        return self.probe(server, "platform.server")

    def pool(self, pool: Any) -> Any:
        """The pool, and every worker it hands out, in the ``workers`` layer."""
        return self.probe(pool, "workers", wrap_result=self._worker_results)

    def _worker_results(self, result: Any) -> Any:
        if isinstance(result, list):
            return [self._worker_results(item) for item in result]
        worker_id = getattr(result, "worker_id", None)
        if worker_id is None:
            return result
        probe = self._workers.get(worker_id)
        if probe is None or probe._target is not result:
            probe = self._workers[worker_id] = Probe(
                result, "workers", self.tracer, label="worker."
            )
        return probe

    def aggregator(self, aggregator: Any) -> Any:
        return self.probe(aggregator, "quality", weigh={"aggregate": _votes})

    def table(self, data: Any) -> Any:
        """A CrowdData with its cache and log, all in the ``core`` layer."""
        data.cache = self.probe(
            data.cache,
            "core",
            label="cache.",
            weigh={**CACHE_READS, **CACHE_WRITES},
            count_only=("object_key",),
        )
        data.log = self.probe(
            data.log,
            "core",
            label="log.",
            weigh={"record": _one, "record_many": _first_arg_len},
        )
        return self.probe(data, "core")

    def context_class(self) -> type[CrowdContext]:
        """A :class:`CrowdContext` subclass whose every layer is probed."""
        probes = self

        class ProbedContext(CrowdContext):
            """CrowdContext wiring a probe around each layer's public object."""

            def __init__(
                self,
                config: ReprowdConfig | None = None,
                engine: Any = None,
                client: Any = None,
                worker_pool: Any = None,
                transport: Transport | None = None,
                **kwargs: Any,
            ):
                config = config or ReprowdConfig.in_memory()
                wire = config.platform.transport == "wire"
                if client is None and not wire:
                    transport = ProbeTransport(
                        transport or DirectTransport(), probes.tracer
                    )
                super().__init__(
                    config=config,
                    engine=probes.engine(
                        engine or probes.function(open_engine, "storage")(config.storage)
                    ),
                    client=client,
                    worker_pool=probes.pool(
                        worker_pool or WorkerPool.from_config(config.workers)
                    ),
                    transport=transport,
                    **kwargs,
                )
                # CrowdContext builds server, store and client itself, so
                # their probes are slipped in afterwards rather than
                # re-implementing its wiring here.
                if client is None:
                    client = self.client
                    if wire:
                        client.transport = ProbeTransport(
                            probes.probe(client.transport, "platform.wire"),
                            probes.tracer,
                        )
                    else:
                        client.server.store = probes.store(client.server.store)
                        client.server = self.server = probes.server(client.server)
                self.client = probes.probe(client, "platform.client")

            def CrowdData(self, *args: Any, **kwargs: Any):  # noqa: N802
                return probes.table(super().CrowdData(*args, **kwargs))

        return ProbedContext
