"""CrowdContext: the main entry point for Reprowd functionality (Figure 1).

A context wires together the storage engine (fault-recovery cache), the
crowdsourcing platform client, the simulated worker pool and the shared
clock, and hands out :class:`repro.core.crowddata.CrowdData` tables.  In the
paper Bob constructs a CrowdContext pointing at his PyBossa server and a
local cache database; here the "server" is the in-process simulator, and the
cache database is the sharable artifact.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from repro.config import ReprowdConfig
from repro.core.budget import BudgetTracker
from repro.core.cache import FaultRecoveryCache
from repro.core.crowddata import CrowdData
from repro.core.manipulations import ManipulationLog
from repro.exceptions import ConfigurationError, CrowdDataError
from repro.platform.client import PipelinedClient, PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import open_task_store
from repro.platform.transport import FaultInjectingTransport, Transport
from repro.storage.engine import StorageEngine, open_engine
from repro.utils.timing import SimulatedClock
from repro.workers.pool import WorkerPool


class CrowdContext:
    """Entry point that encapsulates every Reprowd component."""

    def __init__(
        self,
        config: ReprowdConfig | None = None,
        engine: StorageEngine | None = None,
        client: PlatformClient | None = None,
        worker_pool: WorkerPool | None = None,
        transport: Transport | None = None,
        ground_truth: Callable[[Any], Any] | None = None,
        budget: BudgetTracker | None = None,
    ):
        """Create a context.

        Args:
            config: Full configuration; :meth:`ReprowdConfig.in_memory` when
                omitted.
            engine: Pre-built storage engine (overrides ``config.storage``).
            client: Pre-built platform client (overrides the simulated one).
            worker_pool: Pre-built worker pool (overrides ``config.workers``).
            transport: Transport between client and server, e.g. a
                :class:`FaultInjectingTransport`.  With
                ``PlatformConfig(transport="pipelined")`` it becomes the
                *inner* transport of the pipelined client's async layer.
            ground_truth: Default object -> true-answer callable given to
                every CrowdData created by this context.
            budget: Optional crowd-spend tracker shared by every CrowdData of
                this context.
        """
        self.config = config or ReprowdConfig.in_memory()
        self.clock = SimulatedClock()
        self.engine = engine or open_engine(self.config.storage)
        self.worker_pool = worker_pool or WorkerPool.from_config(self.config.workers)
        self.ground_truth = ground_truth
        self.budget = budget

        self._owns_server = client is None
        if client is not None:
            self.client = client
            self.server = client.server
        else:
            transport_kind = self.config.platform.transport
            if transport_kind == "wire":
                self.client = self._open_wire_client(transport)
                self.server = self.client.server
            elif transport_kind in ("direct", "pipelined"):
                if transport is None and (
                    self.config.platform.failure_rate > 0
                    or self.config.platform.duplicate_delivery_rate > 0
                ):
                    transport = FaultInjectingTransport(
                        failure_rate=self.config.platform.failure_rate,
                        duplicate_rate=self.config.platform.duplicate_delivery_rate,
                        seed=self.config.platform.seed,
                    )
                # With PlatformConfig(store="durable") and no explicit
                # store_engine, the platform's state shares this context's
                # engine: cache and platform land in one sharable artifact,
                # and reopening the same file reopens the same platform.
                self.server = PlatformServer(
                    worker_pool=self.worker_pool,
                    config=self.config.platform,
                    clock=self.clock,
                    store=open_task_store(
                        self.config.platform, shared_engine=self.engine
                    ),
                )
                retry_backoff = self.config.platform.retry_backoff_seconds or 0.0
                if transport_kind == "pipelined":
                    self.client = PipelinedClient(
                        self.server,
                        transport=transport,
                        max_in_flight=self.config.platform.max_in_flight,
                        batch_size=self.config.platform.pipeline_batch_size,
                        retry_backoff=retry_backoff,
                    )
                else:
                    self.client = PlatformClient(
                        self.server, transport=transport, retry_backoff=retry_backoff
                    )
            else:
                raise ConfigurationError(
                    f"unknown platform transport {transport_kind!r}; "
                    "expected 'direct', 'pipelined' or 'wire'"
                )

        self._tables: dict[str, CrowdData] = {}
        self.engine.create_table("__tables__")

    def _open_wire_client(self, transport: Transport | None):
        """Connect to (or spawn) a wire server per ``config.platform``.

        With ``wire_port`` set, connects to the external server already
        listening there.  With the default ``wire_port=0``, spawns a
        private ``python -m repro.platform.wire`` process whose lifetime is
        tied to this context: closing the context's client terminates it.
        The spawned server builds its own uniform worker pool from
        ``config.workers``'s size and mean accuracy (spammer/adversarial
        mixes need an external server) and — because it cannot share this
        process's engine — keeps durable platform state in the separate
        SQLite file named by ``store_engine``.
        """
        from repro.platform.wire import (
            DEFAULT_WIRE_RETRY_BACKOFF,
            WireClient,
            spawn_server,
        )

        platform = self.config.platform
        if transport is not None:
            raise ConfigurationError(
                "transport='wire' builds its own socket transport; injected "
                "transports (fault/latency/counting) only compose with the "
                "in-process transports"
            )
        retry_backoff = platform.retry_backoff_seconds
        if retry_backoff is None:
            retry_backoff = DEFAULT_WIRE_RETRY_BACKOFF
        client_kwargs: dict[str, Any] = {
            "api_key": platform.api_key,
            "retry_backoff": retry_backoff,
            "max_frame_bytes": platform.wire_max_frame_bytes,
        }
        if platform.wire_port:
            return WireClient(platform.wire_host, platform.wire_port, **client_kwargs)
        db = None
        if platform.store == "durable":
            engine_config = platform.store_engine
            if engine_config is None or engine_config.engine != "sqlite":
                raise ConfigurationError(
                    "a durable wire platform needs "
                    "PlatformConfig.store_engine=StorageConfig(engine='sqlite', "
                    "path=...): the server runs in its own process and cannot "
                    "share this context's engine"
                )
            db = engine_config.path
        handle = spawn_server(
            db=db,
            host=platform.wire_host,
            api_key=platform.api_key,
            seed=platform.seed,
            pool_size=self.config.workers.size,
            accuracy=self.config.workers.mean_accuracy,
        )
        return WireClient(
            handle.host, handle.port, owned_server=handle, **client_kwargs
        )

    # -- constructors (mirroring the original Reprowd API) --------------------------

    @classmethod
    def in_memory(cls, seed: int = 7, **kwargs: Any) -> "CrowdContext":
        """Context with no durable state (tests, throwaway experiments)."""
        return cls(config=ReprowdConfig.in_memory(seed=seed), **kwargs)

    @classmethod
    def with_sqlite(cls, path: str, seed: int = 7, **kwargs: Any) -> "CrowdContext":
        """Context whose cache lives in the SQLite file at *path*.

        This is Bob's configuration: the file at *path* is exactly what he
        shares with Ally.
        """
        return cls(config=ReprowdConfig.sqlite(path, seed=seed), **kwargs)

    # -- CrowdData management --------------------------------------------------------

    def CrowdData(  # noqa: N802 — mirrors the original Reprowd method name
        self,
        object_list: Sequence[Any],
        table_name: str,
        ground_truth: Callable[[Any], Any] | None = None,
    ) -> CrowdData:
        """Create (or re-open) the CrowdData table *table_name*.

        Args:
            object_list: Input objects, one per row (step 1 of Figure 2).
            table_name: Name of the table; also the platform project name.
            ground_truth: Optional per-table override of the context's
                ground-truth oracle.
        """
        if not table_name or not isinstance(table_name, str):
            raise CrowdDataError(f"table_name must be a non-empty string, got {table_name!r}")
        cache = FaultRecoveryCache(self.engine, table_name)
        log = ManipulationLog(self.engine, table_name)
        crowddata = CrowdData(
            table_name=table_name,
            objects=list(object_list),
            client=self.client,
            cache=cache,
            manipulation_log=log,
            clock=self.clock,
            ground_truth=ground_truth or self.ground_truth,
            budget=self.budget,
        )
        self._tables[table_name] = crowddata
        self.engine.put("__tables__", table_name, {"table": table_name})
        return crowddata

    def get_table(self, table_name: str) -> CrowdData:
        """Return a CrowdData created earlier in this context."""
        try:
            return self._tables[table_name]
        except KeyError:
            raise CrowdDataError(
                f"no CrowdData named {table_name!r} in this context; "
                f"known tables: {sorted(self._tables)}"
            ) from None

    def show_tables(self) -> list[str]:
        """Return the names of every table ever stored in this database.

        Includes tables created by previous runs against the same database
        file — this is how Ally discovers what Bob's experiment contains.
        """
        return sorted(self.engine.keys("__tables__"))

    def delete_table(self, table_name: str) -> None:
        """Remove a table's cached crowd data, lineage and manipulation log."""
        for suffix in ("tasks", "results", "meta", "manipulations"):
            self.engine.drop_table(f"{table_name}::{suffix}")
        self.engine.delete("__tables__", table_name)
        self._tables.pop(table_name, None)

    # -- simulation controls ------------------------------------------------------------

    def set_ground_truth(self, ground_truth: Callable[[Any], Any] | None) -> None:
        """Set the default object -> true-answer oracle for new tables."""
        self.ground_truth = ground_truth

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly summary of the whole context."""
        return {
            "storage": self.engine.describe(),
            "platform": self.client.statistics(),
            "tables": self.show_tables(),
        }

    # -- lifecycle -------------------------------------------------------------------------

    def flush(self) -> None:
        """Flush the storage engine and the server's task store."""
        if self._owns_server:
            self.server.flush()
        self.engine.flush()

    def close(self) -> None:
        """Flush and close the storage engine (and the server's own store)."""
        if self._owns_server:
            # Client first: closing the transport drains any in-flight
            # async calls (e.g. pages of an abandoned streaming
            # collection) so nothing still runs against the server when its
            # store goes away.  The server close only closes what the
            # store owns; a shared engine (the durable platform default)
            # is left for the line below.
            self.client.close()
            self.server.close()
        self.engine.close()

    def __enter__(self) -> "CrowdContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def db_path(self) -> str:
        """Path of the sharable database file (":memory:" when not durable)."""
        return getattr(self.engine, "path", ":memory:")

    def export_database(self, destination: str) -> str:
        """Copy the database file to *destination* for sharing.

        Returns the destination path.  Raises :class:`CrowdDataError` when
        the context is not backed by a file.
        """
        import shutil

        path = self.db_path
        if path == ":memory:" or not os.path.exists(path):
            raise CrowdDataError("this context is not backed by a database file")
        self.flush()
        shutil.copy2(path, destination)
        return destination
