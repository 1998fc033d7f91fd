"""Configuration objects shared across the repro library.

The paper's CrowdContext takes a platform endpoint, an API key and a local
cache database path.  In this reproduction the platform is an in-process
simulator, so the configuration instead captures the knobs that matter for
reproducibility: storage location, default task redundancy, random seed and
platform behaviour.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

DEFAULT_DB_FILENAME = "reprowd.db"
DEFAULT_REDUNDANCY = 3
DEFAULT_SEED = 7


@dataclass(frozen=True)
class StorageConfig:
    """Configuration of the persistence layer.

    Attributes:
        engine: One of ``"sqlite"``, ``"memory"``, ``"log"``, ``"sharded"``
            or ``"ring"``.
        path: Filesystem path of the database (ignored for ``"memory"``).
            For ``"sharded"`` and ``"ring"`` this is a *directory*; each
            child lives in its own file underneath it (``shard-00.db`` /
            ``ring-00.db``, ...).
        synchronous: When True the SQLite engine commits when the write, or
            the write group it belongs to, ends — the durability the paper
            relies on for crash-and-rerun.
        snapshot_every: For the log-structured engine, how many log records
            are written between snapshots.
        shards: For the sharded and ring engines, how many child engines
            keys are partitioned across.  For ``"ring"`` this is only the
            *initial* membership: reopening a directory that a rebalance has
            grown or shrunk rediscovers the actual members.
        shard_engine: For the sharded and ring engines, the child engine
            type — one of ``"sqlite"``, ``"memory"`` or ``"log"``.
        shard_workers: For the sharded and ring engines, the number of
            threads a ``put_many`` batch fans out over (one child
            transaction per member).  0 (the default) keeps writes serial.
        virtual_nodes: For the ring engine, how many points each member
            contributes to the hash ring; more points spread ownership (and
            rebalance moves) more evenly.  Ignored on reopen in favour of
            the value stored in the ring's membership manifest.
        rebalance_batch_size: For the ring engine, how many keys each
            migration wave copies and deletes per batch during
            ``rebalance``.
        replicas: For the ring engine, how many distinct ring members keep
            a copy of every key (write-all / read-any-fresh).  The default
            1 keeps single-copy placement; 2 survives any single member
            loss with transparent failover.  Must not exceed ``shards``,
            and is ignored on reopen in favour of the value stored in the
            ring's membership manifest.
        codec: Name of the record codec values are stored under — ``"json"``
            (the default: strict sorted-key JSON text) or ``"binary"`` (a
            compact length-prefixed binary format; same value domain, often
            smaller and faster to encode).  Durable engines record the codec
            in their metadata and rediscover it on reopen, so None (the
            default) means "whatever the database was written with, else
            json"; naming a codec that contradicts the stored one raises
            :class:`~repro.exceptions.CodecMismatchError`.
    """

    engine: str = "sqlite"
    path: str = DEFAULT_DB_FILENAME
    synchronous: bool = True
    snapshot_every: int = 1000
    shards: int = 4
    shard_engine: str = "sqlite"
    shard_workers: int = 0
    virtual_nodes: int = 64
    rebalance_batch_size: int = 256
    replicas: int = 1
    codec: str | None = None

    def with_path(self, path: str) -> "StorageConfig":
        """Return a copy of this config pointing at *path*."""
        return replace(self, path=path)


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of the simulated crowdsourcing platform.

    Attributes:
        name: Human-readable platform name (mirrors PyBossa's endpoint).
        api_key: Accepted API key; the simulated server rejects others.
        default_redundancy: Number of assignments per task when a CrowdData
            publish call does not override it.
        failure_rate: Probability that a transport call fails with
            :class:`repro.exceptions.PlatformUnavailableError` (fault
            injection; 0 disables it).
        duplicate_delivery_rate: Probability that a completed task run is
            delivered twice by the transport, exercising idempotent result
            ingestion.
        seed: Seed for the platform's internal randomness.
        store: Which task store backs the server's state — ``"memory"``
            (the default in-process dicts) or ``"durable"`` (projects,
            tasks, task runs, dedup keys and id counters live on a storage
            engine, so the platform survives a restart).
        store_engine: For a durable store, the :class:`StorageConfig` of the
            engine holding the platform's tables.  When None, a
            :class:`~repro.core.context.CrowdContext` shares its own cache
            engine — the whole experiment (client cache and platform state)
            then lives in one sharable artifact.
        transport: Which client drives the transport — ``"direct"`` (one
            blocking round-trip per call, the default), ``"pipelined"``
            (a :class:`~repro.platform.client.PipelinedClient` over an
            :class:`~repro.platform.transport.AsyncTransport` keeps up to
            ``max_in_flight`` calls on the wire; see ``docs/transport.md``)
            or ``"wire"`` (a :class:`~repro.platform.wire.WireClient`
            talking length-prefixed JSON over a real TCP socket to a
            server in another process; see ``docs/wire.md``).
        wire_host: For the wire transport, the server host to connect to
            (and the interface a spawned private server binds).
        wire_port: For the wire transport, the server port.  0 — the
            default — means "no server yet": the context spawns a private
            ``python -m repro.platform.wire`` process for this experiment
            and tears it down on close.  Non-zero connects to an already
            running external server at ``wire_host:wire_port``.
        wire_max_frame_bytes: Frame-size cap for the wire protocol; calls
            whose request or response exceeds it fail with a non-retryable
            error (use the paged verbs for large projects).
        retry_backoff_seconds: Base delay between retried transport
            attempts (exponential with jitter).  None — the default —
            picks per transport: 0 for the in-process transports (retries
            are instant, the seed behaviour) and a small base for the wire
            transport, where hammering a restarting server would exhaust
            the retry budget before it comes back.
        max_in_flight: For the pipelined transport, the maximum number of
            concurrent in-flight calls (the bounded window further
            ``call_async`` submissions block on).
        pipeline_batch_size: For the pipelined transport, how many task
            specs each in-flight ``create_tasks`` sub-batch carries.
    """

    name: str = "simulated-pybossa"
    api_key: str = "test-api-key"
    default_redundancy: int = DEFAULT_REDUNDANCY
    failure_rate: float = 0.0
    duplicate_delivery_rate: float = 0.0
    seed: int = DEFAULT_SEED
    store: str = "memory"
    store_engine: StorageConfig | None = None
    transport: str = "direct"
    wire_host: str = "127.0.0.1"
    wire_port: int = 0
    wire_max_frame_bytes: int = 16 * 1024 * 1024
    retry_backoff_seconds: float | None = None
    max_in_flight: int = 8
    pipeline_batch_size: int = 500


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Configuration of the simulated worker pool.

    Attributes:
        size: Number of simulated workers.
        mean_accuracy: Mean per-worker accuracy used when generating the
            pool (each worker's accuracy is drawn around this mean).
        accuracy_spread: Half-width of the uniform accuracy jitter.
        spammer_fraction: Fraction of the pool that answers uniformly at
            random regardless of the true label.
        adversarial_fraction: Fraction of the pool that answers the opposite
            of the true label.
        seed: Seed for worker generation and answer sampling.
    """

    size: int = 25
    mean_accuracy: float = 0.85
    accuracy_spread: float = 0.10
    spammer_fraction: float = 0.0
    adversarial_fraction: float = 0.0
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class ReprowdConfig:
    """Top-level configuration consumed by :class:`repro.core.CrowdContext`."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    workers: WorkerPoolConfig = field(default_factory=WorkerPoolConfig)
    seed: int = DEFAULT_SEED

    @classmethod
    def in_memory(cls, seed: int = DEFAULT_SEED) -> "ReprowdConfig":
        """Return a configuration that keeps everything in memory.

        Useful for tests and quick experiments that do not need the
        sharable database file.
        """
        return cls(
            storage=StorageConfig(engine="memory", path=":memory:"),
            platform=PlatformConfig(seed=seed),
            workers=WorkerPoolConfig(seed=seed),
            seed=seed,
        )

    @classmethod
    def sqlite(cls, path: str, seed: int = DEFAULT_SEED) -> "ReprowdConfig":
        """Return a configuration backed by a SQLite file at *path*."""
        return cls(
            storage=StorageConfig(engine="sqlite", path=path),
            platform=PlatformConfig(seed=seed),
            workers=WorkerPoolConfig(seed=seed),
            seed=seed,
        )

    @classmethod
    def durable(cls, path: str, seed: int = DEFAULT_SEED) -> "ReprowdConfig":
        """Return a SQLite configuration whose *platform* state is durable too.

        On top of :meth:`sqlite` (the client-side fault-recovery cache in
        the file at *path*), the simulated platform keeps its projects,
        tasks, task runs and id counters in the same file — so killing and
        reopening the whole experiment, server included, resumes with
        identical ids and no re-purchased crowd work.
        """
        return cls(
            storage=StorageConfig(engine="sqlite", path=path),
            platform=PlatformConfig(seed=seed, store="durable"),
            workers=WorkerPoolConfig(seed=seed),
            seed=seed,
        )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ReprowdConfig":
        """Build a configuration from a nested mapping (e.g. parsed JSON)."""
        storage = StorageConfig(**dict(mapping.get("storage", {})))
        platform_mapping = dict(mapping.get("platform", {}))
        if isinstance(platform_mapping.get("store_engine"), Mapping):
            platform_mapping["store_engine"] = StorageConfig(
                **dict(platform_mapping["store_engine"])
            )
        platform = PlatformConfig(**platform_mapping)
        workers = WorkerPoolConfig(**dict(mapping.get("workers", {})))
        seed = int(mapping.get("seed", DEFAULT_SEED))
        return cls(storage=storage, platform=platform, workers=workers, seed=seed)

    def resolve_db_path(self, base_dir: str | None = None) -> str:
        """Return the absolute path of the database file.

        Args:
            base_dir: Directory to resolve relative paths against; defaults
                to the current working directory.
        """
        if self.storage.engine == "memory":
            return ":memory:"
        path = self.storage.path
        if os.path.isabs(path):
            return path
        return os.path.abspath(os.path.join(base_dir or os.getcwd(), path))
