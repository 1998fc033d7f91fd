"""Simulated crowdsourcing platform (PyBossa-shaped).

The original Reprowd talks to a PyBossa server over HTTP; workers answer
tasks in a browser.  Here the platform is an in-process simulator exposing
the same surface the CrowdData layer needs: projects, tasks with a
redundancy requirement, task runs (one per worker answer), and a client API
that publishes tasks and polls for results.  Worker answers come from a
:class:`repro.workers.WorkerPool`, and an optional fault-injecting transport
sits between client and server to exercise retry/idempotence paths.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AssignmentStrategy": "assignment",
    "RandomAssignment": "assignment",
    "RoundRobinAssignment": "assignment",
    "LeastLoadedAssignment": "assignment",
    "PlatformClient": "client",
    "PipelinedClient": "client",
    "Project": "models",
    "Task": "models",
    "TaskRun": "models",
    "PlatformServer": "server",
    "TaskStore": "store",
    "MemoryTaskStore": "store",
    "DurableTaskStore": "store",
    "open_task_store": "store",
    "Transport": "transport",
    "DirectTransport": "transport",
    "CountingTransport": "transport",
    "FaultInjectingTransport": "transport",
    "LatencyInjectingTransport": "transport",
    "AsyncTransport": "transport",
    "WireTransport": "wire",
    "WireClient": "wire",
    "WireServer": "wire",
    "WireServerHandle": "wire",
    "RemoteServer": "wire",
    "spawn_server": "wire",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
