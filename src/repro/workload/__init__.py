"""Production-shaped workload generation and scenario harness.

Turns the uniform for-loop synthetic tasks the benchmarks were built on
into traffic that looks like production: bursty/diurnal arrivals, a
heterogeneous task marketplace over an unreliable crowd, Zipf-skewed
object keys — driven end-to-end through any configured storage × transport
stack by :class:`ScenarioRunner`, with byte-identical replay from a seed.
See ``docs/workloads.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Arrival": "arrivals",
    "ArrivalProcess": "arrivals",
    "PoissonProcess": "arrivals",
    "BurstyProcess": "arrivals",
    "DiurnalProcess": "arrivals",
    "build_arrival_process": "arrivals",
    "ZipfKeyGenerator": "keys",
    "TaskType": "marketplace",
    "DEFAULT_TASK_TYPES": "marketplace",
    "SpammerWave": "marketplace",
    "MarketplacePresenter": "marketplace",
    "MarketplaceWorkerPool": "marketplace",
    "assign_task_type": "marketplace",
    "build_marketplace_pool": "marketplace",
    "make_objects": "marketplace",
    "marketplace_ground_truth": "marketplace",
    "percentile": "metrics",
    "latency_summary": "metrics",
    "sla_attainment": "metrics",
    "accuracy": "metrics",
    "ScenarioSpec": "scenario",
    "ScenarioRunner": "scenario",
    "ScenarioResult": "scenario",
    "canonical_json": "scenario",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
