"""Simulated crowd workers.

The paper collects answers from human workers on a PyBossa deployment.  This
reproduction replaces them with seeded probabilistic worker models so that
experiments are runnable offline and quality-control / join benchmarks can
sweep worker reliability, which is impossible with real crowds.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "WorkerBehavior": "behavior",
    "ReliableWorker": "behavior",
    "NoisyWorker": "behavior",
    "SpammerWorker": "behavior",
    "AdversarialWorker": "behavior",
    "ConfusionMatrixWorker": "behavior",
    "LatencyModel": "latency",
    "ConstantLatency": "latency",
    "UniformLatency": "latency",
    "LogNormalLatency": "latency",
    "PerTypeLatency": "latency",
    "SimulatedWorker": "pool",
    "WorkerPool": "pool",
    "SkillProfile": "skills",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
