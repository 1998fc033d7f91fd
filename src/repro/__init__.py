"""repro — a full reproduction of Reprowd (crowdsourced data processing made reproducible).

The public API mirrors Figure 1 of the paper:

* :class:`repro.CrowdContext` — the entry point encapsulating every component.
* :class:`repro.CrowdData` — the tabular experiment abstraction.
* ``repro.presenters`` — task user interfaces (image label, pair comparison...).
* ``repro.quality`` — answer aggregation (majority vote, weighted vote, EM).
* ``repro.operators`` — crowdsourced operators (CrowdER join, transitive join,
  sort, max, top-k, count, filter, dedup) built on CrowdData.
* ``repro.platform`` / ``repro.workers`` — the simulated crowdsourcing platform
  and worker pool that stand in for PyBossa and human workers.
* ``repro.storage`` — the durable cache that makes experiments sharable.

Quickstart (Bob's experiment from Figure 2)::

    from repro import CrowdContext
    from repro.presenters import ImageLabelPresenter

    cc = CrowdContext.with_sqlite("reprowd.db")
    images = ["http://img/1.jpg", "http://img/2.jpg", "http://img/3.jpg"]
    data = (cc.CrowdData(images, table_name="image_label")
              .set_presenter(ImageLabelPresenter(question="Is there a face?"))
              .publish_task(n_assignments=3)
              .get_result()
              .mv())
    print(data.column("mv"))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "CrowdContext": "core.context",
    "CrowdData": "core.crowddata",
    "ExperimentSession": "core.session",
    "ExperimentExporter": "core.export",
    "BudgetTracker": "core.budget",
    "BudgetExceededError": "core.budget",
    "AdaptivePolicy": "quality.adaptive",
    "ReprowdConfig": "config",
    "StorageConfig": "config",
    "PlatformConfig": "config",
    "WorkerPoolConfig": "config",
    "ReprowdError": "exceptions",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
