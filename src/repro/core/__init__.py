"""Sinan's core: the paper's primary contribution.

* :mod:`repro.core.qos` — QoS targets and violation labelling,
* :mod:`repro.core.features` — the CNN input encoding (resource-history
  tensor, latency history, candidate allocation) and dataset building,
* :mod:`repro.core.actions` — the pruned action space of Table 1,
* :mod:`repro.core.data_collection` — the multi-armed-bandit exploration
  of the allocation space (Section 4.2) plus the autoscale/random
  collection baselines of Figure 10,
* :mod:`repro.core.predictor` — the hybrid CNN + Boosted-Trees model,
* :mod:`repro.core.scheduler` — the online scheduler (Section 4.3),
* :mod:`repro.core.sinan` — the complete manager tying it together,
* :mod:`repro.core.retrain` — incremental/transfer retraining (S. 5.4),
* :mod:`repro.core.interpret` — LIME-style explainability (S. 5.6).
"""

from repro.core.qos import QoSTarget
from repro.core.features import WindowEncoder, build_dataset
from repro.core.actions import ActionSpace, Action, ActionKind
from repro.core.predictor import HybridPredictor, PredictorConfig
from repro.core.scheduler import OnlineScheduler, SchedulerConfig
from repro.core.manager import Manager, StaticManager
from repro.core.sinan import SinanManager
from repro.core.data_collection import (
    BanditExplorer,
    BanditPolicyFactory,
    AutoscaleCollectPolicy,
    RandomCollectPolicy,
    DataCollector,
    CollectionConfig,
)
from repro.core.retrain import fine_tune_predictor, RetrainReport
from repro.core.interpret import LimeExplainer, TierAttribution

__all__ = [
    "QoSTarget",
    "WindowEncoder",
    "build_dataset",
    "ActionSpace",
    "Action",
    "ActionKind",
    "HybridPredictor",
    "PredictorConfig",
    "OnlineScheduler",
    "SchedulerConfig",
    "Manager",
    "StaticManager",
    "SinanManager",
    "BanditExplorer",
    "BanditPolicyFactory",
    "AutoscaleCollectPolicy",
    "RandomCollectPolicy",
    "DataCollector",
    "CollectionConfig",
    "fine_tune_predictor",
    "RetrainReport",
    "LimeExplainer",
    "TierAttribution",
]
