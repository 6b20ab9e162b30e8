"""From-scratch numpy ML substrate.

The paper implements its models in MXNet (CNN) and XGBoost (Boosted
Trees); neither is available here, so this package provides equivalent
implementations built on numpy only:

* :mod:`repro.ml.layers` / :mod:`repro.ml.network` — dense, convolution,
  LSTM building blocks with manual backprop, plus a ``Sequential``
  composition and training loop,
* :mod:`repro.ml.losses` — squared loss and the paper's latency-scaling
  function (Eq. 2) that biases learning toward the QoS-relevant range,
* :mod:`repro.ml.cnn` — the short-term latency predictor (paper Fig. 5),
* :mod:`repro.ml.mlp`, :mod:`repro.ml.lstm` — the Table 2 comparison
  models,
* :mod:`repro.ml.multitask` — the rejected joint model of Figure 4,
* :mod:`repro.ml.boosted_trees` — the long-term violation predictor,
  a gradient-boosted-trees classifier with Newton leaf weights,
* :mod:`repro.ml.dataset`, :mod:`repro.ml.metrics` — containers and
  evaluation metrics.
"""

from repro.ml.dataset import SinanDataset, TrainValSplit
from repro.ml.losses import LatencyScaler, MSELoss, ScaledMSELoss
from repro.ml.metrics import (
    rmse,
    accuracy,
    false_positive_rate,
    false_negative_rate,
)
from repro.ml.cnn import LatencyCNN, CNNConfig
from repro.ml.mlp import LatencyMLP
from repro.ml.lstm import LatencyLSTM
from repro.ml.multitask import MultiTaskNN
from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig

__all__ = [
    "SinanDataset",
    "TrainValSplit",
    "LatencyScaler",
    "MSELoss",
    "ScaledMSELoss",
    "rmse",
    "accuracy",
    "false_positive_rate",
    "false_negative_rate",
    "LatencyCNN",
    "CNNConfig",
    "LatencyMLP",
    "LatencyLSTM",
    "MultiTaskNN",
    "BoostedTrees",
    "BoostedTreesConfig",
]
