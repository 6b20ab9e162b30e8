"""Incremental retraining and the continuous-learning pipeline
(paper Section 5.4, Figure 13).

When the deployment changes — a new server platform (local -> GCE), a
different scale-out factor, or an application modification such as
AES-encrypting post bodies — the existing model is *fine-tuned* on a
small amount of newly collected data instead of retrained from scratch.
The learning rate drops to 1/100 of the original so SGD stays near the
learnt solution, and accuracy converges within roughly a thousand new
samples (minutes of profiling) instead of many hours.

:func:`fine_tune_predictor` reproduces that offline experiment
(Figure 13).  The rest of the module closes the loop the paper only
sketches — retraining "when the deployment drifts" *while the manager
keeps serving decisions*:

* :class:`ModelRegistry` — versioned store of predictors (layered on
  the ``SAVE_FORMAT`` pickle envelope), recording each model's lineage
  and which version is live.
* :class:`RetrainWorker` — produces a fine-tuned *challenger* off the
  control path.  The default mode is deterministic: the work runs
  inline at submit time but the result is withheld for a configurable
  number of decision intervals, modeling background-retrain latency
  without wall-clock nondeterminism; an optional thread mode does the
  work on a real background thread.
* :class:`ShadowEvaluator` — scores the challenger on every decision
  side-by-side with the incumbent.  The incumbent's decision is the one
  that runs, bitwise unchanged; disagreements are logged as
  :class:`~repro.obs.audit.DivergenceRecord`.
* :class:`PromotionGate` — judges the shadow record and only then is
  the challenger promoted (``OnlineScheduler.adopt_predictor``).
* :class:`ContinuousSinanManager` — the drop-in manager wiring drift
  detection -> background retrain -> shadow -> gated promotion into the
  ordinary ``decide()`` loop.
"""

from __future__ import annotations

import copy
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.manager import Manager
from repro.core.predictor import HybridPredictor, atomic_open
from repro.ml.dataset import SinanDataset


@dataclass
class RetrainReport:
    """Fine-tuning accuracy as a function of new-sample count.

    Mirrors the axes of paper Figure 13: x = number of newly collected
    samples, y = train/validation RMSE; ``base_rmse`` is the original
    model evaluated directly on the new platform's validation data
    (the paper's zero-new-samples point).
    """

    scenario: str
    base_rmse: float
    sample_counts: list[int] = field(default_factory=list)
    train_rmse: list[float] = field(default_factory=list)
    val_rmse: list[float] = field(default_factory=list)

    def converged_rmse(self) -> float:
        """Validation RMSE at the largest sample budget."""
        if not self.val_rmse:
            return self.base_rmse
        return self.val_rmse[-1]


def fine_tune_predictor(
    predictor: HybridPredictor,
    new_data: SinanDataset,
    sample_counts: list[int],
    scenario: str = "variant",
    lr_scale: float = 0.01,
    epochs: int | None = None,
    val_frac: float = 0.2,
    seed: int = 0,
) -> tuple[HybridPredictor, RetrainReport]:
    """Fine-tune a trained predictor on increasing amounts of new data.

    For each budget in ``sample_counts`` a fresh copy of the original
    predictor is fine-tuned on that many new samples and evaluated on a
    held-out validation slice of the new data; the returned predictor is
    the one fine-tuned at the largest budget.

    Returns
    -------
    (fine-tuned predictor, RetrainReport)
    """
    if predictor.report is None:
        raise ValueError("predictor must be trained before fine-tuning")
    if not sample_counts:
        raise ValueError("need at least one sample budget")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(new_data))
    n_val = max(int(len(new_data) * val_frac), 1)
    val = new_data.subset(order[:n_val])
    pool = new_data.subset(order[n_val:])
    # RMSE is reported on the QoS-relevant region, mirroring training:
    # client-timeout plateau samples would otherwise dominate the metric.
    cap = predictor.config.label_cap_frac * predictor.qos.latency_ms
    val_eval = val.filter_latency_below(cap)
    if len(val_eval) == 0:
        raise ValueError("validation slice has no samples below the label cap")
    max_budget = max(sample_counts)
    if max_budget > len(pool):
        raise ValueError(
            f"largest budget {max_budget} exceeds available pool {len(pool)}"
        )

    report = RetrainReport(
        scenario=scenario,
        base_rmse=predictor.evaluate(val_eval)["rmse"],
    )
    best: HybridPredictor | None = None
    for budget in sorted(sample_counts):
        tuned = copy.deepcopy(predictor)
        train = pool.subset(np.arange(budget))
        from repro.ml.dataset import TrainValSplit

        tuned._train_on_split(
            TrainValSplit(train=train, val=val),
            lr=tuned.config.lr * lr_scale,
            epochs=epochs if epochs is not None else max(tuned.config.epochs // 2, 5),
        )
        metrics_train = tuned.evaluate(train.filter_latency_below(cap))
        metrics_val = tuned.evaluate(val_eval)
        report.sample_counts.append(budget)
        report.train_rmse.append(metrics_train["rmse"])
        report.val_rmse.append(metrics_val["rmse"])
        best = tuned
    assert best is not None
    return best, report


# ----------------------------------------------------------------------
# Model version registry
# ----------------------------------------------------------------------


@dataclass
class ModelVersion:
    """One registered predictor version and its lineage."""

    version: int
    source: str
    """How the model came to be ("initial", "fine-tune@<interval>", ...)."""
    parent: int | None = None
    """Version this one was fine-tuned from (``None`` for roots)."""
    metrics: dict = field(default_factory=dict)
    promoted: bool = False
    """Whether this version was ever made live."""
    file: str | None = None
    """Pickle filename under the registry root (disk mode only)."""


class ModelRegistry:
    """Versioned predictor store layered on the ``SAVE_FORMAT`` envelope.

    In-memory by default (versions live for the process); give it a
    ``root`` directory to persist every version as ``vNNN.pkl`` — the
    same :meth:`HybridPredictor.save` envelope the rest of the repo
    uses, so any registered version loads with
    :meth:`HybridPredictor.load` — plus a ``manifest.json`` recording
    lineage and the active version.  A registry pointed at an existing
    root resumes from its manifest.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self.versions: list[ModelVersion] = []
        self.active: int | None = None
        """Version number currently live, or ``None``."""
        self._models: dict[int, HybridPredictor] = {}
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            manifest = self.root / self.MANIFEST
            if manifest.exists():
                self._load_manifest(manifest)

    def __len__(self) -> int:
        return len(self.versions)

    def register(
        self,
        predictor: HybridPredictor,
        source: str,
        parent: int | None = None,
        metrics: dict | None = None,
    ) -> ModelVersion:
        """Record a new version; returns its :class:`ModelVersion`."""
        number = (self.versions[-1].version + 1) if self.versions else 1
        entry = ModelVersion(
            version=number, source=source, parent=parent,
            metrics=dict(metrics or {}),
        )
        if self.root is not None:
            entry.file = f"v{number:03d}.pkl"
            predictor.save(self.root / entry.file)
        else:
            self._models[number] = predictor
        self.versions.append(entry)
        self._write_manifest()
        return entry

    def get(self, version: int) -> HybridPredictor:
        """The predictor registered as ``version``."""
        entry = self.entry(version)
        if self.root is not None:
            if entry.file is None:
                raise ValueError(f"version {version} has no stored file")
            return HybridPredictor.load(self.root / entry.file)
        return self._models[version]

    def entry(self, version: int) -> ModelVersion:
        for item in self.versions:
            if item.version == version:
                return item
        raise KeyError(f"unknown model version {version}")

    def promote(self, version: int, metrics: dict | None = None) -> None:
        """Mark ``version`` live (it must be registered)."""
        entry = self.entry(version)
        entry.promoted = True
        if metrics:
            entry.metrics.update(metrics)
        self.active = version
        self._write_manifest()

    # -- persistence ---------------------------------------------------

    def _write_manifest(self) -> None:
        if self.root is None:
            return
        payload = {
            "format": 1,
            "active": self.active,
            "models": [
                {
                    "version": v.version,
                    "source": v.source,
                    "parent": v.parent,
                    "metrics": v.metrics,
                    "promoted": v.promoted,
                    "file": v.file,
                }
                for v in self.versions
            ],
        }
        with atomic_open(self.root / self.MANIFEST) as fh:
            fh.write(json.dumps(payload, indent=2).encode())

    def _load_manifest(self, path: Path) -> None:
        payload = json.loads(path.read_text())
        if payload.get("format") != 1:
            raise ValueError(
                f"unsupported registry manifest format {payload.get('format')!r}"
            )
        self.active = payload.get("active")
        self.versions = [ModelVersion(**item) for item in payload["models"]]


# ----------------------------------------------------------------------
# Background retrain worker
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetrainConfig:
    """Knobs of the continuous-learning loop."""

    delivery_intervals: int = 20
    """Decisions between a retrain submission and the challenger
    becoming available (models background-retrain latency without
    wall-clock nondeterminism)."""

    shadow_intervals: int = 30
    """Decisions the challenger shadows the incumbent before the
    promotion gate judges it."""

    lr_scale: float = 0.01
    """Fine-tune learning-rate scale (paper Section 5.4: 1/100)."""

    epochs: int | None = None
    """Fine-tune epochs (``None`` = predictor default)."""

    seed: int = 0
    """Base seed for data collection / fine-tune SGD; bumped per
    submission so consecutive retrains are independent."""

    use_thread: bool = False
    """Run the retrain on a real background thread.  The challenger is
    still withheld until ``delivery_intervals`` have elapsed, so thread
    scheduling can delay delivery but never hasten it."""

    max_retrains: int | None = None
    """Cap on retrain cycles per episode (``None`` = unlimited; the
    drift detector's cooldown already rate-limits submissions)."""


class RetrainWorker:
    """Produces fine-tuned challengers off the control path.

    ``collect`` is called with a seed and must return a fresh
    :class:`SinanDataset` of boundary data (typically a
    :class:`~repro.core.data_collection.DataCollector` sweep against
    the current platform); it must not touch the live episode's RNG or
    cluster.  The incumbent passed to :meth:`submit` is deep-copied, so
    retraining never mutates the serving model.

    When ``collect`` fans out over processes (``BoundaryCollector`` with
    ``jobs > 1``), successive retrain cycles reuse the process-wide warm
    worker pool (:mod:`repro.harness.pool`) instead of cold-starting one
    per cycle; a promoted challenger re-broadcasts under a new content
    fingerprint, so stale worker-side model caches cannot serve it.
    """

    def __init__(self, collect, config: RetrainConfig | None = None) -> None:
        self.collect = collect
        self.config = config or RetrainConfig()
        self.submissions = 0
        self._pending: HybridPredictor | None = None
        self._ready_at: int | None = None
        self._thread: threading.Thread | None = None
        self.error: str | None = None
        """Failure message of the most recent submission, or ``None``."""

    @property
    def busy(self) -> bool:
        return self._ready_at is not None

    def submit(self, incumbent: HybridPredictor, interval: int) -> None:
        """Start retraining a copy of ``incumbent``.

        ``interval`` is the decision index at submission; the challenger
        becomes available ``delivery_intervals`` decisions later.
        """
        if self.busy:
            raise RuntimeError("a retrain is already in flight")
        seed = self.config.seed + self.submissions
        self.submissions += 1
        self.error = None
        self._ready_at = interval + self.config.delivery_intervals
        base = copy.deepcopy(incumbent)
        if self.config.use_thread:
            self._thread = threading.Thread(
                target=self._run, args=(base, seed), daemon=True
            )
            self._thread.start()
        else:
            self._run(base, seed)

    def _run(self, base: HybridPredictor, seed: int) -> None:
        try:
            dataset = self.collect(seed)
            base.fine_tune(
                dataset,
                lr_scale=self.config.lr_scale,
                epochs=self.config.epochs,
                seed=seed,
            )
            self._pending = base
        except Exception as exc:  # never crash the control loop
            self.error = f"{type(exc).__name__}: {exc}"
            self._pending = None

    def poll(self, interval: int) -> HybridPredictor | None:
        """The finished challenger once its delivery interval passed.

        Returns ``None`` while still "in the background".  After a
        failed retrain (see :attr:`error`) the worker clears itself so
        the caller can resubmit; the failure is surfaced exactly once
        via :attr:`error`.
        """
        if self._ready_at is None or interval < self._ready_at:
            return None
        if self._thread is not None:
            if self._thread.is_alive():
                return None
            self._thread = None
        self._ready_at = None
        challenger, self._pending = self._pending, None
        return challenger

    def cancel(self) -> None:
        """Drop any in-flight work (episode reset)."""
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._pending = None
        self._ready_at = None
        self.error = None


# ----------------------------------------------------------------------
# Shadow evaluation and the promotion gate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowReport:
    """What the challenger did during its shadow phase."""

    version: int
    intervals: int
    divergences: int
    challenger_mispredictions: int
    """Intervals where QoS was violated though the challenger had
    scored the situation safe (would-be recovery boosts)."""
    challenger_fallbacks: int
    incumbent_mispredictions: int
    """Incumbent mispredictions over the same window (baseline)."""
    incumbent_fallbacks: int
    challenger_mae_ms: float
    """Mean |predicted - measured| tail latency of the challenger over
    the shadow window (NaN without finite pairs)."""
    incumbent_mae_ms: float
    calibration_samples: int
    """Finite (predicted, measured) pairs behind the challenger MAE."""

    challenger_mean_total_cpu: float = float("nan")
    """Mean total CPU (cores) the challenger *would have* allocated per
    shadow decision (NaN before any decision was shadowed)."""

    incumbent_mean_total_cpu: float = float("nan")
    """Mean total CPU the incumbent actually allocated over the same
    shadow window — the efficiency baseline."""

    @property
    def challenger_misprediction_rate(self) -> float:
        return self.challenger_mispredictions / max(self.intervals, 1)

    @property
    def challenger_fallback_rate(self) -> float:
        return self.challenger_fallbacks / max(self.intervals, 1)


class ShadowEvaluator:
    """Scores a challenger on live decisions without acting on them.

    The challenger gets its own :class:`OnlineScheduler` (same action
    space, QoS, and config as the incumbent) and decides on the same
    telemetry *after* the incumbent's decision is already fixed — the
    incumbent's allocations, counters, and RNG interactions are bitwise
    unchanged by shadowing.  Divergent choices become
    :class:`~repro.obs.audit.DivergenceRecord` entries; both models'
    one-step-ahead calibration error is tracked for the gate.
    """

    def __init__(
        self,
        challenger: HybridPredictor,
        incumbent: "OnlineScheduler",
        version: int,
    ) -> None:
        from repro.core.scheduler import OnlineScheduler

        self.challenger = challenger
        self.incumbent = incumbent
        self.version = version
        self.scheduler = OnlineScheduler(
            challenger, incumbent.action_space, incumbent.qos, incumbent.config
        )
        self.intervals = 0
        self.divergence_records: list = []
        self._inc_mis0 = incumbent.mispredictions
        self._inc_fb0 = incumbent.fallbacks
        self._prev_inc_pred = float("nan")
        self._prev_ch_pred = float("nan")
        self._inc_err = [0.0, 0]  # (sum, count)
        self._ch_err = [0.0, 0]
        self._inc_cpu = [0.0, 0]  # (total cores, decisions)
        self._ch_cpu = [0.0, 0]

    def observe(self, log, incumbent_alloc):
        """Shadow one decision; returns a divergence record or ``None``.

        Must be called right after the incumbent's ``decide`` on the
        same log (its latest prediction-trace entry is read here).
        """
        from repro.core.scheduler import _DecisionNote
        from repro.obs.audit import DivergenceRecord

        latest = log.latest
        measured = float(self.incumbent.qos.latency_of(latest))
        for prev, acc in (
            (self._prev_inc_pred, self._inc_err),
            (self._prev_ch_pred, self._ch_err),
        ):
            if np.isfinite(prev) and np.isfinite(measured):
                acc[0] += abs(prev - measured)
                acc[1] += 1

        note = _DecisionNote()
        ch_alloc = self.scheduler._decide(log, note)
        self.intervals += 1

        inc_trace = self.incumbent.prediction_trace
        inc_pred = float(inc_trace[-1]["predicted_ms"]) if inc_trace else float("nan")
        self._prev_inc_pred = inc_pred
        self._prev_ch_pred = float(note.predicted_ms)

        current = np.asarray(latest.cpu_alloc, dtype=float)
        inc_eff = current if incumbent_alloc is None else np.asarray(
            incumbent_alloc, dtype=float
        )
        ch_eff = current if ch_alloc is None else np.asarray(ch_alloc, dtype=float)
        self._inc_cpu[0] += float(np.nansum(inc_eff))
        self._inc_cpu[1] += 1
        self._ch_cpu[0] += float(np.nansum(ch_eff))
        self._ch_cpu[1] += 1
        if np.array_equal(inc_eff, ch_eff):
            return None
        record = DivergenceRecord(
            interval=self.incumbent.decisions - 1,
            time=float(latest.time),
            challenger_version=self.version,
            incumbent_kind=self._coarse_kind(inc_eff, current),
            challenger_kind=note.chosen_kind,
            incumbent_total_cpu=float(np.nansum(inc_eff)),
            challenger_total_cpu=float(np.nansum(ch_eff)),
            incumbent_predicted_p99_ms=inc_pred,
            challenger_predicted_p99_ms=float(note.predicted_ms),
        )
        self.divergence_records.append(record)
        return record

    @staticmethod
    def _coarse_kind(alloc: np.ndarray, current: np.ndarray) -> str:
        up = bool(np.any(alloc > current + 1e-9))
        down = bool(np.any(alloc < current - 1e-9))
        if up and down:
            return "mixed"
        if up:
            return "scale-up"
        if down:
            return "scale-down"
        return "hold"

    def report(self) -> ShadowReport:
        def mae(acc):
            return acc[0] / acc[1] if acc[1] else float("nan")

        return ShadowReport(
            version=self.version,
            intervals=self.intervals,
            divergences=len(self.divergence_records),
            challenger_mispredictions=self.scheduler.mispredictions,
            challenger_fallbacks=self.scheduler.fallbacks,
            incumbent_mispredictions=self.incumbent.mispredictions - self._inc_mis0,
            incumbent_fallbacks=self.incumbent.fallbacks - self._inc_fb0,
            challenger_mae_ms=mae(self._ch_err),
            incumbent_mae_ms=mae(self._inc_err),
            calibration_samples=self._ch_err[1],
            challenger_mean_total_cpu=(
                self._ch_cpu[0] / self._ch_cpu[1]
                if self._ch_cpu[1] else float("nan")
            ),
            incumbent_mean_total_cpu=(
                self._inc_cpu[0] / self._inc_cpu[1]
                if self._inc_cpu[1] else float("nan")
            ),
        )


@dataclass(frozen=True)
class GateDecision:
    """Outcome of judging a shadow report."""

    promote: bool
    reason: str
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PromotionGate:
    """Thresholds a challenger's shadow record must clear to go live."""

    min_intervals: int = 20
    """Shadow decisions required before judging at all."""

    max_misprediction_rate: float = 0.05
    """Challenger would-be unpredicted violations per shadow decision."""

    max_fallback_rate: float = 0.25
    """Challenger max-allocation fallbacks per shadow decision."""

    max_mae_ratio: float = 1.0
    """Challenger calibration MAE must be at most this multiple of the
    incumbent's over the same window.  Skipped when the incumbent has no
    finite MAE or fewer than :attr:`min_calibration_samples` pairs back
    the challenger's; a non-finite challenger MAE otherwise fails it."""

    min_calibration_samples: int = 5
    """Pairs required before the MAE comparison is trusted."""

    max_cpu_regression: float = 0.05
    """Tolerated efficiency regression: the challenger's would-be mean
    allocated CPU may exceed the incumbent's over the same shadow
    window by at most this fraction.  A model that meets QoS only by
    allocating more hardware is not an improvement — the paper's whole
    objective is meeting QoS with the *fewest* resources."""

    def judge(self, report: ShadowReport) -> GateDecision:
        metrics = {
            "intervals": report.intervals,
            "divergences": report.divergences,
            "challenger_misprediction_rate": report.challenger_misprediction_rate,
            "challenger_fallback_rate": report.challenger_fallback_rate,
            "challenger_mae_ms": report.challenger_mae_ms,
            "incumbent_mae_ms": report.incumbent_mae_ms,
            "challenger_mean_total_cpu": report.challenger_mean_total_cpu,
            "incumbent_mean_total_cpu": report.incumbent_mean_total_cpu,
        }
        if report.intervals < self.min_intervals:
            return GateDecision(False, "shadow-too-short", metrics)
        if report.challenger_misprediction_rate > self.max_misprediction_rate:
            return GateDecision(False, "misprediction-rate", metrics)
        if report.challenger_fallback_rate > self.max_fallback_rate:
            return GateDecision(False, "fallback-rate", metrics)
        # Each comparison is skipped only when the incumbent has no
        # finite baseline; against a finite baseline, a non-finite
        # challenger stat fails the check.
        if (
            report.calibration_samples >= self.min_calibration_samples
            and np.isfinite(report.incumbent_mae_ms)
            and (
                not np.isfinite(report.challenger_mae_ms)
                or report.challenger_mae_ms
                > self.max_mae_ratio * report.incumbent_mae_ms
            )
        ):
            return GateDecision(False, "calibration-no-better", metrics)
        if np.isfinite(report.incumbent_mean_total_cpu) and (
            not np.isfinite(report.challenger_mean_total_cpu)
            or (
                report.incumbent_mean_total_cpu > 0
                and report.challenger_mean_total_cpu
                > (1.0 + self.max_cpu_regression) * report.incumbent_mean_total_cpu
            )
        ):
            return GateDecision(False, "cpu-regression", metrics)
        return GateDecision(True, "ok", metrics)


# ----------------------------------------------------------------------
# The continuous-learning manager
# ----------------------------------------------------------------------


class ContinuousSinanManager(Manager):
    """Sinan with the learning loop closed: drift detection, background
    retraining, shadow evaluation, and gated promotion — all inside the
    ordinary ``decide()`` interface, so it drops into every existing
    episode runner.

    State machine per decision (after the incumbent has decided —
    nothing below alters the returned allocation):

    ``monitor``
        Feed the drift detector from the incumbent's counters and
        prediction trace; on a signal, submit a retrain to the worker.
    ``retraining``
        Poll the worker; when the challenger is delivered, register it
        and open a shadow phase.
    ``shadow``
        Score the challenger side-by-side; after
        ``RetrainConfig.shadow_intervals`` decisions the
        :class:`PromotionGate` judges it, and only a passing challenger
        is adopted (``OnlineScheduler.adopt_predictor``).

    With ``collect=None`` the manager is detect-only (drift events are
    recorded, nothing is retrained); with ``promote=False`` the full
    loop runs but the gate's verdict is recorded instead of applied —
    the incumbent then behaves bitwise identically to a plain
    :class:`~repro.core.sinan.SinanManager` for the whole episode.
    """

    name = "Sinan-CL"

    STATE_MONITOR = "monitor"
    STATE_RETRAINING = "retraining"
    STATE_SHADOW = "shadow"

    def __init__(
        self,
        predictor: HybridPredictor,
        qos,
        collect=None,
        graph=None,
        scheduler_config=None,
        action_space=None,
        drift_config=None,
        retrain_config: RetrainConfig | None = None,
        gate: PromotionGate | None = None,
        registry: ModelRegistry | None = None,
        promote: bool = True,
    ) -> None:
        from repro.core.actions import ActionSpace
        from repro.core.drift import DriftDetector
        from repro.core.scheduler import OnlineScheduler

        graph = graph or predictor.graph
        if action_space is None:
            action_space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        self.qos = qos
        self.graph = graph
        self.scheduler = OnlineScheduler(predictor, action_space, qos, scheduler_config)
        self.detector = DriftDetector(qos.latency_ms, drift_config)
        self.retrain_config = retrain_config or RetrainConfig()
        self.collect = collect
        self.worker = (
            RetrainWorker(collect, self.retrain_config)
            if collect is not None
            else None
        )
        self.gate = gate or PromotionGate()
        # `is not None`, not truthiness: a fresh registry is empty and
        # therefore falsy — `or` would silently drop the caller's store.
        self.registry = registry if registry is not None else ModelRegistry()
        entry = self.registry.register(predictor, source="initial")
        self.registry.promote(entry.version)
        self.incumbent_version = entry.version
        self.promote_enabled = promote
        self.promotions = 0
        self.retrains = 0
        self.state = self.STATE_MONITOR
        self.shadow: ShadowEvaluator | None = None
        self.events: list = []
        """Interleaved :class:`~repro.obs.audit.ModelEventRecord` /
        :class:`~repro.obs.audit.DivergenceRecord` stream for the
        current episode (also mirrored to an attached audit log)."""

    # -- Manager interface --------------------------------------------

    def decide(self, log):
        scheduler = self.scheduler
        pre_mis = scheduler.mispredictions
        pre_fallbacks = scheduler.fallbacks
        alloc = scheduler.decide(log)
        if len(log) == 0:
            return alloc
        latest = log.latest
        measured = float(self.qos.latency_of(latest))
        trace = scheduler.prediction_trace
        predicted = float(trace[-1]["predicted_ms"]) if trace else float("nan")
        self.detector.observe(
            measured,
            predicted,
            mispredicted=scheduler.mispredictions > pre_mis,
            fallback=scheduler.fallbacks > pre_fallbacks,
        )
        interval = scheduler.decisions - 1
        now = float(latest.time)
        if self.state == self.STATE_MONITOR:
            self._monitor_step(interval, now)
        elif self.state == self.STATE_RETRAINING:
            self._retraining_step(interval, now)
        else:
            self._shadow_step(log, alloc, interval, now)
        return alloc

    def reset(self) -> None:
        self.scheduler.reset()
        self.detector.reset()
        if self.worker is not None:
            self.worker.cancel()
        self.state = self.STATE_MONITOR
        self.shadow = None
        self.events = []

    # -- state machine -------------------------------------------------

    def _emit(self, record) -> None:
        from repro.obs.recorder import NULL_RECORDER

        self.events.append(record)
        recorder = self.scheduler.__dict__.get("recorder", NULL_RECORDER)
        if recorder.enabled:
            recorder.audit(record)

    def _monitor_step(self, interval: int, now: float) -> None:
        from repro.obs.audit import (
            EVENT_DRIFT,
            EVENT_RETRAIN_STARTED,
            ModelEventRecord,
        )

        signal = self.detector.check()
        if signal is None:
            return
        self._emit(ModelEventRecord(
            interval=interval, time=now, event=EVENT_DRIFT,
            version=self.incumbent_version, reason=signal.reason,
            detail=signal.describe(),
        ))
        if self.worker is None:
            return  # detect-only mode
        limit = self.retrain_config.max_retrains
        if limit is not None and self.retrains >= limit:
            return
        self.retrains += 1
        self.worker.submit(self.scheduler.predictor, interval)
        self._emit(ModelEventRecord(
            interval=interval, time=now, event=EVENT_RETRAIN_STARTED,
            version=self.incumbent_version, reason=signal.reason,
        ))
        self.state = self.STATE_RETRAINING

    def _retraining_step(self, interval: int, now: float) -> None:
        from repro.obs.audit import (
            EVENT_REJECTED,
            EVENT_SHADOW_STARTED,
            ModelEventRecord,
        )

        assert self.worker is not None
        was_busy = self.worker.busy
        challenger = self.worker.poll(interval)
        if challenger is not None:
            entry = self.registry.register(
                challenger,
                source=f"fine-tune@{interval}",
                parent=self.incumbent_version,
            )
            self.shadow = ShadowEvaluator(challenger, self.scheduler, entry.version)
            self._emit(ModelEventRecord(
                interval=interval, time=now, event=EVENT_SHADOW_STARTED,
                version=entry.version,
            ))
            self.state = self.STATE_SHADOW
        elif was_busy and not self.worker.busy:
            self._emit(ModelEventRecord(
                interval=interval, time=now, event=EVENT_REJECTED,
                version=self.incumbent_version, reason="retrain-failed",
                detail=self.worker.error or "",
            ))
            self.state = self.STATE_MONITOR

    def _shadow_step(self, log, alloc, interval: int, now: float) -> None:
        from repro.obs.audit import (
            EVENT_PROMOTED,
            EVENT_REJECTED,
            ModelEventRecord,
        )

        assert self.shadow is not None
        divergence = self.shadow.observe(log, alloc)
        if divergence is not None:
            self._emit(divergence)
        if self.shadow.intervals < self.retrain_config.shadow_intervals:
            return
        report = self.shadow.report()
        decision = self.gate.judge(report)
        detail = ", ".join(
            f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in decision.metrics.items()
        )
        if decision.promote and self.promote_enabled:
            challenger = self.shadow.challenger
            live_recorder = self.scheduler.predictor.__dict__.get("recorder")
            if live_recorder is not None:
                challenger.recorder = live_recorder
            self.scheduler.adopt_predictor(challenger)
            self.registry.promote(report.version, metrics=decision.metrics)
            self.incumbent_version = report.version
            self.promotions += 1
            self._emit(ModelEventRecord(
                interval=interval, time=now, event=EVENT_PROMOTED,
                version=report.version, reason=decision.reason, detail=detail,
            ))
            # The new model starts with a clean drift record.
            self.detector.reset()
        else:
            reason = decision.reason if not decision.promote else "promotion-disabled"
            self._emit(ModelEventRecord(
                interval=interval, time=now, event=EVENT_REJECTED,
                version=report.version, reason=reason, detail=detail,
            ))
        self.shadow = None
        self.state = self.STATE_MONITOR

    # -- introspection (mirrors SinanManager) --------------------------

    @property
    def predictor(self) -> HybridPredictor:
        return self.scheduler.predictor

    @property
    def prediction_trace(self):
        return self.scheduler.prediction_trace

    @property
    def mispredictions(self) -> int:
        return self.scheduler.mispredictions

    @property
    def trusted(self) -> bool:
        return self.scheduler.trusted

    @property
    def fallbacks(self) -> int:
        return self.scheduler.fallbacks

    @property
    def predictor_failures(self) -> int:
        return self.scheduler.predictor_failures


__all__ = [
    "fine_tune_predictor",
    "RetrainReport",
    "ModelVersion",
    "ModelRegistry",
    "RetrainConfig",
    "RetrainWorker",
    "ShadowEvaluator",
    "ShadowReport",
    "GateDecision",
    "PromotionGate",
    "ContinuousSinanManager",
]
