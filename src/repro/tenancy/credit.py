"""Credit accounting for multi-tenant arbitration.

Each tenant holds a scalar *credit* balance that encodes how much claim
it has on the shared cluster when demand exceeds supply.  Credit

* **accrues** every interval in proportion to the tenant's declared SLO
  tightness (a 200 ms target earns faster than a 500 ms one — tighter
  QoS is a stronger standing claim, mirroring how the paper's scheduler
  prioritizes by proximity to the QoS target);
* **decays** multiplicatively on intervals where the tenant violated
  its own QoS (a tenant that cannot convert cores into met SLOs loses
  standing, which protects well-behaved tenants from a chronically
  overloaded neighbour); and
* is **spent** when the arbiter is contended and the tenant wins more
  than its equal share of the cluster (sustained overdraw drains the
  balance, so no tenant can monopolize the surplus forever).

Balances are clamped to ``[min_credit, max_credit]`` so a tenant can
neither be starved out permanently nor bank unbounded priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class CreditConfig:
    """Tuning knobs for the credit economy.

    The defaults keep the economy gentle: balances move a few percent
    per interval, so standing reflects behaviour over tens of intervals
    rather than single-interval noise.
    """

    base_credit: float = 1.0
    """Opening balance for every tenant."""

    accrual_rate: float = 0.02
    """Per-interval accrual for a tenant of average SLO tightness;
    scaled by each tenant's normalized tightness."""

    violation_decay: float = 0.97
    """Multiplicative factor applied on each violating interval."""

    spend_rate: float = 0.01
    """Credit spent per core granted above the equal share, per
    contended interval."""

    min_credit: float = 0.1
    """Floor — even a chronically violating tenant keeps a small claim."""

    max_credit: float = 5.0
    """Ceiling — bounds how much priority a tenant can bank."""

    urgency_boost: float = 2.0
    """Weight multiplier for tenants currently violating QoS: a live
    violation is a stronger signal than banked standing alone."""

    def __post_init__(self) -> None:
        if self.min_credit <= 0 or self.max_credit < self.min_credit:
            raise ValueError("need 0 < min_credit <= max_credit")
        if not self.min_credit <= self.base_credit <= self.max_credit:
            raise ValueError("base_credit must be in [min_credit, max_credit]")
        if not 0.0 < self.violation_decay <= 1.0:
            raise ValueError("violation_decay must be in (0, 1]")


class CreditLedger:
    """Per-tenant credit balances plus the update rule.

    Construct with :meth:`from_qos` so SLO tightness is normalized
    across the actual tenant set (tightness of tenant *i* is
    ``(1/qos_i) / mean_j(1/qos_j)`` — mean tightness is 1.0 by
    construction, making ``accrual_rate`` directly interpretable).
    """

    def __init__(
        self,
        tightness: Mapping[str, float],
        config: CreditConfig | None = None,
    ) -> None:
        if not tightness:
            raise ValueError("ledger needs at least one tenant")
        self.config = config or CreditConfig()
        self.tightness = dict(tightness)
        self._credits = {t: self.config.base_credit for t in tightness}

    @classmethod
    def from_qos(
        cls,
        qos_ms: Mapping[str, float],
        config: CreditConfig | None = None,
    ) -> "CreditLedger":
        """Build a ledger with tightness derived from QoS targets (ms)."""
        if not qos_ms:
            raise ValueError("ledger needs at least one tenant")
        inv = {t: 1.0 / ms for t, ms in qos_ms.items()}
        mean_inv = sum(inv.values()) / len(inv)
        return cls({t: v / mean_inv for t, v in inv.items()}, config)

    @property
    def tenants(self) -> list[str]:
        return list(self._credits)

    def credit(self, tenant: str) -> float:
        return self._credits[tenant]

    def snapshot(self) -> dict[str, float]:
        """Current balances (a copy, safe to store in records)."""
        return dict(self._credits)

    def effective_weight(self, tenant: str, violating: bool) -> float:
        """Arbitration weight: banked credit, boosted if violating now."""
        boost = self.config.urgency_boost if violating else 1.0
        return self._credits[tenant] * boost

    def settle(
        self,
        violating: Iterable[str] = (),
        overdraw: Mapping[str, float] | None = None,
    ) -> None:
        """Apply one interval's worth of credit dynamics.

        ``violating`` names tenants that missed QoS this interval;
        ``overdraw`` maps tenants to cores granted above the equal
        share on a *contended* interval (pass nothing when the cluster
        was uncontended — surplus is free when nobody else wanted it).
        """
        cfg = self.config
        violating = set(violating)
        overdraw = overdraw or {}
        for t in self._credits:
            c = self._credits[t] + cfg.accrual_rate * self.tightness[t]
            if t in violating:
                c *= cfg.violation_decay
            c -= cfg.spend_rate * max(0.0, overdraw.get(t, 0.0))
            self._credits[t] = min(cfg.max_credit, max(cfg.min_credit, c))

    def reset(self) -> None:
        """Restore every balance to the opening credit."""
        for t in self._credits:
            self._credits[t] = self.config.base_credit


__all__ = ["CreditConfig", "CreditLedger"]
