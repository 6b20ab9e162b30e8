"""(ours) Multi-tenant contention: credit arbitration vs static partitions.

Runs the standard 3-tenant contention scenario (Social Network, Hotel
Reservation, and Media Service with staggered load peaks) on one shared
cluster budget, twice per seed: once under the
:class:`~repro.tenancy.arbiter.CreditArbiter` and once under equal
static partitioning (the quota-carved baseline).  The per-tenant
scheduler is the elastic QoS-meeting autoscaler — the arbitration layer
is manager-agnostic, and the autoscaler's load-following demands make
the credit-vs-static comparison meaningful at every pipeline budget
(``repro multitenant --manager sinan`` runs the same scenario with
per-tenant Sinan schedulers; see EXPERIMENTS.md for why the smoke gate
pins the autoscaler).

Asserts the subsystem's acceptance gate — credit arbitration meets or
beats static partitioning on aggregate QoS attainment at equal or lower
mean cluster CPU, with real contention occurring — and the determinism
contract: the pooled (``jobs=2``) sweep is bitwise identical to the
serial one, tenant by tenant.  Results are written to
``BENCH_multitenant.json`` at the repo root.
"""

from benchmarks import bench
from benchmarks.conftest import episode_seconds, n_seeds, run_once
from repro.harness.multitenant import format_multitenant_report


def test_credit_arbitration_beats_static_partitioning(benchmark):
    # The scenario's last load step lands at t=130, so never run shorter
    # than 150 intervals regardless of REPRO_EPISODE_SECONDS.
    duration = max(episode_seconds(), 150)
    _, serial = run_once(
        benchmark,
        lambda: bench.run_multitenant_bench(duration, list(range(n_seeds()))),
    )

    written = bench.read_envelope("multitenant")
    print()
    print(format_multitenant_report(serial))
    print(bench.format_envelope(written))
    bench.assert_gates(written, [
        "pooled_bitwise_equal", "contended_fraction", "credit_qos_vs_static",
        "credit_cpu_vs_static",
    ])
