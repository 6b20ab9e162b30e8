#!/usr/bin/env python
"""Sinan vs autoscaling under a diurnal load (paper Figure 12, bottom).

The Social Network's user population swings through a day/night cycle;
the script runs Sinan and both autoscaler configurations over the same
cycle and prints an ASCII timeline of offered load, tail latency, and
aggregate CPU for each manager.
"""

import numpy as np

from repro.apps import SOCIAL_QOS_MS, social_network
from repro.baselines import AutoScale
from repro.harness.experiment import run_episode
from repro.harness.figures import sparkline
from repro.harness.pipeline import app_spec, build_sinan_pipeline, make_cluster
from repro.harness.reporting import format_table
from repro.workload.patterns import DiurnalLoad


def main() -> None:
    graph = social_network()
    spec = app_spec(graph)
    pattern = DiurnalLoad(base=180, amplitude=120, period=300)
    duration = 450
    warmup = 60

    sinan, _ = build_sinan_pipeline(graph, users=250, seed=0)
    managers = {
        "Sinan": sinan,
        "AutoScaleOpt": AutoScale.opt(graph.min_alloc(), graph.max_alloc()),
        "AutoScaleCons": AutoScale.conservative(graph.min_alloc(), graph.max_alloc()),
    }

    rows = []
    for name, manager in managers.items():
        cluster = make_cluster(graph, users=0, seed=77, pattern=pattern)
        result = run_episode(manager, cluster, duration, spec.qos, warmup=warmup)
        log = result.telemetry
        p99 = log.p99_series()
        if name == "Sinan":
            print(f"\noffered load (users):  {sparkline(log.rps_series())}")
        print(f"{name:>14s}  p99 ms:  {sparkline(p99, hi=SOCIAL_QOS_MS)}")
        print(f"{'':>14s}  CPU:     {sparkline(log.total_cpu_series())}")
        rows.append([
            name,
            f"{result.mean_total_cpu:.1f}",
            f"{np.median(p99[warmup:]):.0f}",
            f"{result.qos_fraction:.3f}",
        ])

    print()
    print(format_table(
        ["Manager", "Mean CPU", "Median p99 (ms)", "P(meet QoS)"],
        rows,
        title=f"Diurnal Social Network, QoS p99 <= {SOCIAL_QOS_MS:.0f} ms",
    ))


if __name__ == "__main__":
    main()
