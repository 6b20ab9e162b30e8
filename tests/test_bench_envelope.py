"""Every benchmark result at the repository root shares one envelope.

The ``benchmarks/test_perf_*.py`` and ``test_multitenant.py`` benches
write ``BENCH_<name>.json`` through one writer; this checks the
committed files parse, carry the five envelope keys and a host record,
and that each gate's verdict follows from its value, operator and bound.
"""

import json
import operator
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULTS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARKS = ("decision", "training", "sim", "episode", "sweep", "multitenant")
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "==": operator.eq}


def test_every_benchmark_has_a_result():
    assert {p.name for p in RESULTS} >= {f"BENCH_{b}.json" for b in BENCHMARKS}


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_result_envelope(path):
    envelope = json.loads(path.read_text())
    assert set(envelope) == {"benchmark", "config", "host", "results", "gates"}
    assert path.name == f"BENCH_{envelope['benchmark']}.json"
    assert {"nproc", "python", "numpy", "blas"} <= set(envelope["host"])
    assert isinstance(envelope["config"], dict)
    assert isinstance(envelope["results"], dict)
    assert envelope["gates"]
    for gate in envelope["gates"]:
        assert set(gate) == {"name", "value", "op", "bound", "ok"}, gate
        assert gate["ok"] == OPS[gate["op"]](gate["value"], gate["bound"]), gate
