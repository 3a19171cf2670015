"""The benchmark harness in bench/ still runs on the library as it stands.

Every operation of every workload, at seed 1, runs through
``bench/run.py::spawn`` untraced and traced.  Each output must pass the
correctness gate against ``bench/reference.json``, and tracing must not
change it.  A library change that breaks the harness (a renamed CLI
option, a result field the worker or the spans read) fails here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = gate.load_reference()
OPS = [(workload, op_id, argv)
       for workload in WORKLOADS.values()
       for op_id, argv in workload.round(1)]


@pytest.mark.parametrize("workload,op_id,argv", OPS,
                         ids=[f"{w.name}:{op_id}" for w, op_id, _ in OPS])
def test_workload_op_passes_gate_traced_and_untraced(workload, op_id, argv):
    plain = run.spawn(argv, workload.k_f, trace=False, setup_only=False)
    traced = run.spawn(argv, workload.k_f, trace=True, setup_only=False)
    reference = REFERENCE[workload.name][op_id]
    assert gate.check(argv[0], plain["rc"], plain["stdout"], reference) == [], \
        plain.get("error")
    assert traced["rc"] == plain["rc"], traced.get("error")
    assert traced["stdout"] == plain["stdout"]
