"""Self-tests of the benchmark (python3 -m pytest bench/test_bench.py)."""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import OUTSIDE_POINTS, WORKLOADS, norm2  # noqa: E402

SEEDS = range(20)


def _outside_points(seed):
    ops = WORKLOADS["outside_kf3"].round(seed)
    return [tuple(int(c) for c in argv[-1].split("=", 1)[1].split(","))
            for _, argv in ops[:-1]]


def test_same_seed_same_argv():
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            assert workload.round(seed) == workload.round(seed)
    assert len({json.dumps(WORKLOADS["outside_kf3"].round(s)) for s in SEEDS}) > 1


def test_seeded_points_keep_norm_and_support_size():
    import fermigas
    cfg = fermigas.fermi_ball(3.0)
    base = [len(fermigas.k_support(xi, cfg).finite_part) for xi in OUTSIDE_POINTS]
    for seed in SEEDS:
        points = _outside_points(seed)
        assert [norm2(p) for p in points] == [norm2(p) for p in OUTSIDE_POINTS]
        assert [len(fermigas.k_support(p, cfg).finite_part) for p in points] == base
        op_ids = {op_id for op_id, _ in WORKLOADS["outside_kf3"].round(seed)}
        assert op_ids == set(gate.load_reference()["outside_kf3"])


@pytest.fixture(scope="module")
def momentum_op():
    """One real outside-ball operation, run untraced and traced."""
    op_id, argv = WORKLOADS["outside_kf3"].round(5)[0]
    plain = run.spawn(argv, 3.0, trace=False, setup_only=False)
    traced = run.spawn(argv, 3.0, trace=True, setup_only=False)
    return op_id, argv, plain, traced


def test_traced_output_identical(momentum_op):
    _, _, plain, traced = momentum_op
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert traced["layers"]["lattice.lune.calls"] > 0
    assert traced["absent"] == []


def test_untraced_times_rescaled_to_reference_speed(momentum_op):
    _, _, plain, traced = momentum_op
    assert run.at_ref_speed(2.0, [2 * run.SPEED_REF_S, 2 * run.SPEED_REF_S]) == 1.0
    assert run.sample_mean([1.0, 1.0, 1.0, 10.0]) == 1.25  # 10 counts as 2
    assert plain["speed_samples"] > 0
    assert 0 < plain["own_s"] < plain["wall_s"]
    assert plain["wall_ref_s"] > 0 and plain["setup_ref_s"] > 0
    assert traced["own_s"] == traced["wall_s"] and "wall_ref_s" not in traced


def test_gate_passes_reference_and_fails_perturbed(momentum_op):
    op_id, argv, plain, _ = momentum_op
    reference = gate.load_reference()["outside_kf3"][op_id]
    assert gate.check(argv[0], plain["rc"], plain["stdout"], reference) == []
    for key in reference:
        bad = dict(reference)
        bad[key] *= 1.0 + 1e-3
        problems = gate.check(argv[0], plain["rc"], plain["stdout"], bad)
        assert any(key in p for p in problems), (key, problems)


def test_gate_rejects_bad_outputs(momentum_op):
    op_id, argv, plain, _ = momentum_op
    reference = gate.load_reference()["outside_kf3"][op_id]
    good = json.loads(plain["stdout"])

    def problems(out, rc=0):
        return gate.check(argv[0], rc, json.dumps(out), reference)

    assert gate.check(argv[0], 1, plain["stdout"], reference) == ["exit code 1"]
    assert gate.check(argv[0], None, "", reference) == ["exit code None"]
    assert problems(good, rc=3) == []
    for key, value in (("n_b", -abs(good["n_b"])), ("n_ex", abs(good["n_ex"])),
                       ("quad_error", math.nan),
                       ("discrepancy", 1.0 + good["discrepancy"])):
        bad = copy.deepcopy(good)
        bad[key] = value
        assert problems(bad), key
    verify_out = [{"name": "x", "status": "fail", "measured": 1.0, "tolerance": 0.5}]
    assert gate.check("verify", 1, json.dumps(verify_out), {}) == ["exit code 1"]
    assert gate.check("verify", 0, json.dumps(verify_out), {})
    verify_out[0].update(status="pass", tolerance=math.inf)
    assert gate.check("verify", 0, json.dumps(verify_out), {}) == []
