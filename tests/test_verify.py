import json

import numpy as np
import pytest

from fermigas.lattice import fermi_ball, lune_points
from fermigas.potential import coulomb, zero
from fermigas.verify import (any_failed, check_cross, check_gap_bound,
                             check_lattice, check_mode, reports_to_json,
                             run_all)


def by_name(reports):
    return {r.name: r for r in reports}


def test_check_lattice_passes_unit_ball():
    reports = by_name(check_lattice(fermi_ball(1.0)))
    for name in ("lattice.gap_lower_bound", "lattice.reflection",
                 "lattice.four_point_gap_identity",
                 "lattice.outside_gap_sum_finite"):
        assert reports[name].status == "pass", name
    assert reports["lattice.gap_power_sum_trend_beta_-1"].status == "diagnostic"
    assert np.isfinite(reports["lattice.inside_gap_sum_trend"].measured)


@pytest.mark.parametrize("k_f", [2.0, 3.0])
def test_check_lattice_passes_larger_balls(k_f):
    assert not any_failed(check_lattice(fermi_ball(k_f)))


def test_gap_check_negative_control_carries_reproducer():
    cfg = fermi_ball(1.0)
    pts, gaps = lune_points((1, 0, 0), cfg)
    bad_gaps = np.array([0.5, 0.5, 0.3, 0.5, 1.5])
    report = check_gap_bound([((1, 0, 0), pts, gaps),
                              ((1, 0, 0), pts, bad_gaps)], cfg.k_f)
    assert report.status == "fail"
    assert report.reproducer is not None
    assert report.reproducer["lambda"] == pytest.approx(0.3)
    assert report.reproducer["k"] == [1, 0, 0]
    assert report.reproducer["p"] == [1, 0, 1]


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 10.0])
def test_check_mode_green_across_couplings(g):
    pot = coulomb(g) if g else zero()
    reports = check_mode(fermi_ball(1.0), pot)
    assert not any_failed(reports)
    names = {r.name for r in reports}
    assert "mode.sandwich_K" in names and "mode.hyperbolic_identity" in names


def test_check_mode_product_trend_records_exponent_readings():
    reports = by_name(check_mode(fermi_ball(1.0), coulomb(1.0)))
    trend = reports["mode.product_entry_bound_trend"]
    assert trend.status == "diagnostic"
    rows = trend.params["rows"]
    assert rows and all("sup_over_vhat_m" in r and "sup_over_vhat_1" in r
                        for r in rows)


def test_check_cross_green():
    for g in (0.5, 1.0, 10.0):
        assert not any_failed(check_cross(fermi_ball(1.0), coulomb(g)))


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 10.0])
def test_full_suite_green_kf2(g):
    pot = coulomb(g) if g else zero()
    assert not any_failed(run_all(fermi_ball(2.0), pot))


def test_run_all_green_and_json_round_trips():
    reports = run_all(fermi_ball(1.0), coulomb(1.0))
    assert not any_failed(reports)
    parsed = json.loads(reports_to_json(reports))
    assert len(parsed) == len(reports)
    assert all(p["status"] in ("pass", "fail", "diagnostic") for p in parsed)
    names = [p["name"] for p in parsed]
    assert names == sorted(names)
