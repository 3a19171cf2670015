import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fermigas.cli import build_parser, main, parse_potential, parse_vec

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_vec():
    assert parse_vec("1,0,-2") == (1, 0, -2)
    from fermigas.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_vec("1,0")
    with pytest.raises(ConfigError):
        parse_vec("1,a,0")


def test_parse_potential_kinds(tmp_path):
    assert parse_potential("coulomb:g=2").g == 2.0
    pot = parse_potential("yukawa:g=1,mu=0.5")
    assert pot.mu == 0.5
    assert parse_potential("zero").kind == "zero"
    path = tmp_path / "t.txt"
    path.write_text("1 0 0 1.0\n-1 0 0 1.0\n")
    assert parse_potential(f"table:{path}").kind == "table"


def test_lattice_info(capsys):
    code, out = run_cli(capsys, "lattice-info", "--kf", "1")
    assert code == 0
    data = json.loads(out)
    assert data["n_particles"] == 7 and data["kappa"] == 1.5


def test_lune_csv_has_five_rows(capsys):
    code, out = run_cli(capsys, "lune", "--kf", "1", "--k", "1,0,0",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "px,py,pz,lambda"
    assert len(lines) == 6
    assert lines[-1] == "2,0,0,1.5"


def test_momentum_both_routes(capsys):
    code, out = run_cli(capsys, "momentum", "--kf", "1", "--xi", "1,1,0",
                        "--potential", "coulomb:g=1", "--route", "both")
    assert code == 0
    data = json.loads(out)
    assert data["n_b_spectral"] > 0 and data["n_b_integral"] > 0
    assert data["discrepancy"] < 1e-10
    assert data["n_ex"] < 0
    assert data["n_total"] == data["n_b"] + data["n_ex"]


def test_momentum_deterministic_across_runs(capsys):
    args = ("momentum", "--kf", "1", "--xi", "2,0,0",
            "--potential", "coulomb:g=1", "--route", "both")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_momentum_sum_delta(capsys):
    code, out = run_cli(capsys, "momentum-sum", "--kf", "1",
                        "--potential", "coulomb:g=1",
                        "--observable", "delta:2,0,0", "--route", "spectral")
    assert code == 0
    data = json.loads(out)
    assert len(data["per_xi"]) == 2
    assert data["value"] == pytest.approx(
        sum(r["n_total"] for r in data["per_xi"]))


def test_energy_json(capsys):
    code, out = run_cli(capsys, "energy", "--kf", "1",
                        "--potential", "coulomb:g=1",
                        "--k-max", "4", "--tail-tol", "1e-3")
    assert code in (0, 3)
    data = json.loads(out)
    assert data["e_fs_kinetic"] == 6.0
    assert data["e_corr_bos"] < 0 < data["e_corr_ex"]


def test_verify_exit_zero_and_json(capsys):
    code, out = run_cli(capsys, "verify", "--kf", "1",
                        "--potential", "coulomb:g=1")
    assert code == 0
    data = json.loads(out)
    assert all(r["status"] != "fail" for r in data)


def test_dv_compare_csv_header(capsys):
    code, out = run_cli(capsys, "dv-compare", "--kf", "1",
                        "--potential", "coulomb:g=1", "--xi-list", "2,0,0",
                        "--samples", "20000", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,n_b_disc,n_ex_disc,n_b_dv,n_ex_dv,ratio_b,ratio_ex"
    assert len(lines) == 2


def test_config_error_exit_2(capsys):
    code, _ = run_cli(capsys, "energy", "--kf", "1",
                      "--potential", "bogus:g=1")
    assert code == 2
    code, _ = run_cli(capsys, "momentum", "--kf", "1", "--xi", "1,1",
                      "--potential", "coulomb:g=1")
    assert code == 2


def test_non_finite_kf_exit_2(capsys):
    for kf in ("inf", "nan"):
        assert main(["lattice-info", "--kf", kf]) == 2
        assert "k_f must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("momentum", "--xi", "1,1,0", "--route", "both", "--quad-tol", "nan"),
     "tol must be positive"),
    (("momentum", "--xi", "0,0,0", "--tail-tol", "-1"),
     "tail_tol must be positive"),
    (("momentum", "--xi", "0,0,0", "--tail-tol", "nan"),
     "tail_tol must be positive"),
    (("energy", "--max-doublings", "-2"), "max_doublings nonnegative"),
    (("energy", "--quad-tol", "0", "--potential", "zero"),
     "quad_tol must be positive and finite"),
    (("energy", "--quad-tol", "inf"), "quad_tol must be positive and finite"),
    (("energy", "--tail-tol", "inf"), "tail_tol must be positive and finite"),
    (("energy", "--k-max", "0"), "k_max must be at least 1"),
    (("momentum", "--xi", "0,0,0", "--k-max", "-3"),
     "k_max must be at least 1"),
    (("momentum", "--xi", "2,0,0", "--quad-tol", "0"),
     "quad_tol must be positive and finite"),
    (("momentum-sum", "--observable", "delta:2,0,0", "--route", "spectral",
      "--quad-tol", "-1"), "quad_tol must be positive and finite"),
    (("dv-compare", "--xi-list", "2,0,0", "--seed", "-1"),
     "seed must be >= 0 with shard keys (seed << 8) + i below 2**128"),
    (("dv-compare", "--xi-list", "2,0,0", "--seed", str(2**120)),
     "seed must be >= 0 with shard keys (seed << 8) + i below 2**128"),
    (("dv-compare", "--xi-list", "2,0,0;0,1,0", "--seed", "-1"),
     "comparison point (0, 1, 0) must lie outside the Fermi ball"),
])
def test_bad_numeric_options_exit_2(capsys, argv, message):
    assert main([*argv, "--kf", "1"]) == 2
    assert message in capsys.readouterr().err


def test_verify_rejects_bad_potential_table(capsys, tmp_path):
    path = tmp_path / "asym.txt"
    path.write_text("1 0 0 1.0\n")
    code, _ = run_cli(capsys, "verify", "--kf", "1",
                      "--potential", f"table:{path}")
    assert code == 2


def test_every_subcommand_rejects_negative_potential_table(capsys, tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("1 0 0 -1.0\n-1 0 0 -1.0\n")
    for argv in (("momentum", "--xi", "2,0,0"), ("energy",)):
        assert main([*argv, "--kf", "1", "--potential", f"table:{path}"]) == 2
        assert "violates the hypotheses" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("energy", "--potential", "coulomb:g=inf"), "coupling g must be finite"),
    (("momentum", "--xi", "2,0,0", "--potential", "coulomb:g=nan"),
     "coupling g must be finite"),
    (("energy", "--potential", "yukawa:g=1,mu=inf"),
     "screening mu must be finite"),
])
def test_non_finite_potential_exit_2(capsys, argv, message):
    assert main([*argv, "--kf", "1"]) == 2
    assert message in capsys.readouterr().err


def test_table_keys_beyond_int64_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("10000000000000000000 0 0 1.0\n"
                    "-10000000000000000000 0 0 1.0\n")
    argv = ["energy", "--kf", "1", "--k-max", "2", "--max-doublings", "0",
            "--potential", f"table:{path}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and "2**20 in magnitude" in err


def test_non_finite_tables_exit_2(capsys, tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("1 0 0 inf\n-1 0 0 inf\n")
    for argv in (("momentum", "--xi", "2,0,0", "--potential", f"table:{path}"),
                 ("energy", "--potential", f"table:{path}"),
                 ("momentum-sum", "--observable", f"table:{path}")):
        assert main([*argv, "--kf", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{path}:1: value must be finite" in err


def test_nonconvergence_flag_exit_3(capsys):
    # one doubling from a tiny cutoff cannot reach the default tail target
    code, out = run_cli(capsys, "momentum", "--kf", "1", "--xi", "0,0,0",
                        "--potential", "coulomb:g=1", "--route", "spectral",
                        "--k-max", "2", "--tail-tol", "1e-12",
                        "--max-doublings", "1")
    assert code == 3
    assert not json.loads(out)["converged"]


@pytest.mark.parametrize("argv", [
    ("verify", "--tail-tol", "1e-3"),
    ("lattice-info", "--quad-tol", "1"),
    ("lune", "--k", "1,0,0", "--potential", "zero"),
    ("momentum", "--xi", "1,1,0", "--format", "csv"),
    ("momentum-sum", "--seed", "3"),
    ("energy", "--format", "csv"),
    ("dv-compare", "--xi-list", "2,0,0", "--quad-tol", "1e-9"),
    ("dv-compare", "--xi-list", "2,0,0", "--k-max", "4"),
])
def test_dropped_options_exit_2(capsys, argv):
    # each subcommand takes only the options it reads
    assert main([*argv, "--kf", "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("fermigas ")]


def _bench_commands(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [argv for workload in workloads.WORKLOADS.values()
            for seed in (0, 1, 2) for _, argv in workload.round(seed)]


def test_readme_and_benchmark_commands_parse(monkeypatch):
    assert len(_readme_commands()) == 7
    bench = _bench_commands(monkeypatch)
    assert {argv[0] for argv in bench} == {"energy", "momentum", "dv-compare",
                                           "momentum-sum", "verify"}
    parser = build_parser()
    for argv in _readme_commands() + bench:
        parser.parse_args(argv)



_NO_MASKED_ARRAYS = """
import contextlib, io, json, sys
from fermigas.cli import main
runs = [
    ["momentum", "--kf", "1", "--xi", "2,0,0", "--route", "both"],
    ["dv-compare", "--kf", "1", "--xi-list", "2,0,0;0,2,1", "--samples", "10000"],
    ["energy", "--kf", "1", "--k-max", "2", "--max-doublings", "0"],
    ["momentum-sum", "--kf", "1", "--observable", "ball", "--k-max", "2",
     "--max-doublings", "0"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_cli_ops_do_not_import_numpy_ma():
    # numpy.ma costs import time and resident memory in every fresh CLI process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert all(code in (0, 3) for code in result["codes"]), result
    assert result["numpy.ma"] is False
