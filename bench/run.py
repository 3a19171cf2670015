"""fermigas benchmark: fixed CLI workloads, timed end to end, checked.

Usage (from the repository root):

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload energy_kf3 --seed 1 --seconds 20 --trace 1

Every operation is one ``fermigas`` CLI command, run through
``fermigas.cli.main`` in a fresh worker process (one at a time, with
FERMIGAS_THREADS=1 and OPENBLAS_NUM_THREADS=1).  A run repeats the
workload's round of commands until ``--seconds`` have passed, then
finishes the round.  Times are rescaled to a reference host speed from
samples the worker takes meanwhile (``at_ref_speed``).  ``--trace 0``
reports the end-to-end metrics;
``--trace 1`` runs untraced rounds for half the time and traced rounds
for the other half, and reports the per-layer metrics.  Every output
goes through the correctness gate in ``gate.py``.  The last line of
stdout is one JSON object; a full record with the environment is
written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 4
OP_TIMEOUT_S = 150
THREAD_VARS = ("FERMIGAS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MAX_METRICS = {"momentum.route_gap_rel.max", "energy.k_cutoff", "energy.tail_rel"}
# Time of one worker speed sample (SpeedProbe) at the reference host
# speed: about the lowest mean of an operation's samples on the shared
# 2.1 GHz Xeon host where the benchmark was built.  It only sets the
# scale of the reported times.
SPEED_REF_S = 3.0e-4


class SetupError(RuntimeError):
    """The package could not be imported or set up in a worker."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["FERMIGAS_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def sample_mean(samples: list[float]) -> float:
    """Mean of speed samples.  A sample above twice the median was
    interrupted (the host is never that much slower), so it counts as
    twice the median."""
    clip = 2.0 * statistics.median(samples)
    return statistics.fmean(min(x, clip) for x in samples)


def at_ref_speed(seconds: float, samples: list[float]) -> float:
    """``seconds`` rescaled to the reference host speed.

    ``samples`` are speed samples taken while the timed work ran.  The
    host is shared and its speed changes by up to half within seconds;
    scaling by the samples' mean removes that from the result.
    """
    return seconds * SPEED_REF_S / sample_mean(samples)


def spawn(argv: list[str], k_f: float, trace: bool, setup_only: bool) -> dict:
    """Run one worker to completion; its record plus set-up time."""
    spec = json.dumps({"argv": argv, "k_f": k_f, "trace": trace,
                       "setup_only": setup_only})
    start = time.monotonic()
    # A worker that dies reports no speed samples; its raw time stands in.
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), spec],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        if setup_only:
            raise SetupError("set-up timed out")
        return {"rc": None, "error": f"timed out after {OP_TIMEOUT_S} s",
                "stdout": "", "wall_s": float(OP_TIMEOUT_S),
                "own_s": float(OP_TIMEOUT_S), "wall_ref_s": float(OP_TIMEOUT_S),
                "setup_s": None}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        if setup_only:
            raise SetupError(proc.stderr.strip() or f"worker exit {proc.returncode}")
        wall = time.monotonic() - start
        return {"rc": None, "error": proc.stderr[-2000:], "stdout": "",
                "wall_s": wall, "own_s": wall, "wall_ref_s": wall, "setup_s": None}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - start
    if trace:
        record["own_s"] = record.get("wall_s")
        return record
    # Own time leaves out the sampling itself.
    setup = record.pop("setup_speed_s")
    ready = record.pop("ready_speed_s")
    record["setup_ref_s"] = at_ref_speed(record["setup_s"] - sum(setup),
                                         setup + ready)
    if not setup_only:
        samples = record.pop("op_speed_s")
        record["own_s"] = record["wall_s"] - sum(samples)
        record["wall_ref_s"] = at_ref_speed(record["own_s"], ready + samples)
        record["speed_samples"] = len(samples)
        record["speed_mean_s"] = sample_mean(ready + samples)
    return record


def run_rounds(workload: Workload, ops, trace: bool, budget: float,
               reference: dict, first_output: dict) -> list[list[dict]]:
    """Repeat the round until ``budget`` seconds have passed; gate every op.

    ``first_output`` maps op id to the (exit code, stdout) of its first
    run; every later run of the op, traced or not, must print the same.
    """
    start = time.monotonic()
    rounds = []
    while True:
        records = []
        for op_id, argv in ops:
            rec = spawn(argv, workload.k_f, trace, setup_only=False)
            rec["op"], rec["traced"] = op_id, trace
            problems = gate.check(argv[0], rec["rc"], rec["stdout"],
                                  reference[op_id])
            if rec.get("error"):
                problems.insert(0, rec["error"].strip().splitlines()[-1])
            seen = first_output.setdefault(op_id, (rec["rc"], rec["stdout"]))
            if seen != (rec["rc"], rec["stdout"]):
                problems.append("output differs from the untraced output"
                                if trace else "output differs between runs")
            rec["problems"] = problems
            del rec["stdout"]
            records.append(rec)
        rounds.append(records)
        if time.monotonic() - start >= budget:
            return rounds


def round_wall(records) -> float:
    return sum(r["own_s"] for r in records)


def setups(probes: list[dict], rounds) -> list[dict]:
    """Every untraced worker whose set-up completed."""
    return probes + [r for rnd in rounds for r in rnd if "setup_ref_s" in r]


def end_to_end(probes: list[dict], rounds) -> dict[str, tuple[float, str]]:
    ops = [r for rnd in rounds for r in rnd]
    rss = [r["maxrss_kb"] for r in ops if "maxrss_kb" in r]
    # The mean over ops, not the median: over ten runs it spread less on
    # two workloads and about as much on the other two.
    return {
        "wall_s": (statistics.fmean(r["wall_ref_s"] for r in ops), "s"),
        "setup_s": (statistics.median(r["setup_ref_s"]
                                      for r in setups(probes, rounds)), "s"),
        "peak_rss_mb": (max(rss) / 1024.0 if rss else 0.0, "MB"),
    }


def per_layer(untraced, traced) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Median over traced rounds of each metric's per-round total."""
    per_round = []
    absent: set[str] = set()
    for records in traced:
        totals: dict[str, float] = {}
        for rec in records:
            absent.update(rec.get("absent", ()))
            for name, value in rec.get("layers", {}).items():
                prev = totals.get(name, 0.0)
                totals[name] = max(prev, value) if name in MAX_METRICS else prev + value
        per_round.append(totals)
    out = {name: (statistics.median(t.get(name, 0.0) for t in per_round), unit)
           for name, (unit, _) in spans.METRICS.items()}
    overhead = (statistics.median(map(round_wall, traced))
                - statistics.median(map(round_wall, untraced)))
    out["trace_overhead_s"] = (overhead, "s")
    return out, sorted(absent)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    ops = workload.round(seed)
    probes = [spawn(ops[0][1], workload.k_f, False, setup_only=True)
              for _ in range(SETUP_PROBES)]
    first_output: dict = {}
    budget = seconds / 2.0 if trace else seconds
    untraced = run_rounds(workload, ops, False, budget, reference, first_output)
    traced = (run_rounds(workload, ops, True, budget, reference, first_output)
              if trace else [])
    records = [r for rnd in untraced + traced for r in rnd]
    plain = [r for rnd in untraced for r in rnd]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "ops": [{k: r.get(k) for k in ("op", "traced", "rc", "wall_s", "own_s",
                                       "wall_ref_s", "setup_s", "setup_ref_s",
                                       "speed_samples", "speed_mean_s",
                                       "cpu_s", "maxrss_kb",
                                       "problems")}
                for r in records],
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "unconverged": sum(r["rc"] == 3 for r in records),
        "end_to_end": end_to_end(probes, untraced),
        "raw": {"wall_mean_s": statistics.fmean(r["own_s"] for r in plain),
                "wall_median_s": statistics.median(r["own_s"] for r in plain),
                "setup_median_s": statistics.median(r["setup_s"] for r in
                                                    setups(probes, untraced))},
        "samples": {"untraced_ops": len(plain),
                    "traced_ops": sum(map(len, traced)),
                    "traced_rounds": len(traced),
                    "setups": len(setups(probes, untraced))},
    }
    if trace:
        result["per_layer"], result["absent"] = per_layer(untraced, traced)
    return result


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """Where and with what the numbers were measured."""
    import numpy
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fermigas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_table(result: dict) -> None:
    n = result["samples"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  ops {result['attempted']}  "
          f"failed {result['failed']}  unconverged {result['unconverged']}")
    raw = result["raw"]
    notes = {"wall_s": f"mean of {n['untraced_ops']} ops at reference speed; "
                       f"raw mean {raw['wall_mean_s']:.6g} s, "
                       f"median {raw['wall_median_s']:.6g} s",
             "setup_s": f"median of {n['setups']} worker set-ups at reference "
                        f"speed; raw {raw['setup_median_s']:.6g} s",
             "peak_rss_mb": "max over workers"}
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {notes[name]}")
    print(f"  {'fail_ratio':<30} {result['failed'] / result['attempted']:>14.6g} "
          f"{'ratio':<6} {result['failed']}/{result['attempted']} ops failed")
    for name, (value, unit) in result.get("per_layer", {}).items():
        mark = "  (absent)" if name in result.get("absent", ()) else ""
        print(f"  {name:<30} {value:>14.6g} {unit:<6} "
              f"per round, median of {n['traced_rounds']} traced rounds{mark}")
    for rec in result["ops"]:
        for problem in rec["problems"]:
            print(f"  FAILED {rec['op']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fermigas" / "__init__.py").is_file():
        print(f"error: no fermigas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = gate.load_reference()
    try:
        results = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace), reference[name])
                   for name in names]
    except SetupError as exc:
        print(f"error: worker set-up failed: {exc}", file=sys.stderr)
        return 2

    env = environment()
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    for result in results:
        result["environment"] = env
        print_table(result)
        path = results_dir / (f"{result['workload']}-seed{args.seed}"
                              f"-trace{args.trace}.json")
        path.write_text(json.dumps(result, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, (value, unit) in result[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
