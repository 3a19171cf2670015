"""One benchmark operation in a fresh process.

Usage: python3 worker.py '<json spec>'

The spec holds ``argv`` (one fermigas CLI command), ``k_f``, ``trace``
and ``setup_only``.  Set-up is ``import fermigas`` plus the workload's
inputs (``fermi_ball`` and the parsed argv); then ``fermigas.cli.main``
runs in-process with stdout captured.  The worker prints one JSON line:
the monotonic time at which set-up ended, the exit code, the captured
output, wall and CPU time of the operation, peak RSS and, when traced,
the per-layer metrics.  An untraced worker also reports host-speed
samples (see ``SpeedProbe``) taken during set-up and during the
operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SPEED_INTERVAL_S = 0.025
SPEED_LOOP = 2_500
SPEED_MATRICES = 30
# Samples taken back to back once set-up is done, so that even the
# shortest set-up has a few taken next to it.
READY_SAMPLES = 4


class SpeedProbe:
    """Samples the host's CPU speed while the worker runs.

    The host is shared, and its speed for the same work changes by up to
    half within seconds.  A SIGALRM handler times a fixed kernel every
    SPEED_INTERVAL_S seconds of wall time, so the samples spread evenly
    over set-up and operation, long operations included.  The kernel is
    the two kinds of work the operations do: a pure-Python loop and a
    batch of small symmetric eigensolves.  Each sample takes about 2%
    of the interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        # Fixed entries without numpy.random, whose import would add to
        # set-up time and to peak RSS.
        a = np.sin(np.arange(SPEED_MATRICES * 36.0)).reshape(SPEED_MATRICES, 6, 6)
        self.matrices = a + a.transpose(0, 2, 1)

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(SPEED_LOOP):
            s += i * i % 7
        np.linalg.eigh(self.matrices)
        self.samples.append(time.perf_counter() - t0)

    def burst(self, n: int) -> None:
        """Take ``n`` samples back to back, holding off the timer's signal."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(n):
                self.sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    spec = json.loads(sys.argv[1])
    # Traced workers take no samples, so that layer self times stay clean.
    probe = SpeedProbe()
    if not spec["trace"]:
        probe.start()
    try:
        return run(spec, probe)
    finally:
        probe.stop()


def run(spec: dict, probe: SpeedProbe) -> int:
    import fermigas
    import fermigas.cli as cli
    if Path(fermigas.__file__).resolve().parent != SRC / "fermigas":
        print(f"error: fermigas imported from {fermigas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    fermigas.lattice.fermi_ball(spec["k_f"])
    cli.build_parser().parse_args(spec["argv"])
    ready = time.monotonic()
    during_setup = len(probe.samples)
    if not spec["trace"]:
        probe.burst(READY_SAMPLES)
    before_op = len(probe.samples)
    result = {"ready": ready, "setup_speed_s": probe.samples[:during_setup],
              "ready_speed_s": probe.samples[during_setup:before_op]}
    if not spec["setup_only"]:
        captured = io.StringIO()
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = cli.main(spec["argv"])
        except Exception:
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        probe.stop()
        stdout = captured.getvalue()
        result.update(rc=rc, error=error, stdout=stdout, wall_s=wall, cpu_s=cpu,
                      op_speed_s=probe.samples[before_op:],
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result["layers"], result["absent"] = tracer.metrics(
                {"cli.output_bytes": len(stdout.encode()), "proc.cpu_s": cpu})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
