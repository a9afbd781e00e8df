"""End-to-end and per-layer benchmark of the emb7 command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `emb7` is imported from `src/`.
One closed-loop client runs a fixed, seeded op list one op after another
in this process.  Each op is one or more in-process `emb7.cli.main(argv)`
calls whose stdout is captured, parsed and checked against an answer known
by construction (see workloads.py).  Work per run is fixed by the seed and
`--seconds`; the op list is sized to take about that long.

With `--trace 0` the last stdout line reports the end-to-end metrics:
ops_per_s and op_p50_ms at reference speed (see `Speed`), correct_ratio,
setup_s (median over fresh interpreters of import plus input generation,
at reference speed) and peak_rss_mb.  With `--trace 1` the same list
runs with the tracer of tracer.py installed and the last line reports
per-layer metrics in raw seconds.  The line before the result is an `info`
record: environment, op count, the latency tail at reference speed when
the run has at least 100 ops, the set-up probes and the raw wall-clock
figures.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 9
SAMPLE_S = 0.2
REF_SHAPE = (2000, 7, 7)  # batched 7x7 determinants, as in the kernel
# The reference time that defines "reference speed": about the median on
# a 2-core x86 VM (OpenBLAS 0.3.31, numpy 2.4).
NOMINAL_REF_S = 1.5e-3
# wall time of a fresh interpreter importing numpy, the set-up reference
NOMINAL_IMPORT_REF_S = 0.12
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_TAIL_OPS = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus input generation")
    return p.parse_args(argv)


def import_cli():
    """Import emb7.cli from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import emb7.cli
    origin = os.path.dirname(os.path.abspath(emb7.cli.__file__))
    if origin != os.path.join(SRC, "emb7"):
        sys.exit(f"perfbench: emb7 was imported from {origin}, not {SRC}")
    return emb7.cli


def setup(args, workdir):
    """Import the program and build the op list; returns (cli, ops, s)."""
    t0 = time.perf_counter()
    cli = import_cli()
    ops = workloads.build(args.workload, args.seed, args.seconds, workdir)
    return cli, ops, time.perf_counter() - t0


def probe_setup(args) -> list:
    """Set-up time in fresh interpreters, one after another, each as
    (seconds, seconds at reference speed).

    Set-up is mostly loading numpy, whose cost follows the state of the
    VM's memory as well as its CPU: on a 2-core VM the same import ran 20%
    faster after a process that touched 1.6 GB had exited.  So right after
    each probe a fresh interpreter imports numpy alone, and the probe is
    scaled by NOMINAL_IMPORT_REF_S / the wall time of that interpreter.
    Across such a change the scaled median moved by 2-5%, and by 9-15%
    with stdlib imports as the reference; a pure-Python reference timed
    inside the probe did not follow it at all.
    The reference never loads emb7, so a change to the program's import or
    to input generation moves setup_s as it moves raw time.
    """
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        setup_s = json.loads(out.stdout.splitlines()[-1])["setup_s"]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"],
                       cwd=ROOT, timeout=120, check=True)
        ref_s = time.perf_counter() - t0
        samples.append((setup_s, setup_s * NOMINAL_IMPORT_REF_S / ref_s))
    return samples


def invoke(main, argv):
    """One CLI call; returns (start, end, exit code, payload or None)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    t1 = time.perf_counter()
    lines = buf.getvalue().splitlines()
    payload = None
    if len(lines) == 1:
        try:
            payload = json.loads(lines[0])
        except json.JSONDecodeError:
            pass
    return t0, t1, code, payload if isinstance(payload, dict) else None


class Speed:
    """How fast the machine runs, sampled every SAMPLE_S while ops run.

    On a shared VM the speed of the host drifts by +-30% over tens of
    seconds, far longer than any affordable run, so raw wall times spread
    across runs however long each run is.  A timer signal runs a fixed
    reference computation, owned by the benchmark, between the program's
    bytecodes and numpy calls, also inside an op.  Times are reported at
    reference speed: each interval is scaled by NOMINAL_REF_S / (reference
    time sampled within it, or next to it when it holds no sample), and the
    sampling time is taken out first.  The program never runs this code, so
    a change to the program moves scaled times as it moves raw ones.
    Set-up is scaled by another reference (see `probe_setup`): loading
    libraries does not follow this one.
    """

    def __init__(self, timer: bool):
        import numpy as np
        self._det = np.linalg.det
        self._a = np.random.default_rng(0).random(REF_SHAPE)
        self._det(self._a)  # first call pages in LAPACK
        self.timer = timer
        self.at = []  # sample start times
        self.took = []  # sample durations

    def sample(self, *_):
        t0 = time.perf_counter()
        self._det(self._a)
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _within(self, a, b) -> tuple:
        return bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)

    def busy(self, a, b) -> float:
        """Time spent sampling within [a, b]."""
        lo, hi = self._within(a, b)
        return sum(self.took[lo:hi])

    def factor(self, a, b) -> float:
        """Mean of NOMINAL_REF_S / reference time over [a, b]."""
        lo, hi = self._within(a, b)
        took = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return statistics.fmean(NOMINAL_REF_S / t for t in took)


@dataclass
class Run:
    times: list = field(default_factory=list)  # op latencies (s)
    scaled: list = field(default_factory=list)  # the same at reference speed
    wall: float = 0.0
    scaled_wall: float = 0.0
    failed: int = 0
    residual: float = 0.0  # largest residual reported


def run_op(main, op, run: Run, speed: Speed) -> bool:
    """Run one op's calls in order, adding its time in emb7 to `run`."""
    spent = scaled = 0.0
    ok = True
    for call in op.calls:
        try:
            t0, t1, code, payload = invoke(main, call.argv)
        except Exception as exc:  # an op that raises counts as failed
            print(f"perfbench: {call.argv[:2]} raised {exc!r}",
                  file=sys.stderr)
            ok = False
            break
        dt = t1 - t0 - speed.busy(t0, t1)
        spent += dt
        scaled += dt * speed.factor(t0, t1)
        if payload is None or not call.check(code, payload):
            if ok:
                print(f"perfbench: wrong answer from {call.argv[:4]}: "
                      f"exit {code}, {payload!r:.200}", file=sys.stderr)
            ok = False
        elif isinstance(payload.get("residual"), float):
            run.residual = max(run.residual, payload["residual"])
    run.times.append(spent)
    run.scaled.append(scaled)
    return ok


def run_ops(main, ops, speed: Speed) -> Run:
    run = Run()
    start = time.perf_counter()
    for op in ops:
        run.failed += not run_op(main, op, run, speed)
    end = time.perf_counter()
    run.wall = end - start - speed.busy(start, end)
    run.scaled_wall = run.wall * speed.factor(start, end)
    return run


def tail(times):
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(times)
    if n < MIN_TAIL_OPS:
        return None
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        beyond = int(n * (1 - pct / 100))
        if beyond >= 10:
            return {"percentile": pct, "ms": ordered[n - beyond - 1] * 1e3,
                    "samples_beyond": beyond}
    return None


def blas_record() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "threads": None}
    try:  # thread count in effect, read from the loaded OpenBLAS
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    record["threads"] = int(fn())
                    return record
    except OSError:
        pass
    return record


def environment(args) -> dict:
    import emb7.linking
    return {
        "nproc": os.cpu_count(),
        "blas": blas_record(),
        "python": platform.python_version(),
        "have_compiled": getattr(emb7.linking, "HAVE_COMPILED", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emb7", "cli.py")):
        sys.exit(f"perfbench: no emb7 sources under {SRC}")
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        cli, ops, setup_s = setup(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        info = {"env": environment(args), "ops": len(ops)}
        if args.trace:
            import tracer
            cost = tracer.calibrate()
            t = tracer.Tracer()
            t.install()
        # no timer in the traced run: its samples would land in the spans
        speed = Speed(timer=not args.trace)
        probes = None if args.trace else probe_setup(args)
        with speed:
            run = run_ops(cli.main, ops, speed)
        if args.trace:
            values = t.metrics(run.times, run.residual, cost)
            metrics = {name: metric(value, unit_of(name))
                       for name, value in values.items()}
            info["share_of_op_s"] = {
                name: value / values["trace.op_s"]
                for name, value in values.items()
                if name.endswith("_s") and not name.endswith("_per_s")
                and name != "trace.op_s"}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "ops_per_s": metric(len(ops) / run.scaled_wall, "1/s"),
                "op_p50_ms": metric(statistics.median(run.scaled) * 1e3,
                                    "ms"),
                "correct_ratio": metric((len(ops) - run.failed) / len(ops),
                                        "ratio"),
                "setup_s": metric(statistics.median(p[1] for p in probes),
                                  "s"),
                "peak_rss_mb": metric(rss_mb, "MB"),
            }
            info["setup_samples_s"] = [p[0] for p in probes]
        info["raw"] = {"ops_per_s": len(ops) / run.wall,
                       "op_p50_ms": statistics.median(run.times) * 1e3,
                       "wall_s": run.wall,
                       "ref_ms": statistics.median(speed.took) * 1e3}
        info["tail"] = tail(run.scaled)
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": run.failed == 0, "attempted": len(ops),
                          "failed": run.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_bound", "_max")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
