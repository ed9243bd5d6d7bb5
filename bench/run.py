#!/usr/bin/env python3
"""quiltlab benchmark.

    python3 bench/run.py --workload {sweep,points,closed_form} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; quiltlab is imported from ``src/``.
The set-up phase imports quiltlab, generates the seeded inputs and builds
the solutions and quilts.  With ``--trace 0`` the timed phase runs the
workload's once-per-run operations and then whole rounds until S seconds
have passed, in one process and one thread, with no wrapper installed.
A timer signal samples the host's speed throughout (see ``HostSpeed``),
and the timed figures are reported at a fixed reference speed.  Outputs
are checked after the timed phase.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics; the raw wall-clock figures go to standard error.

With ``--trace 1`` the once-per-run operations and round 0 run under the
span tracer (see spans.py); the last line carries the per-layer metrics,
and the spans are written to ``bench/out/spans-<workload>-seed<N>.npz``.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE0 = _process_age()

# one thread: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


@dataclass
class Record:
    op: tuple
    output: object
    error: str | None
    start: float
    seconds: float      # net of the host-speed samples taken meanwhile


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def plus(self, y):
        return self.x + y


class HostSpeed:
    """Samples the speed of the host during the timed phase.

    The shared host's speed drifts by up to 2x within tens of seconds, and
    process CPU time drifts with wall time, so a raw time says as much about
    the host as about quiltlab.  Every ``PERIOD`` seconds a timer signal runs
    a fixed pure-Python reference kernel, which uses no quiltlab code, in the
    main thread between two bytecodes of the workload, and records when it
    ran and how long it took.  The host's relative speed at a sample is
    ``REF_S`` over the median of the samples within ``WINDOW`` seconds of
    it.  ``at_reference`` multiplies the time of an operation by the mean
    relative speed over the samples within ``WINDOW`` of the operation: the
    time it would have taken on a host on which the kernel takes ``REF_S``.
    For an operation that spans many seconds, as a sweep height does, that
    mean follows the host through the operation, where one median over
    the whole operation would not.  The samples' own time is subtracted
    from the timings they interrupt.

    The kernel mixes float arithmetic, object creation with method calls
    and dict stores, and a heap: host slowdowns moved the arithmetic part
    most like the Herglotz engine and the object part most like the
    closed-form round, and the mix tracked both.
    """

    PERIOD = 0.05
    WINDOW = 1.0
    REF_S = 7e-4    # about the kernel's median time on 2 shared vCPUs

    def __init__(self):
        self.when: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._speed: list[float] | None = None
        self._kernel()     # first call outside the timed phase

    @staticmethod
    def _kernel() -> float:
        acc = 0.0
        for i in range(3000):
            acc += (i * 0.5) % 7.0
        table = {}
        for i in range(600):
            table[i % 37] = _Cell(i).plus(i)
        heap = []
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
        while heap:
            acc += heapq.heappop(heap)[0]
        return acc + len(table)

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t
        self.when.append(t)
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _near(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.when, start - self.WINDOW),
                     bisect.bisect_right(self.when, end + self.WINDOW))

    def at_reference(self, rec: "Record") -> float:
        if self._speed is None:
            self._speed = [
                self.REF_S / statistics.median(self.samples[self._near(t, t)])
                for t in self.when]
        near = self._speed[self._near(rec.start, rec.start + rec.seconds)]
        return rec.seconds * statistics.fmean(near or self._speed)


class _NoSampler:
    spent = 0.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "points", "closed_form"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_quiltlab():
    if not (SRC / "quiltlab" / "__init__.py").is_file():
        print(f"error: no quiltlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import quiltlab
    if Path(quiltlab.__file__).resolve().parent != SRC / "quiltlab":
        print(f"error: imported quiltlab from {quiltlab.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _execute(wl, op, sampler) -> Record:
    spent = sampler.spent
    t = time.perf_counter()
    try:
        output, error = wl.execute(op), None
    except Exception:  # an operation that raises is counted, the run goes on
        output, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t - (sampler.spent - spent)
    return Record(op, output, error, t, seconds)


def timed_phase(wl, seconds: float | None, rounds: int | None = None,
                sampler=_NoSampler()):
    """Once-per-run operations, then whole rounds: until ``seconds`` have
    passed, or exactly ``rounds`` of them.  Returns (records, wall, rounds),
    with the time ``sampler`` took left out of every timing."""
    records = []
    t0 = time.perf_counter()
    for op in wl.once():
        records.append(_execute(wl, op, sampler))
    r = 0
    while True:
        for op in wl.round_ops(r):
            records.append(_execute(wl, op, sampler))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    return records, time.perf_counter() - t0 - sampler.spent, r


def check_records(wl, records):
    """Counts failed operations: one that raised, or whose output fails its
    check.  A failed check also makes the run incorrect."""
    refs = wl.references([rec.op for rec in records if rec.error is None])
    failed = 0
    correct = True
    for rec in records:
        if rec.error is not None:
            failed += 1
            print(f"FAILED {rec.op!r}: raised\n{rec.error}", file=sys.stderr)
            continue
        problems = wl.check(rec.op, rec.output, refs)
        if problems:
            failed += 1
            correct = False
            print(f"FAILED {rec.op!r}: " + "; ".join(problems),
                  file=sys.stderr)
    return correct, failed


def _metric_table(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def end_to_end(wl, records, wall: float, rounds: int, speed: HostSpeed,
               setup_s: float, peak_rss_mb: float) -> dict:
    """Times at the reference host speed: the operations' time per round,
    and the median time of the workload's main operation."""
    main = [rec for rec in records if rec.op[0] == wl.main_kind]
    raw_p50_ms = statistics.median(rec.seconds for rec in main) * 1e3
    print(f"raw wall_s per round {wall / rounds:.6g}, raw op_p50_ms "
          f"{raw_p50_ms:.6g}, median kernel sample "
          f"{statistics.median(speed.samples) * 1e3:.4g} ms of "
          f"{len(speed.samples)}", file=sys.stderr)
    return {"setup_s": setup_s,
            "wall_ref_s": sum(map(speed.at_reference, records)) / rounds,
            "op_p50_ref_ms":
                statistics.median(map(speed.at_reference, main)) * 1e3,
            "peak_rss_mb": peak_rss_mb}


def traced(wl, workload: str, seed: int):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        records, _, _ = timed_phase(wl, None, rounds=1)
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    return records, tracer.layer_metrics()


def main(argv=None) -> int:
    args = _parse(argv)
    _import_quiltlab()
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = _AGE0 + (time.perf_counter() - _T0)
        if args.trace:
            records, values = traced(wl, args.workload, args.seed)
            table = _metric_table("per_layer")
        else:
            sampler = HostSpeed()
            with sampler:
                records, wall, rounds = timed_phase(wl, args.seconds,
                                                    sampler=sampler)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = end_to_end(wl, records, wall, rounds, sampler,
                                setup_s, peak)
            table = _metric_table("end_to_end")
        correct, failed = check_records(wl, records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
