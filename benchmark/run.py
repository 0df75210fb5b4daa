"""Benchmark of the exact atlas pipeline of wordcones.

    python3 benchmark/run.py --workload atlas4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  One process, one caller, a closed loop:
each operation starts when the previous one has finished and been checked.

``--trace 0`` times the set-up (several times, median) and then operations
for ``--seconds`` seconds, and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of operations, each one plain and then with a span
around every call into the traced library functions (see tracing.py), and
prints the per-layer metrics; the spans are written to ``.bench_out/``.
Every operation's output is checked in both modes.

Stdout: one JSON line with the environment and run details, then the result
as the last line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from array import array

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "ops_per_s_norm": "1/s", "peak_rss_mib": "MiB"}
PER_LAYER = {name: unit for name, unit, _ in tracing.metric_names()}
DEFAULT_SEED = 1
MAX_ERRORS_SHOWN = 5


def _import_library():
    """Import wordcones from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "wordcones", "__init__.py")):
        sys.exit(f"benchmark: no wordcones sources under {SRC}")
    sys.path.insert(0, SRC)
    import wordcones
    if os.path.dirname(os.path.dirname(os.path.abspath(wordcones.__file__))) != SRC:
        sys.exit(f"benchmark: wordcones was imported from {wordcones.__file__}")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    import hashlib
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wordcones")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "loadavg_start": _read("/proc/loadavg"),
    }


def _declared_metrics(trace: bool) -> dict[str, str] | None:
    text = _read(os.path.join(ROOT, "BENCHMARK.json"))
    if text is None:
        return None
    spec = json.loads(text)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Outcomes:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload, state, inp, sampler=None):
        """One operation, timed; returns (wall_ns, cpu_ns), less the time of
        the reference samples taken inside it when a sampler is running."""
        self.attempted += 1
        # a sample read as inside lies between the two clock readings
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        s0 = sampler.ns if sampler else 0
        try:
            out = workload.op(state, inp)
        except Exception as exc:  # a raising operation is a failed one
            out, bad = None, f"{type(exc).__name__}: {exc}"
        else:
            bad = None
        sampled = (sampler.ns if sampler else 0) - s0
        t1, c1 = time.perf_counter_ns(), time.process_time_ns()
        if bad is None:
            bad = workload.check(state, inp, out)
        if bad:
            self._fail(bad)
        return t1 - t0 - sampled, c1 - c0 - sampled

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)


def _set_up(workload, seed: int, outcomes: Outcomes):
    """One timed set-up, checked; returns (state, seconds)."""
    t0 = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - t0
    bad = workload.check_setup(state)
    if bad:
        outcomes.errors.append(f"set-up: {bad}")
    return state, elapsed


def _tenths(values, k: int) -> float:
    """The k-th decile (k = 1..9) of the values, interpolated between them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def run_untraced(workload, seed: int, seconds: float, outcomes: Outcomes, info: dict):
    wrappers = tracing.installed_wrappers()
    state, first = _set_up(workload, seed, outcomes)
    setups = [first]
    # The other set-ups are spread evenly over the run, between operations, so
    # that they meet the same machine as the operations do.  Loop time spent in
    # them does not count towards --seconds, and no reference sample is taken
    # in them.
    due = [seconds * i / (workload.setup_repeats - 1)
           for i in range(1, workload.setup_repeats)]
    inputs = workload.inputs(state)
    walls, cpus = array("q"), array("q")
    sampler = reference.Sampler()
    start, paused = time.perf_counter(), 0.0
    sampler.start()
    try:
        while not walls or time.perf_counter() - start - paused < seconds:
            wall, cpu = outcomes.run(workload, state, next(inputs), sampler)
            walls.append(wall)
            cpus.append(cpu)
            while due and time.perf_counter() - start - paused >= due[0]:
                due.pop(0)
                t0 = time.perf_counter()
                sampler.stop()
                setups.append(_set_up(workload, seed, outcomes)[1])
                sampler.start()
                paused += time.perf_counter() - t0
    finally:
        sampler.stop()
    for _ in due:
        setups.append(_set_up(workload, seed, outcomes)[1])
    # read before the deciles below sort copies of the per-op times
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrappers += tracing.installed_wrappers()
    ops_per_s = len(walls) / (sum(walls) / 1e9)
    scale = sampler.scale()
    info.update(
        setup_s_each=setups, ops=len(walls), wrappers_installed=wrappers,
        ops_per_s=ops_per_s, reference_ms=scale * reference.NOMINAL_S * 1e3,
        reference_samples=sampler.count,
        op_ms_p10=_tenths(walls, 1) / 1e6,
        op_ms_p50=_tenths(walls, 5) / 1e6,
        op_cpu_ms_p10=_tenths(cpus, 1) / 1e6,
        op_cpu_ms_p50=_tenths(cpus, 5) / 1e6)
    if len(walls) >= 100:  # p90 has at least ten samples beyond it
        info["op_ms_p90"] = _tenths(walls, 9) / 1e6
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s_norm": ops_per_s * scale,
        "peak_rss_mib": peak_rss_mib,
    }
    return metrics, wrappers == 0


def run_traced(workload, seed: int, outcomes: Outcomes, info: dict):
    state = _set_up(workload, seed, outcomes)[0]
    tracer = tracing.Tracer()
    # each input runs plain and then traced, back to back, so that both see
    # the same machine and their difference is the tracing overhead
    plain = traced = 0
    for op, inp in enumerate(itertools.islice(workload.inputs(state), workload.traced_ops)):
        plain += outcomes.run(workload, state, inp)[0]
        tracer.op = op
        with tracer:
            traced += outcomes.run(workload, state, inp)[0]
    wrappers = tracing.installed_wrappers()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update({
        "trace.ops": workload.traced_ops,
        "trace.untraced_s": plain / 1e9,
        "trace.overhead_s": (traced - plain) / 1e9,
        "trace.overhead_frac": (traced - plain) / plain,
    })
    counts = {name: value for name, value in metrics.items()
              if PER_LAYER[name] == "count" and not name.startswith("trace.")}
    info.update(spans=len(tracer.spans), wrappers_left=wrappers, counts=counts,
                **_compare_baseline(workload.name, seed, counts))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed})
    info["spans_file"] = os.path.relpath(path, ROOT)
    return metrics, wrappers == 0


def _compare_baseline(workload: str, seed: int, counts: dict) -> dict:
    """Counts against benchmark/baseline.json.  Reported, never a gate: a
    change that issues fewer LPs is exactly what later work aims for."""
    text = _read(os.path.join(HERE, "baseline.json"))
    recorded = json.loads(text)["counts"].get(workload, {}).get(str(seed)) if text else None
    if recorded is None:
        return {"counts_match_baseline": None}
    changed = {k: [recorded.get(k), v] for k, v in counts.items() if recorded.get(k) != v}
    return {"counts_match_baseline": not changed, "counts_changed": changed}


def main(argv=None) -> int:
    _import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    env = _environment()
    info: dict = {"workload": workload.name, "size": workload.size, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
    outcomes = Outcomes()
    if args.trace:
        metrics, ok = run_traced(workload, args.seed, outcomes, info)
        units = PER_LAYER
    else:
        metrics, ok = run_untraced(workload, args.seed, args.seconds, outcomes, info)
        units = END_TO_END
    env["loadavg_end"] = _read("/proc/loadavg")
    info["fail_ratio"] = outcomes.failed / outcomes.attempted
    info["errors"] = outcomes.errors
    print(json.dumps({"env": env, "run": info}))

    declared = _declared_metrics(bool(args.trace))
    if declared is not None and declared != {n: units[n] for n in metrics}:
        sys.exit("benchmark: printed metrics differ from those BENCHMARK.json declares")
    result = {
        "correct": ok and outcomes.failed == 0 and not outcomes.errors,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
