"""Run one aekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train|score|prepare|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``
of the checkout this file sits in; without it the run fails before
measuring.  A run sets up the workload several times (``setup_s`` is
their median), computes its correctness oracles, then repeats ops until
``--seconds`` have passed and checks every op's outputs.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced ops alternate; the
traced ones give the per-layer metrics and the two together give
``trace.overhead_ratio``.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.  ``--workload all``
runs each workload in turn in a child process.

Scratch files go to ``.perfbench_work/`` (removed at exit) and span
dumps of traced runs to ``.perfbench_out/``, both under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0
# One BLAS thread: the pipeline's worker threads, not BLAS spin-waits,
# decide how the two-core budget is used, and op times vary less.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (name, unit): the JSON carries END_TO_END; the two counts that can be 0
# are printed beside them.  error_ratio is failed / attempted.
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("papers_per_s", "papers/s"), ("peak_rss_mb", "MiB"))
PRINTED_ONLY = (("http_requests_per_paper", "requests/paper"), ("error_ratio", "fraction"))
WORKLOAD_NAMES = ("train", "score", "prepare")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_ops(wl, work: Path, seconds: float, trace: bool):
    """Ops until `seconds` have passed; traced runs alternate untraced/traced."""
    from fakeserver import ServerCounters
    from tracing import SpanStore, patched

    store = SpanStore()
    untraced, traced, cpu = [], [], []
    counts = ServerCounters()
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        is_traced = trace and i % 2 == 1
        out = work / f"op{i}"
        out.mkdir(parents=True)
        store.op = i
        gc.collect()
        before = wl.counters()
        if is_traced:
            with patched(store):
                t0 = time.perf_counter()
                result = wl.op(out, store)
                dt = time.perf_counter() - t0
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            result = wl.op(out, None)
            dt = time.perf_counter() - t0
            cpu.append(time.process_time() - c0)
        delta = wl.counters() - before
        (traced if is_traced else untraced).append(dt)
        if is_traced:
            counts = counts + delta
        n_failed, op_problems = wl.check(out, result)
        attempted += wl.papers_per_op
        failed += n_failed
        problems += [f"op {i}: {p}" for p in op_problems]
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return untraced, cpu, traced, store, counts, delta, attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, int]:
    import tracing
    import workloads

    os.environ[workloads.TOKEN_ENV] = workloads.dummy_token(seed)
    wl = workloads.WORKLOADS[name](seed, workloads.dummy_token(seed))
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN or (sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX):
        # Flush earlier writes so that their write-back does not land in
        # the next timed region.
        os.sync()
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(work / f"setup{len(setup_times)}")
        setup_times.append(time.perf_counter() - t0)
    wl.prepare_checks()
    os.sync()
    untraced, cpu, traced, store, counts, last, attempted, failed, problems = _run_ops(
        wl, work / "ops", seconds, trace)
    op_s = statistics.median(untraced)

    print(f"workload {name}  seed {seed}  ops {len(untraced)} untraced, {len(traced)} traced  "
          f"(setups {len(setup_times)}, papers per op {wl.papers_per_op})")
    print("  setup times (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    print("  op times (s): " + " ".join(f"{t:.3f}" for t in untraced)
          + ("  traced: " + " ".join(f"{t:.3f}" for t in traced) if traced else ""))
    print("  op CPU times (s): " + " ".join(f"{t:.3f}" for t in cpu))
    for p in problems[:20]:
        print(f"  CHECK FAILED {p}")
    metrics = {}
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": op_s,
            "papers_per_s": wl.papers_per_op / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "http_requests_per_paper": (last.embed_requests + last.chat_requests) / wl.papers_per_op,
            "error_ratio": failed / attempted,
        }
        for metric, unit in END_TO_END + PRINTED_ONLY:
            print(f"  {metric:<26} {values[metric]:>14.6g} {unit}")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    else:
        layer = tracing.layer_metrics(store.spans, len(traced), wl.papers_per_op, counts,
                                      workloads.classify_reply, tracing.missing_targets())
        layer["trace.overhead_ratio"] = statistics.median(traced) / op_s - 1
        for m in tracing.PER_LAYER:
            value = layer[m.name]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {m.name:<28} {shown:>14} {m.unit}")
        metrics = {m.name: {"value": layer[m.name], "unit": m.unit} for m in tracing.PER_LAYER}
        out = ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.jsonl"
        store.dump(out)
        print(f"  spans -> {out.relative_to(ROOT)}")
    correct = failed == 0 and not problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, (0 if correct else 1)


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"workload {name} FAILED (exit {proc.returncode})")
            status = 1
    print("all workloads passed their checks" if status == 0 else "some workload failed")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "aekit" / "__init__.py").is_file():
        print(f"error: no aekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
