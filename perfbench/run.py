"""odrs-lab benchmark: run one workload, check every report, print metrics.

    python3 perfbench/run.py --workload exact-large --seed 0 --seconds 30 --trace 0

Run it from the root of the repository. The workload runs in this single
process as a closed loop: one client issues the workload's operations back
to back in a fixed order, most of them through `odrs_lab.cli.main` with
stdout captured. Passes over the operations repeat until `--seconds` have
passed (at least MIN_PASSES); each pass after the first imports the package
afresh. `pass_cpu_s` is the median over passes of the pass's CPU time, scaled
by the calibration loop on Python-bound workloads (see CAL_REF_S); `wall_s`,
the median pass in wall time, is printed on the summary line. With
`--trace 1`, one untraced pass is followed by one traced pass, and the
per-layer metrics of the traced pass are printed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A record with the environment, every operation's
report hash and all metrics goes to `.perfbench_out/`.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden")
DEFAULT_SEED = 0
SETUP_SAMPLES = 9  # this process plus eight set-up-only child processes
# The end-to-end metrics of BENCHMARK.json; `wall_s` (raw median pass) and
# `fail_frac` are printed on the summary line only.
END_TO_END = ("setup_s", "pass_cpu_s", "peak_rss_mb")
MIN_PASSES = 2  # so that every operation has more than one time
# Operations are timed in CPU time of this process (time.process_time): on a
# VM, time the host takes the CPU away (steal) shows in wall time but not in
# CPU time. Calibration: a fixed Python loop of CAL_ITERS iterations takes
# about CAL_REF_S of CPU time on an unloaded machine (2-vCPU Xeon VM, Python
# 3.11). Shared hosts also run Python code up to 1.7x slower per instruction
# for stretches longer than a run, so on workloads whose hot path is Python,
# pass CPU times are scaled by CAL_REF_S / (the pass's mean chunk CPU time).
CAL_ITERS = 20_000
CAL_REF_S = 0.005
CAL_EVERY_S = 0.05

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Spans each workload must fire at least once in its traced pass.
EXPECTED_SPANS = {
    "exact-large": ["cli", "instances.load_json", "instances.validate", "instances.dumps",
                    "odrs.optimize_params", "odrs.build_plans", "odrs.BidLawDP.step",
                    "odrs.CompiledOdrs.init", "odrs.CompiledWarmup.init", "crs.balance_ratio",
                    "crs.build_selector", "crs.exact_marginals",
                    "crs.ProductSelector.conditional_win_probs",
                    "exact_engine.edge_match_probs", "bench.monte_carlo_edge_probs"],
    "mc-replay": ["cli", "odrs.build_plans", "odrs.CompiledOdrs.init",
                  "odrs.CompiledWarmup.init", "crs.ProductSelector.init",
                  "crs.ProductSelector.conditional_win_probs", "level_set.step_probability",
                  "bench.monte_carlo_edge_probs", "bench.lb_adversary", "bench.replay",
                  "stochastic.build_lp", "stochastic.simplex_max", "stochastic.eval_vs_lp",
                  "stochastic.exact_threshold_check", "apps.cover_trials"],
    "small-many": ["cli", "instances.load_json", "instances.validate", "instances.dumps",
                   "odrs.optimize_params", "odrs.build_plans", "odrs.BidLawDP.step",
                   "odrs.CompiledOdrs.init", "odrs.CompiledOdrs.sample",
                   "odrs.CompiledWarmup.init", "crs.balance_ratio", "crs.build_selector",
                   "crs.exact_marginals", "crs.ProductSelector.init",
                   "crs.ProductSelector.select", "level_set.step_probability",
                   "level_set.online_step", "exact_engine.edge_match_probs",
                   "exact_engine.rounding_ratio_exact", "stochastic.build_lp",
                   "stochastic.simplex_max", "apps.edge_color_online", "apps.verify_coloring"],
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for set-up samples)")
    ap.add_argument("--write-golden", action="store_true",
                    help="store this run's reports as the golden reports (default seed only)")
    return ap.parse_args(argv)


def pin_threads():
    """Set ODRS_THREADS, clamped to [1, nproc] and 1 when unset; it must be set
    before numpy is imported (odrs_lab.cli reads it at import)."""
    nproc = os.cpu_count() or 1
    try:
        threads = int(os.environ.get("ODRS_THREADS", "1"))
    except ValueError:
        threads = 1
    threads = max(1, min(threads, nproc))
    os.environ["ODRS_THREADS"] = str(threads)


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import odrs_lab.cli  # noqa: F401  (first: sets the thread variables before numpy)
    from odrs_lab import exact_engine, instances, odrs
    if not os.path.abspath(odrs_lab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported odrs_lab from {odrs_lab.cli.__file__}, not {SRC}")
    return SimpleNamespace(cli=odrs_lab.cli, instances=instances, odrs=odrs,
                           exact_engine=exact_engine)


def fresh_package():
    """Import the package again from scratch, so that no module-level state
    (a cache, say) carries over from one pass to the next."""
    for name in [m for m in sys.modules if m == "odrs_lab" or m.startswith("odrs_lab.")]:
        del sys.modules[name]
    return import_package()


def set_up(args, tmp):
    mods = import_package()
    return mods, workloads.build(args.workload, args.seed, tmp, mods)


def execute(op, mods):
    """Run one operation; returns (report text, error or None, CPU seconds)."""
    t0 = time.process_time()
    text, error = _execute(op, mods)
    return text, error, time.process_time() - t0


def _execute(op, mods):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                return op.call(mods), None
            sys.argv = ["odrs-lab", *op.argv]
            code = mods.cli.main()
    except (Exception, SystemExit):  # an operation that raises counts as failed
        return out.getvalue(), traceback.format_exc(limit=3)
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()[:300]}"
    return out.getvalue(), None


def calibration_chunk():
    """A fixed piece of pure-Python work (float updates of a dict on tuple
    keys, like the DP's inner loop); its time measures how fast the machine
    runs Python code at that moment."""
    d = {}
    for i in range(CAL_ITERS):
        k = (i % 61, i % 7)
        d[k] = d.get(k, 0.0) * 0.5 + i
    return d


def run_pass(ops, mods, calibrate=False):
    """Run every operation once. Returns (wall seconds in operations, CPU
    seconds in operations, mean calibration-chunk CPU seconds or None,
    results). With `calibrate`, a chunk runs before an operation whenever
    CAL_EVERY_S of operation time has passed since the last chunk (and before
    the first operation)."""
    results, chunks, since, wall = [], [], CAL_EVERY_S, 0.0
    for op in ops:
        if calibrate and since >= CAL_EVERY_S:
            t0 = time.process_time()
            calibration_chunk()
            chunks.append(time.process_time() - t0)
            since = 0.0
        t0 = time.perf_counter()
        results.append(execute(op, mods))
        wall += time.perf_counter() - t0
        since += results[-1][2]
    cpu = sum(seconds for _, _, seconds in results)
    return wall, cpu, statistics.fmean(chunks) if chunks else None, results


def load_golden(workload):
    with open(os.path.join(GOLDEN, f"{workload}.json")) as fh:
        return json.load(fh)


def check_pass(ops, results, golden):
    """Per-operation failure reasons (empty list: the operation passed)."""
    failures = []
    for op, (text, error, _) in zip(ops, results):
        errs = [error] if error else checks.invariant_errors(op, text)
        if not errs and golden is not None:
            errs = checks.golden_errors(op, text, golden)
        failures.append(errs)
    return failures


def traced_pass(args, ops, reference, golden):
    """One traced pass: per-layer metrics, per-operation failures (a traced
    report must equal the untraced one byte for byte) and trace problems."""
    mods = fresh_package()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = [f"call-site binding not wrapped: {b}" for b in tracer.binding_errors()]
        wall, _, _, results = run_pass(ops, mods)
    finally:
        tracer.uninstall()
    problems += [f"span {name} never fired" for name in EXPECTED_SPANS[args.workload]
                 if tracer.stats[name].calls == 0]
    layer = tracer.metrics()
    layer["trace.wall_s"] = wall
    # every wrapped span nests inside an operation, so self times sum to the
    # pass minus the harness's own time between and around operations
    gap = wall - layer["trace.self_sum_s"]
    if not 0.0 <= gap <= 0.02 * wall:
        problems.append(f"self times sum to {layer['trace.self_sum_s']:.4f} s "
                        f"of a {wall:.4f} s traced pass")
    failures, identical = [], 0
    for op, (text, error, _), (ref_text, _, _) in zip(ops, results, reference):
        errs = [error] if error else []
        if not errs and text != ref_text:
            errs.append("traced report differs from the untraced one")
        failures.append(errs)
        want = golden[op.name]["sha256"] if golden is not None else checks.sha256(ref_text)
        identical += checks.sha256(text) == want
    layer["cli.reports_byte_identical"] = identical
    return layer, failures, problems


def setup_sample(args):
    """Set-up time of one set-up-only child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "ODRS_THREADS": os.environ["ODRS_THREADS"],
            "git_commit": git_commit(), "machine": platform.machine()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "odrs_lab", "cli.py")):
        raise SystemExit(f"error: {SRC}/odrs_lab not found; run from the repository root")
    pin_threads()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        mods, ops = set_up(args, tmp)
        # CPU time since the process started: interpreter start, imports and
        # instance generation, without the time the host took the CPU away
        setup_first = time.process_time()
        if args.setup_only:
            print(repr(setup_first))
            return 0
        if args.write_golden:
            return write_golden(args, ops, mods)
        return measure(args, ops, mods, setup_first)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_golden(args, ops, mods):
    if args.seed != DEFAULT_SEED:
        raise SystemExit("golden reports are stored for the default seed only")
    _, _, _, results = run_pass(ops, mods)
    failures = check_pass(ops, results, None)
    bad = [(op.name, errs) for op, errs in zip(ops, failures) if errs]
    if bad:
        raise SystemExit(f"not storing golden reports, invariants fail: {bad[:3]}")
    doc = {op.name: {"sha256": checks.sha256(text), "report": checks.parsed(op, text)}
           for op, (text, _, _) in zip(ops, results)}
    with open(os.path.join(GOLDEN, f"{args.workload}.json"), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"stored {len(doc)} golden reports for {args.workload}")
    return 0


def measure(args, ops, mods, setup_first):
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    if golden is not None and sorted(golden) != sorted(op.name for op in ops):
        raise SystemExit("golden reports do not match this workload's operations")
    calibrate = workloads.CALIBRATE[args.workload]
    walls, cpus, chunks, op_seconds, failures = [], [], [], [[] for _ in ops], []
    setups = [setup_first]
    t_loop = time.perf_counter()
    while True:
        if walls:
            mods = fresh_package()
        wall, cpu, chunk, results = run_pass(ops, mods, calibrate)
        walls.append(wall)
        cpus.append(cpu)
        chunks.append(chunk)
        for samples, (_, _, seconds) in zip(op_seconds, results):
            samples.append(seconds)
        failures.extend(check_pass(ops, results, golden))
        # set-up samples spread over the run, not bunched at its end
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
        if args.trace or (len(walls) >= MIN_PASSES
                          and time.perf_counter() - t_loop >= args.seconds):
            break
    reference = results

    layer, problems = {}, []
    if args.trace:
        layer, traced_failures, problems = traced_pass(args, ops, reference, golden)
        layer["trace.untraced_wall_s"] = walls[0]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - walls[0]
        failures.extend(traced_failures)

    attempted = len(failures)
    failed = sum(1 for errs in failures if errs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    scaled = [cpu * CAL_REF_S / c if calibrate else cpu for cpu, c in zip(cpus, chunks)]
    e2e = {"setup_s": (statistics.median(setups), "s"),
           "pass_cpu_s": (statistics.median(scaled), "s"),
           "wall_s": (statistics.median(walls), "s"),
           "peak_rss_mb": (peak_rss_mb, "MB"),
           "fail_frac": (failed / attempted, "fraction")}

    failed_ops = set()
    for op, errs in zip(ops * (len(failures) // len(ops)), failures):
        if errs:
            failed_ops.add(op.name)
            print(f"FAIL {op.name}: {'; '.join(errs)}", file=sys.stderr)
    for msg in problems:
        print(f"TRACE CHECK: {msg}", file=sys.stderr)

    env = environment()
    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "golden_compared": golden is not None, "env": env,
              "passes": len(walls), "pass_wall_s": walls, "pass_cpu_s": cpus,
              "pass_scaled_cpu_s": scaled,
              "calibration_chunk_s": chunks, "setup_samples_s": setups,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "per_layer": layer, "trace_problems": problems,
              "ops": [{"name": op.name, "sha256": checks.sha256(text), "cpu_s": samples,
                       "failed": op.name in failed_ops}
                      for op, (text, _, _), samples in zip(ops, reference, op_seconds)]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items())
          + f"  ({failed}/{attempted} failed, {len(walls)} pass(es))")
    print(f"record {os.path.relpath(path, ROOT)}")

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
