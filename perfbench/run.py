"""Benchmark of the transdolbeault kernel: one workload per run.

    python3 perfbench/run.py --workload census --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One process, one thread, a closed loop with a
single caller. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs a fixed number of ops untraced, then again under ``tracing.Tracer``, and
prints the per-layer metrics. The last stdout line is the JSON result.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before transdolbeault is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 4  # extra fresh-process set-ups per run; setup_s is the median of 1 + these
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90
SETUP_CAL_S = 1.0  # set-up is calibrated as a call of at least this length
CALLS = ("report_s", "homogeneous_s", "verify_s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def _import_workloads():
    """The workloads module, importing transdolbeault from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "transdolbeault" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'transdolbeault'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _golden(workload, seed):
    path = HERE / "golden.json"
    entry = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    return entry.get("ops") if entry.get("seed") == seed else None


def _provenance(args, nops):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg_start": args.loadavg,
        "workload": args.workload,
        "seed": args.seed,
        "ops": nops,
    }


def _setup_probe_times(args):
    """Set-up reference seconds of SETUP_PROBES fresh processes, run one after another."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _measure(workload, seconds, golden):
    """Whole units of ops for about `seconds`: a unit is not started if it would end later.

    Returns the units as lists of (OpResult, reference times of its three calls or
    None if it raised), and ru_maxrss read right after spec.min_ops ops: every run
    makes at least these, so peak RSS does not depend on the processor speed.
    """
    spec = workload.spec
    units, nops, rss_kb = [], 0, None
    sampler = speed.Sampler()
    before = speed.calibrate()
    start = time.perf_counter()
    sampler.arm()
    try:
        while True:
            unit = []
            for _ in range(spec.unit):
                res = workload.run_op(nops, golden, gap=sampler.gap)
                nops += 1
                if nops == spec.min_ops:
                    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                ref = None
                if len(res.gaps) == 3:
                    ref = tuple(sampler.reference(t0, t1, b, a) for (t0, t1), b, a
                                in zip(res.marks, [before] + res.gaps[:2], res.gaps))
                    before = res.gaps[2]
                unit.append((res, ref))
            units.append(unit)
            elapsed = time.perf_counter() - start
            if nops >= spec.min_ops and elapsed * (1 + spec.unit / nops) > seconds:
                return units, rss_kb
    finally:
        sampler.disarm()


def _setup_reference(setup_s):
    return speed.to_reference(setup_s, speed.calibrate(max(setup_s, SETUP_CAL_S)))


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _print_metrics(metrics, extra):
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for line in extra:
        print(line)


def _result(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_untraced(args, workload, setup_main):
    import workloads

    golden = _golden(args.workload, args.seed)
    setups = [_setup_reference(setup_main)]
    units, rss_kb = _measure(workload, args.seconds, golden)
    setups += _setup_probe_times(args)
    results = [res for unit in units for res, _ in unit]
    failed = [res for res in results if res.problems]
    refs = [ref for unit in units for _, ref in unit if ref]
    # per call: median over units of the unit's mean, so a census median sees every algebra
    unit_means = [[statistics.fmean(r[i] for r in rs) for i in range(3)]
                  for rs in ([ref for _, ref in unit if ref] for unit in units) if rs]
    p50 = [statistics.median(u[i] for u in unit_means) for i in range(3)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "report_s.p50": (p50[0], "s"),
        "homogeneous_s.p50": (p50[1], "s"),
        "verify_s.p50": (p50[2], "s"),
        "instances_per_s": ((len(results) - len(failed)) / sum(map(sum, refs)), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    timed = [res for unit in units for res, ref in unit if ref]
    measured = {f"{key}.p50": statistics.median(getattr(res, key) for res in timed)
                for key in CALLS}
    report_s = [ref[0] for ref in refs]
    extra = [f"samples: {len(refs)} timed ops in {len(unit_means)} units of "
             f"{workload.spec.unit}; setup_s over {len(setups)} set-ups "
             f"{[round(s, 4) for s in setups]}",
             f"times in reference seconds ({speed.REF_S} s per calibration); "
             f"as measured, per op: " + json.dumps(measured)]
    if len(report_s) >= P90_MIN_SAMPLES:
        extra.append(f"report_s.p90 {_p90(report_s):.6g} s over {len(report_s)} ops")
    else:
        extra.append(f"report_s.p90 not reported: {len(report_s)} ops < {P90_MIN_SAMPLES}")
    extra.append(f"fail_ratio {len(failed)}/{len(results)} = {len(failed) / len(results):.6g}")
    ndig = workload.spec.fixed_ops
    extra.append(f"digest (first {ndig} ops) "
                 f"{workloads.run_digest([r.digest for r in results[:ndig]])}")
    for r in failed[:10]:
        extra.append(f"FAILED op {r.k}: {'; '.join(r.problems)}")
    extra.append("provenance " + json.dumps(_provenance(args, len(results)), sort_keys=True))
    _print_metrics(metrics, extra)
    return not failed, len(results), len(failed), metrics


def run_traced(args, workload):
    import tracing
    import workloads

    golden = _golden(args.workload, args.seed)
    nops = workload.spec.fixed_ops
    tracing.clear_caches()
    t0 = time.perf_counter()
    plain = [workload.run_op(k, golden) for k in range(nops)]
    plain_wall = time.perf_counter() - t0
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = []
        for k in range(nops):
            tracer.op = k
            traced.append(workload.run_op(k, golden))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.problems.append(f"traced digest {b.digest} != untraced {a.digest}")
    results = plain + traced
    failed = [r for r in results if r.problems]
    metrics = tracing.layer_metrics(tracer, traced_wall / plain_wall)
    span_file = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(span_file, _provenance(args, nops))
    shares = sorted(tracer.report_shares().items(), key=lambda kv: -kv[1])
    extra = [f"report share {name:44s} {share:.3f}" for name, share in shares[:12]]
    extra.append(f"digest (first {nops} ops) untraced "
                 f"{workloads.run_digest([r.digest for r in plain])} traced "
                 f"{workloads.run_digest([r.digest for r in traced])}")
    for r in failed[:10]:
        extra.append(f"FAILED op {r.k}: {'; '.join(r.problems)}")
    extra.append(f"spans: {len(tracer.span_start)} written to {span_file.relative_to(ROOT)}")
    extra.append("provenance " + json.dumps(_provenance(args, nops), sort_keys=True))
    _print_metrics(metrics, extra)
    return not failed, len(results), len(failed), metrics


def main(argv=None):
    args = _parse(argv)
    args.loadavg = [round(x, 2) for x in os.getloadavg()]
    workloads = _import_workloads()
    if args.workload not in workloads.SPECS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.SPECS)}")
    workload = workloads.Workload(workloads.SPECS[args.workload], args.seed, WORKDIR)
    setup_main = time.perf_counter() - _T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": _setup_reference(setup_main)}))
            return 0
        if args.trace:
            outcome = run_traced(args, workload)
        else:
            outcome = run_untraced(args, workload, setup_main)
    finally:
        workload.close()
    print(_result(*outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
