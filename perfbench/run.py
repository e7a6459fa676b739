"""Run one drawfix benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fixing,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` a traced run reports the
per-layer metrics instead.  Lines before it give the same figures in
words, the workload's own latency figures, the per-kind answer digests
and the environment; the whole record is also written under
``.perfbench_runs/``.  See perfbench/README.md for the workloads and
what each metric means.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("fixing", "cli")
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_workload(name: str, seed: int):
    if name == "cli":
        from cli_workload import Cli

        return Cli(seed)
    from inprocess import Fixing

    return Fixing(seed)


def untraced(workload, seconds: float, own_setup_s: float):
    loop = common.closed_loop(workload, seconds)
    peak_rss_mb = workload.peak_rss_mb()
    setups = workload.setup_samples(own_setup_s)
    metrics = common.end_to_end(loop, setups, peak_rss_mb, workload.tail_pct)
    kinds = sorted({k for k, _, _ in loop.latencies})
    detail = {
        "setup_samples_s": setups,
        "tail_percentile": workload.tail_pct,
        "kind_p50_ms": {k: common.kind_p50_ms(loop, k) for k in kinds},
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in workload.workload_metrics(loop).items()},
    }
    return loop, metrics, END_TO_END_UNITS, detail, []


def traced(workload, seconds: float, rec, combine_count):
    rec.track_memory = True
    loop = common.closed_loop(workload, seconds, rec)
    workload.stop_tracing()
    # The first field again without tracing, for the overhead.  Tracing
    # must not change an answer.
    first = loop.field_sizes[0]
    replay = common.closed_loop(workload, float("inf"), max_queries=first)
    if any(loop.answers[kind][:len(values)] != values
           for kind, values in replay.answers.items()):
        replay.failed += 1
        replay.errors.append("answers differ between the traced and untraced pass")
    traced_first_s = sum(dt for _, dt, _ in loop.latencies[:first])
    metrics, detail = tracing.layer_metrics(
        rec, loop.timed_s, traced_first_s / replay.timed_s - 1.0, combine_count)
    limit = workload.harness_share_limit
    if limit is not None and metrics["harness.self_share"] > limit:
        loop.failed += 1
        loop.errors.append(f"trace: harness.self_share {metrics['harness.self_share']:.4f} "
                           f"exceeds {limit}; a library call escaped the wrappers")
    return loop, metrics, tracing.LAYER_METRICS, detail, [replay]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.bootstrap()
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rec = tracing.Recorder() if args.trace else None
    if rec:
        setup_idx = rec.begin(tracing.SETUP, start=_T0)
        import_idx = rec.begin(tracing.IMPORT)
    import drawfix

    if not Path(drawfix.__file__).resolve().is_relative_to(common.SRC):
        print(f"error: imported drawfix from {drawfix.__file__}, not {common.SRC}",
              file=sys.stderr)
        return 2
    if rec:
        rec.end(import_idx)
    workload = load_workload(args.workload, args.seed)
    if rec:
        workload.start_tracing(rec)
    try:
        workload.setup()
        own_setup_s = time.perf_counter() - _T0
        if rec:
            rec.end(setup_idx)
            combine_count = getattr(drawfix._subsetdp, "combine_count", None)
            loop, metrics, units, detail, extra = traced(
                workload, args.seconds, rec, combine_count(16) if combine_count else None)
        else:
            loop, metrics, units, detail, extra = untraced(workload, args.seconds,
                                                           own_setup_s)
    finally:
        workload.cleanup()
    attempted = loop.attempted + sum(r.attempted for r in extra)
    failed = loop.failed + sum(r.failed for r in extra)
    errors = loop.errors + [e for r in extra for e in r.errors]

    digests = common.digests(loop.answers)
    env = common.environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.time(), "queries": len(loop.latencies),
        "timed_s": loop.timed_s, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "metrics": metrics, "detail": detail,
        "digests": digests, "min_fields": workload.min_fields, "env": env,
    }
    common.RUNS.mkdir(exist_ok=True)
    out = common.RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                         f"{time.strftime('%Y%m%dT%H%M%S')}-{time.monotonic_ns() % 10**6}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for err in errors[:20]:
        print(f"FAILED {err}")
    print(f"workload {args.workload} seed {args.seed}: {len(loop.latencies)} queries in "
          f"{loop.timed_s:.2f} s timed, {failed} failed")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, m in detail.get("workload_metrics", {}).items():
        print(f"workload-metric {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"tail percentile p{workload.tail_pct}")
    for kind, hexdigest in digests.items():
        print(f"digest {kind} {hexdigest}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"record {out.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
