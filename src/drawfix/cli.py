"""Command line interface for the drawfix toolkit.

Subcommands:

fix       find one knockout draw that makes a chosen player the champion
count     count the winning draws of every player
winprob   tournament win probabilities under a uniform random draw
scan      which upset probabilities are consistent with an observed matrix
fit       heavy-tail analysis of the win probability distribution
gen-cr    write a synthetic rank-ordered probability matrix
kings     list the kings and the beats-everyone winner, if any

``--input`` takes any file that ``drawfix.ingest.read_tournaments``
reads.  Every subcommand prints a short human-readable report to
stdout.  With ``--output`` it also writes a machine-readable file (JSON
or CSV via ``--format``).  Machine outputs never contain wall-clock
timings, so a rerun with the same inputs and seed reproduces them byte
for byte.

Exit codes: 0 success, 2 bad input, 3 negative result (e.g. no winning
draw exists), 4 instance too large for exact analysis, 141 the reader of
the output closed it early.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import __version__
from .core import MAX_MODEL_PLAYERS, ResourceLimitError
from .crmodel import CrParams, average_upset_probability, generate_cr
from .ingest import read_tournaments, write_csv, write_json, write_prob_matrix
from .solver import (
    condorcet_winner,
    count_winning_draws,
    enumeration_choice_points,
    find_winning_draw,
    kings,
)
from .stats import (
    MIN_SCAN_STEP,
    EmpiricalSample,
    ccdf_points,
    fit_lognormal,
    fit_power_law,
    likelihood_ratio_test,
    scan_cr,
)
from .winprob import (
    MAX_SAMPLES,
    MAX_WORKERS,
    exact_uniform_win_probs,
    sample_uniform_win_probs,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_RESOURCE = 4
# 128 + SIGPIPE: what a shell reports for a writer whose reader went away.
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------------------
# output helpers


def _meta(args: argparse.Namespace) -> dict:
    """Run metadata embedded in JSON outputs.  Deliberately excludes the
    output path itself and anything non-reproducible."""
    skip = {"func", "command", "output"}
    config = {}
    for key, value in vars(args).items():
        if key in skip or callable(value):
            continue
        config[key] = value
    return {
        "tool": "drawfix",
        "version": __version__,
        "command": args.command,
        "config": config,
    }


def _write_machine(
    args: argparse.Namespace,
    data: dict,
    csv_header: list[str],
    csv_rows: list[list],
) -> None:
    """Write ``--output``: ``data`` under the run metadata as JSON, or
    the CSV rows with None as an empty field and a bool as 0 or 1."""
    if not args.output:
        return
    if args.format == "json":
        write_json(args.output, {**_meta(args), "data": data})
    else:
        write_csv(args.output, csv_header,
                  (["" if v is None else int(v) if isinstance(v, bool) else v
                    for v in row] for row in csv_rows))


def _fmt_opt(value, fmt: str = "") -> str:
    if value is None:
        return "n/a"
    return format(value, fmt)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fix(args: argparse.Namespace) -> int:
    det, _ = read_tournaments(args.input, args.ranks, args.season)
    target = det.players.id_of(args.target)
    start = time.perf_counter()
    result = find_winning_draw(det, target)
    elapsed = time.perf_counter() - start
    found = result.draw is not None
    bracket = result.draw.bracket_text(det.players.names) if found else None
    print(f"target: {args.target}")
    if found:
        print(f"winning draw: {bracket}")
    else:
        print(f"no draw makes {args.target} the champion")
    print(f"choice points: {result.stats.choice_points}")
    print(f"elapsed: {elapsed:.3f}s")
    data = {
        "target": args.target,
        "found": found,
        "draw": list(result.draw.leaves) if found else None,
        "bracket": bracket,
        "choice_points": result.stats.choice_points,
    }
    columns = ["target", "found", "bracket", "choice_points"]
    _write_machine(args, data, columns, [[data[c] for c in columns]])
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_count(args: argparse.Namespace) -> int:
    det, _ = read_tournaments(args.input, args.ranks, args.season)
    start = time.perf_counter()
    report = count_winning_draws(det)
    elapsed = time.perf_counter() - start
    nodes_all = enumeration_choice_points(det) if args.stats == "all" else None
    rows = []
    for pid, name in enumerate(det.players.names):
        nodes_first = None
        if args.stats in ("first", "all"):
            nodes_first = find_winning_draw(det, pid).stats.choice_points
        rows.append(
            {
                "rank": pid + 1,
                "name": name,
                "count": report.counts[pid],
                "share": report.shares[pid],
                "nodes_first": nodes_first,
                "nodes_all": None if nodes_all is None else nodes_all[pid],
            }
        )
    print(f"draws per bracket: {report.total_draws:,}")
    print(f"counting elapsed: {elapsed:.3f}s")
    name_w = max(4, max(len(r["name"]) for r in rows))
    count_w = max(13, max(len(f"{r['count']:,}") for r in rows))
    all_w = max(9, max(len(_fmt_opt(r["nodes_all"])) for r in rows))
    print(f"{'rank':>4}  {'name':<{name_w}}  {'winning draws':>{count_w}}  "
          f"{'share %':>10}  {'nodes 1st':>9}  {'nodes all':>{all_w}}")
    for r in rows:
        print(
            f"{r['rank']:>4}  {r['name']:<{name_w}}  {r['count']:>{count_w},}  "
            f"{r['share'] * 100:>10.6f}  {_fmt_opt(r['nodes_first']):>9}  "
            f"{_fmt_opt(r['nodes_all']):>{all_w}}"
        )
    data = {"total_draws": report.total_draws, "players": rows}
    _write_machine(args, data, list(rows[0]), [list(r.values()) for r in rows])
    return EXIT_OK


def cmd_winprob(args: argparse.Namespace) -> int:
    _, prob = read_tournaments(args.input, args.ranks, args.season)
    start = time.perf_counter()
    if args.mode == "exact":
        vector = exact_uniform_win_probs(prob)
    else:
        vector = sample_uniform_win_probs(
            prob,
            samples=args.samples,
            rng=args.seed,
            mode=args.mode,
            workers=args.workers,
        )
    elapsed = time.perf_counter() - start
    rows = [
        {"rank": pid + 1, "name": name, "win_prob": float(vector.entries[pid])}
        for pid, name in enumerate(prob.players.names)
    ]
    print(f"method: {vector.method}"
          + (f" ({vector.samples:,} samples)" if vector.samples else ""))
    print(f"elapsed: {elapsed:.3f}s")
    name_w = max(4, max(len(r["name"]) for r in rows))
    print(f"{'rank':>4}  {'name':<{name_w}}  {'win prob %':>12}")
    for r in rows:
        print(f"{r['rank']:>4}  {r['name']:<{name_w}}  {r['win_prob'] * 100:>12.6f}")
    data = {
        "method": vector.method,
        "samples": vector.samples,
        "players": rows,
    }
    _write_machine(args, data, list(rows[0]), [list(r.values()) for r in rows])
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    _, prob = read_tournaments(args.input, args.ranks, args.season)
    reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(prob))
    avg_upset = average_upset_probability(prob)
    start = time.perf_counter()
    result = scan_cr(reference, prob.n, step=args.step, threshold=args.threshold)
    elapsed = time.perf_counter() - start
    # as many decimals as the step has (the grid is rounded to 10), so
    # every grid point keeps its own label
    places = max(2, len(f"{args.step:.10f}".rstrip("0").partition(".")[2]))
    print(f"players: {prob.n}")
    print(f"average upset probability of input: {avg_upset:.4f}")
    if result.min_accepted is None:
        print(f"no upset probability accepted at threshold {args.threshold}")
    else:
        print(
            f"accepted upset probabilities at threshold {args.threshold}: "
            f"{result.min_accepted:.{places}f} .. {result.max_accepted:.{places}f}"
        )
    print(f"elapsed: {elapsed:.3f}s")
    print(f"{'upset prob':>10}  {'KS stat':>8}  {'p value':>8}  accepted")
    for step in result.steps:
        print(
            f"{step.upset_prob:>10.{places}f}  {step.ks.statistic:>8.4f}  "
            f"{step.ks.p_value:>8.4f}  {'yes' if step.accepted else 'no'}"
        )
    steps = [
        {
            "upset_prob": s.upset_prob,
            "statistic": s.ks.statistic,
            "p_value": s.ks.p_value,
            "method": s.ks.method,
            "accepted": s.accepted,
        }
        for s in result.steps
    ]
    data = {
        "avg_upset": avg_upset,
        "min_accepted": result.min_accepted,
        "max_accepted": result.max_accepted,
        "steps": steps,
    }
    columns = ["upset_prob", "statistic", "p_value", "accepted"]
    _write_machine(args, data, columns, [[s[c] for c in columns] for s in steps])
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    _, prob = read_tournaments(args.input, args.ranks, args.season)
    sample = EmpiricalSample.from_win_probs(exact_uniform_win_probs(prob))
    lognormal = fit_lognormal(sample)
    powerlaw = fit_power_law(sample, scan=args.scan_xmin)
    lrt = likelihood_ratio_test(sample, lognormal, powerlaw)
    print(f"sample: {sample.size} win probabilities")
    print(
        f"log-normal fit: mu={lognormal.mu:.4f} sigma={lognormal.sigma:.4f} "
        f"loglik={lognormal.log_likelihood:.4f}"
    )
    print(
        f"power law fit:  alpha={powerlaw.alpha:.4f} xmin={powerlaw.xmin:.6g} "
        f"loglik={powerlaw.log_likelihood:.4f} (n={powerlaw.sample_size})"
    )
    print(
        f"likelihood ratio: r={lrt.r:.4f} p={lrt.p_value:.4f} "
        f"favored: {lrt.favored or 'inconclusive'}"
    )
    points = ccdf_points(sample)
    xs = [x for x, _ in points]
    curve_ln = lognormal.survival(xs)
    curve_pl = powerlaw.survival(xs)
    ccdf_rows = [
        [float(x), float(e), float(cl), float(cp)]
        for (x, e), cl, cp in zip(points, curve_ln, curve_pl)
    ]
    data = {
        "lognormal": {
            "mu": lognormal.mu,
            "sigma": lognormal.sigma,
            "log_likelihood": lognormal.log_likelihood,
        },
        "powerlaw": {
            "alpha": powerlaw.alpha,
            "xmin": powerlaw.xmin,
            "log_likelihood": powerlaw.log_likelihood,
            "sample_size": powerlaw.sample_size,
        },
        "lrt": {"r": lrt.r, "p_value": lrt.p_value, "favored": lrt.favored},
        "ccdf": {
            "convention": "P(X > x)",
            "columns": ["x", "empirical", "lognormal", "powerlaw"],
            "rows": ccdf_rows,
        },
    }
    _write_machine(
        args,
        data,
        ["x", "empirical_ccdf", "lognormal_ccdf", "powerlaw_ccdf"],
        ccdf_rows,
    )
    return EXIT_OK


def cmd_gen_cr(args: argparse.Namespace) -> int:
    params = CrParams(n=args.players, upset_prob=args.upset_prob)
    tournament = generate_cr(params)
    write_prob_matrix(args.output, tournament, fmt=args.format)
    print(
        f"wrote {params.n}-player matrix with upset probability "
        f"{params.upset_prob} to {args.output}"
    )
    return EXIT_OK


def cmd_kings(args: argparse.Namespace) -> int:
    det, _ = read_tournaments(args.input, args.ranks, args.season)
    players = det.players
    king_ids = kings(det)
    winner = condorcet_winner(det)
    king_names = [players.names[pid] for pid in king_ids]
    print(f"kings ({len(king_names)}): {', '.join(king_names)}")
    if winner is None:
        print("beats-everyone winner: none")
    else:
        print(f"beats-everyone winner: {players.names[winner]}")
    data = {
        "kings": king_names,
        "condorcet_winner": None if winner is None else players.names[winner],
    }
    _write_machine(
        args,
        data,
        ["name", "is_condorcet_winner"],
        [[name, name == data["condorcet_winner"]] for name in king_names],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drawfix",
        description="Knockout bracket analysis: draw fixing, win probabilities "
                    "and upset statistics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"drawfix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the input and output options of every analysis subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True,
                        help="probability matrix (json/csv), match list or head-to-head list")
    shared.add_argument("--ranks", help="rank,name csv (required for match/h2h input)")
    shared.add_argument("--season", help="season filter for match input")
    shared.add_argument("--output", help="write machine-readable results to this file")
    shared.add_argument("--format", choices=("json", "csv"), default="json",
                        help="machine output format (default json)")

    fix = sub.add_parser("fix", parents=[shared], help="find one draw that crowns the target")
    fix.add_argument("--target", required=True, help="player name to make champion")
    fix.set_defaults(func=cmd_fix)

    count = sub.add_parser("count", parents=[shared], help="count winning draws for every player")
    count.add_argument("--stats", choices=("first", "all", "none"), default="first",
                       help="search effort columns in choice points: up to the "
                            "first winning draw, also over the full enumeration "
                            "(from a recurrence, without walking the draws), or "
                            "neither (default first)")
    count.set_defaults(func=cmd_count)

    winprob = sub.add_parser("winprob", parents=[shared],
                             help="win probability of each player under a uniform draw")
    winprob.add_argument("--mode",
                         choices=("exact", "per-draw-exact", "full-simulation"),
                         default="exact", help="exact dynamic program or sampling")
    winprob.add_argument("--samples", type=int, default=200_000,
                         help="number of sampled draws (default 200000, "
                              f"at most {MAX_SAMPLES})")
    winprob.add_argument("--seed", type=int, default=0, help="sampling seed")
    winprob.add_argument("--workers", type=int, default=1,
                         help="worker threads for sampling (default 1, "
                              f"at most {MAX_WORKERS}); changes the speed, "
                              "never the result")
    winprob.set_defaults(func=cmd_winprob)

    scan = sub.add_parser("scan", parents=[shared],
                          help="scan upset probabilities consistent with the input")
    scan.add_argument("--step", type=float, default=0.01,
                      help="grid step over upset probabilities (default 0.01, "
                           f"at least {MIN_SCAN_STEP})")
    scan.add_argument("--threshold", type=float, default=0.05,
                      help="KS acceptance p-value threshold (default 0.05)")
    scan.set_defaults(func=cmd_scan)

    fit = sub.add_parser("fit", parents=[shared],
                         help="power law vs log-normal fit of win probabilities")
    fit.add_argument("--scan-xmin", action="store_true",
                     help="choose the power law cutoff by KS scan instead of "
                          "the sample minimum")
    fit.set_defaults(func=cmd_fit)

    gen_cr = sub.add_parser("gen-cr",
                            help="generate a rank-ordered synthetic matrix")
    gen_cr.add_argument("--players", type=int, required=True,
                        help="number of players (power of two, at most "
                             f"{MAX_MODEL_PLAYERS})")
    gen_cr.add_argument("--upset-prob", type=float, required=True,
                        help="probability that the lower-ranked side wins")
    gen_cr.add_argument("--output", required=True, help="matrix destination")
    gen_cr.add_argument("--format", choices=("json", "csv"), default="json",
                        help="matrix format (default json)")
    gen_cr.set_defaults(func=cmd_gen_cr)

    kings_p = sub.add_parser("kings", parents=[shared],
                             help="kings and beats-everyone winner of the input")
    kings_p.set_defaults(func=cmd_kings)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of the output closed it (as `| head` does), which says
        # nothing about the input.  Stdout goes to the null device so that
        # the flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """Process entry of ``python -m drawfix`` and the ``drawfix`` script.

    Moves every object alive after start-up (the interpreter's, numpy's
    and drawfix's own modules) into the collector's permanent generation,
    then returns ``main()``'s exit code.  Those objects live until exit
    anyway, and no later collection walks them, the one at exit included.
    Objects the command creates are collected as before.  ``main`` itself
    freezes nothing, so in-process callers see no change.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
