"""Command-line interface: estimate, simulate, check, paths.

Machine-readable results go to stdout (or ``--output``); human-readable
summaries and diagnostics go to stderr.  Exit codes: 0 success, 1 input
or usage error, 2 degenerate statistical result.  Numbers in machine
output carry 12 significant digits.  ``estimate``, ``simulate`` and
``check`` write JSON or, with ``--output-format csv``, CSV; ``paths``
always writes CSV.  ``check`` takes ``--input`` or ``--random``, not
both, and rejects a flag its mode does not read.  A JSON file passed via
``--config``, before or after the subcommand, supplies defaults for any
flag (command-line flags win).

Each subcommand imports only the package modules it runs, inside the
functions that run them: ``estimate`` loads ``panel_io``, ``estimator``
and ``model``; ``check`` adds ``likelihood``; ``paths`` loads ``model``
and ``paths``; ``simulate`` loads ``model``, ``estimator`` and
``simulation``.  numpy is imported only by ``simulate`` and ``check
--random``, ``json`` only for JSON output or a ``--config`` file.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import numbers
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .estimator import SufficientStats
    from .model import TruncationDist

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERATE = 2


def _fmt12(value) -> str:
    """A value as machine output writes it: a float to 12 significant digits; None and non-finite are empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return format(value, ".12g")
    return str(value)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, bool):  # a bool is an Integral too; keep true/false
        return obj
    if isinstance(obj, numbers.Integral):  # int and numpy integers
        return int(obj)
    if isinstance(obj, numbers.Real):  # float and numpy floats, rounded as in CSV; non-finite is null
        return float(text) if (text := _fmt12(float(obj))) else None
    return obj


def _dump(rows: list[dict], columns: list[str], args, payload=None) -> None:
    """Write ``payload`` (default ``rows``) as JSON, or ``rows`` under ``columns`` as CSV."""
    if args.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt12(row.get(col)) for col in columns] for row in rows)
        text = buf.getvalue()
    else:
        import json

        text = json.dumps(_json_ready(rows if payload is None else payload), sort_keys=True, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)


def _parse_tdist(value: str, G: int) -> TruncationDist:
    from .model import TruncationDist

    if value == "uniform":
        return TruncationDist.uniform(G)
    try:
        pmf = [float(p) for p in value.split(",")]
    except ValueError:
        raise ValueError(f"--tdist must be 'uniform' or a comma-separated pmf, got {value!r}")
    if len(pmf) != G:
        raise ValueError(f"--tdist pmf has {len(pmf)} entries, expected G={G}")
    return TruncationDist(pmf)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


# Rounding used only in the human-readable summary: the theta interval is
# displayed conservatively (outward), point estimates to nearest.
def _floor_to(value: float, decimals: int) -> float:
    scale = 10**decimals
    return math.floor(value * scale) / scale


def _ceil_to(value: float, decimals: int) -> float:
    scale = 10**decimals
    return math.ceil(value * scale) / scale


def _summarize_estimate(result) -> str:
    lo, hi = result.ci
    lines = [
        f"theta_hat = {result.theta_hat:.4f}  (se {result.se:.3g})",
        f"{100 * result.level:g}% CI for theta: [{_floor_to(lo, 4):.4f}, {_ceil_to(hi, 4):.4f}]",
    ]
    if math.isfinite(result.life_expectancy):
        le_lo, le_hi = result.life_expectancy_ci
        lines.append(
            f"life expectancy: {result.life_expectancy:.2f} years, "
            f"CI [{le_lo:.2f}, {le_hi:.2f}]"
        )
    else:
        lines.append("life expectancy: undefined (no observed failures)")
    if result.degenerate:
        lines.append("WARNING: degenerate estimate (no observed failures)")
    return "\n".join(lines) + "\n"


def _load_stats(args) -> SufficientStats:
    from . import panel_io
    from .model import StudyDesign

    _require(args, ["input", "s", "G"])
    StudyDesign(s=args.s, G=args.G)  # names a bad --s or --G before any row is read
    if args.format == "units":
        table = panel_io.count_units(args.input, s=args.s, G=args.G)
    else:
        with open(args.input, newline="") as fh:
            table = panel_io.parse_aggregate(fh, s=args.s, G=args.G)
    return panel_io.to_sufficient_stats(table)


def cmd_estimate(args) -> int:
    from .estimator import estimate
    from .model import check_level

    check_level(args.level, "--level")  # named before any row is read, as --s and --G are
    stats = _load_stats(args)
    result = estimate(stats, level=args.level)
    payload = result.to_dict()
    row = {}  # the CSV row: the JSON fields in order, each interval split into _lo, _hi
    for key, value in payload.items():
        if isinstance(value, list):
            row[f"{key}_lo"], row[f"{key}_hi"] = value
        else:
            row[key] = value
    _dump([row], list(row), args, payload)
    sys.stderr.write(_summarize_estimate(result))
    return EXIT_DEGENERATE if result.degenerate else EXIT_OK


def cmd_simulate(args) -> int:
    from .model import StudyDesign
    from .simulation import SimConfig, run_study

    _require(args, ["theta0", "n", "s", "G", "K", "seed"])
    design = StudyDesign(s=args.s, G=args.G)
    tdist = _parse_tdist(args.tdist, args.G)
    try:
        n_list = [int(n) for n in args.n.split(",")]
    except ValueError:
        raise ValueError(f"--n must be an integer or comma-separated integers, got {args.n!r}") from None

    # every config is checked before the first study runs
    configs = [
        SimConfig(args.theta0, design, tdist, n=n, n_replicates=args.K, seed=args.seed, level=args.level)
        for n in n_list
    ]
    rows = []
    for config in configs:
        report = run_study(config)
        rows.append(report.to_row())
        sys.stderr.write(
            f"n={config.n} K={args.K}: mse={report.mse:.6g} coverage={report.coverage:.4f} "
            f"ks={report.ks_distance:.4f} degenerate={report.degenerate_count}\n"
        )

    _dump(rows, list(rows[0]), args)
    return EXIT_OK


def _random_check_stats(seed: int, count: int, s: int) -> list[SufficientStats]:
    import numpy as np

    from .estimator import SufficientStats

    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        m_uncens = int(rng.integers(1, 1000))
        extra = int(rng.integers(0, (s - 1) * m_uncens + 1))
        m_cens = int(rng.integers(1, 1000))
        cases.append(
            SufficientStats(
                m=m_uncens + m_cens,
                m_uncens=m_uncens,
                m_cens=m_cens,
                duration_sum=m_uncens + extra,
                s=s,
            )
        )
    return cases


def cmd_check(args) -> int:
    from .estimator import theta_hat
    from .likelihood import grid_argmax

    _require(args, ["s"])
    if args.input is not None:
        _require(args, ["G"])
        cases = [_load_stats(args)]
    elif args.random is not None:
        _require(args, ["seed"])
        for flag, value in (("--random", args.random), ("--s", args.s)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        if args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        cases = _random_check_stats(args.seed, args.random, args.s)
    else:
        raise ValueError("check needs --input or --random")

    rows = []
    worst = 0.0
    degenerate = False
    for idx, stats in enumerate(cases):
        if stats.m_uncens in (0, stats.risk_time):  # theta_hat 0, 1 or undefined: off the oracle's grid
            degenerate = True
            sys.stderr.write(f"case {idx}: degenerate stats, skipping oracle comparison\n")
            continue
        closed = theta_hat(stats)
        argmax = grid_argmax(stats)
        diff = abs(closed - argmax)
        worst = max(worst, diff)
        rows.append({"case": idx, "theta_hat": closed, "argmax_theta": argmax, "abs_diff": diff})

    _dump(rows, ["case", "theta_hat", "argmax_theta", "abs_diff"], args)
    sys.stderr.write(f"checked {len(rows)} case(s), max |closed-form - argmax| = {worst:.3g}\n")
    if degenerate:
        return EXIT_DEGENERATE
    return EXIT_OK if worst <= 1e-6 else EXIT_INPUT_ERROR


def _reject_unread_check_flags(args, given) -> None:
    """Raise if ``given``, the command line before any ``--config``, has a flag the ``check`` mode ignores."""
    for mode, unread in (("input", ["seed"]), ("random", ["G", "format"])):
        flags = [f"--{dest}" for dest in unread if getattr(given, dest) is not None]
        if getattr(args, mode) is not None and flags:
            raise ValueError(f"check --{mode} does not use {', '.join(flags)}")


def cmd_paths(args) -> int:
    from .model import LatentUnit, StudyDesign
    from .paths import PATH_COLUMNS, build_paths

    _require(args, ["x", "t", "s", "G", "theta"])
    design = StudyDesign(s=args.s, G=args.G)
    b = build_paths(LatentUnit(x=args.x, t=args.t), design, args.theta)
    columns = (b.ages, b.dn, b.y_prev, b.dn_tc, b.y_tc_prev, b.da_tc, b.dm_tc)  # in PATH_COLUMNS order
    rows = [dict(zip(PATH_COLUMNS, values)) for values in zip(*columns)]
    _dump(rows, list(PATH_COLUMNS), args)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit ``EXIT_INPUT_ERROR``, not 2.

    Subparsers are built from the parser's own class, so they inherit it.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="geomlife",
        description="Closure-probability estimation from left-truncated, right-censored panels",
    )
    parser.add_argument("--config", help="JSON file with default values for any flag")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, output_format=True):
        # SUPPRESS: a subcommand without --config keeps the one given before it
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON file with default values for any flag")
        p.add_argument("--output", help="write machine-readable result to this path")
        if output_format:
            p.add_argument("--output-format", choices=["json", "csv"], default="json", help="default json")
        p.add_argument("--s", type=int, default=None, help="observation-window length in years")
        p.add_argument("--G", type=int, default=None, help="number of foundation cohorts")

    p_est = sub.add_parser("estimate", help="estimate from an aggregate or unit-level CSV")
    add_common(p_est)
    p_est.add_argument("--input", default=None)
    p_est.add_argument("--format", choices=["aggregate", "units"], default="aggregate")
    p_est.add_argument("--level", type=float, default=0.95, help="confidence level, default 0.95")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo MSE, coverage and KS distance per latent size")
    add_common(p_sim)
    p_sim.add_argument("--theta0", type=float, default=None)
    p_sim.add_argument("--n", default=None, help="latent sample size, or comma-separated sizes")
    p_sim.add_argument("--K", type=int, default=None, help="replicate count")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--tdist", default="uniform", help="'uniform' or comma-separated pmf")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check", help="closed-form estimate vs numerical argmax oracle")
    add_common(p_chk)
    cases = p_chk.add_mutually_exclusive_group()
    cases.add_argument("--input", default=None)
    cases.add_argument("--random", type=int, default=None, help="number of random cases")
    p_chk.add_argument("--format", choices=["aggregate", "units"], default=None, help="default aggregate")
    p_chk.add_argument("--seed", type=int, default=None)
    p_chk.set_defaults(func=cmd_check)

    p_pth = sub.add_parser("paths", help="dump counting-process vectors for one unit")
    add_common(p_pth, output_format=False)  # always CSV
    p_pth.add_argument("--x", type=int, default=None, help="lifespan in years")
    p_pth.add_argument("--t", type=int, default=None, help="truncation age")
    p_pth.add_argument("--theta", type=float, default=None)
    p_pth.set_defaults(func=cmd_paths, output_format="csv")

    return parser


def _config_value(key: str, value, action: argparse.Action):
    """A ``--config`` value read as the command line reads its flag: same type, same choices."""
    import json

    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"--config key {key!r}: expected a string or a number, got {json.dumps(value)}")
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError(f"--config key {key!r}: invalid {action.type.__name__} value {text!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"--config key {key!r}: {text!r} is not one of {', '.join(action.choices)}")
    return converted


def _apply_config(parser: argparse.ArgumentParser, given: argparse.Namespace) -> None:
    """Set the parser's defaults from the ``--config`` file that ``given`` names.

    ``given`` is the command line parsed before the config was read.  A
    flag given there beats its config value, and so does any other member
    of its mutually exclusive group: a config value for the other member
    would be a default the command reads in place of the given flag.
    """
    import json

    with open(given.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("--config file must hold a JSON object")
    by_dest = {key.replace("-", "_"): (key, value) for key, value in overrides.items()}
    subparsers = [sub for action in parser._subparsers._group_actions for sub in action.choices.values()]
    known = {a.dest for sub in subparsers for a in sub._actions if a.dest != "help"}
    unknown = [key for dest, (key, _) in by_dest.items() if dest not in known]
    if unknown:
        raise ValueError(f"--config file has unknown key(s): {', '.join(map(repr, unknown))}")
    for sub in subparsers:
        held = {  # each group with a member on the command line; members default to None
            action.dest
            for group in sub._mutually_exclusive_groups
            if any(getattr(given, member.dest, None) is not None for member in group._group_actions)
            for action in group._group_actions
        }
        values = {
            action.dest: _config_value(*by_dest[action.dest], action)
            for action in sub._actions
            if action.dest in by_dest
        }
        # Defaults lose to explicit flags, which is exactly the precedence wanted.
        sub.set_defaults(**{dest: value for dest, value in values.items() if dest not in held})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = given = parser.parse_args(argv)
    if args.config is not None:
        try:
            _apply_config(parser, given)
        except (OSError, ValueError) as exc:  # malformed JSON raises a ValueError too
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INPUT_ERROR
        args = parser.parse_args(argv)
    try:
        if args.subcommand == "check":
            _reject_unread_check_flags(args, given)
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
