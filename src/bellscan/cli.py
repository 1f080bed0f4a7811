"""Command-line interface.

Subcommands cover the whole library: catalog listing, exact local bounds
and facet reports, canonical forms and equivalence, symmetric
representatives, quantum maximization, noise and detection thresholds,
the candidate search, and the full benchmark table.

Each subcommand returns its reply as (exit code, payload, lines) and
writes nothing: the payload is the JSON reply and the lines are the text
reply (the CSV rows under `--format csv`).  `main` prints the one that
`--format` asks for.

Exit codes: 0 on success, 1 when a computation's answer is "none / not
violated / inequivalent", 2 on usage errors.  Angles on the command line
are given as theta/pi.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import CatalogKeyError, catalog_get, catalog_list
from .core import (
    BellError,
    BellFunctional,
    Scenario,
    functional_from_json,
    functional_to_json,
    parse_functional,
    serialize_functional,
)
from .polytope import facet_check, local_bound
from .quantum import seesaw_maximize
from .robustness import (
    _VIOLATION_MARGIN,
    eta_asymmetric_sweep,
    eta_threshold_asymmetric,
    eta_threshold_symmetric,
    noise_threshold,
)
from .search import SearchConfig, report_to_json, run_search
from .symmetry import canonical_form, equivalent, symmetric_representative
from .table import compute_table, format_table

EXIT_OK = 0
EXIT_NONE = 1
EXIT_USAGE = 2


_DEFAULT_THETA = "0.25"
_INNER_RESTARTS_HELP = (
    "see-saw restarts per no-click assignment; at theta/pi = 0.25 with "
    "rank-1 effects, restarts of the one see-saw whose optimum gives the "
    "closed form")


class _UsageError(Exception):
    pass


def _load_functionals(args) -> list[tuple[str, BellFunctional]]:
    """Functionals from --name/--file flags, in command-line order."""
    out = []
    for name in args.name or []:
        out.append((name, catalog_get(name).functional))
    for path in args.file or []:
        text = Path(path).read_text()
        if path.endswith(".json"):
            out.append((path, functional_from_json(json.loads(text))))
        else:
            out.append((path, parse_functional(text)))
    if not out:
        raise _UsageError("no functional given; use --name or --file")
    return out


def _load_one(args) -> tuple[str, BellFunctional]:
    items = _load_functionals(args)
    if len(items) != 1:
        raise _UsageError("expected exactly one functional")
    return items[0]


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--name", action="append",
                   help="catalog entry name (repeatable)")
    p.add_argument("--file", action="append",
                   help="functional file, text or .json (repeatable)")


def _add_opt_flags(p: argparse.ArgumentParser, *, theta_default=None,
                   restarts=False, csv=False):
    p.add_argument("--seed", type=int, default=0)
    if restarts:
        p.add_argument("--restarts", type=int, default=50)
    if theta_default is not None:
        p.add_argument("--theta", default=theta_default,
                       help="Schmidt angle as a fraction of pi ('free' where supported)")
        p.add_argument("--degenerate", action="store_true",
                       help="allow identity/zero measurement effects")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "csv") if csv else ("text", "json"))


def _parse_theta(value, *, allow_free=False) -> float | None:
    if isinstance(value, str) and value.strip().lower() == "free":
        if allow_free:
            return None
        raise _UsageError("'free' is not valid here; give theta/pi as a number")
    try:
        t = float(value)
    except ValueError:
        raise _UsageError(f"bad theta {value!r}") from None
    if not 0.0 <= t <= 0.25:
        raise _UsageError("theta/pi must lie in [0, 0.25]")
    return t * math.pi


def _none(name: str, key: str) -> tuple:
    """The reply of a computation whose answer is none."""
    return EXIT_NONE, {"name": name, key: None}, ["none"]


def _functional_reply(name: str, f: BellFunctional) -> tuple:
    """A functional as a reply: its JSON mirror, or its text form."""
    return EXIT_OK, functional_to_json(f, name=name), serialize_functional(f).splitlines()


def _cmd_catalog(args) -> tuple:
    payload, lines = [], []
    for e in catalog_list():
        s = e.native_scenario
        payload.append({"name": e.name, "ma": s.m_a, "mb": s.m_b,
                        "bound": str(e.functional.bound), "primary": e.primary})
        kind = "primary" if e.primary else "supplementary"
        lines.append(f"{e.name:12s} ({s.m_a},{s.m_b})  "
                     f"bound {e.functional.bound!s:>3}  {kind}")
    return EXIT_OK, payload, lines


def _cmd_bound(args) -> tuple:
    name, f = _load_one(args)
    value = local_bound(f)
    return EXIT_OK, {"name": name, "local_bound": str(value)}, [str(value)]


def _cmd_facet(args) -> tuple:
    name, f = _load_one(args)
    rep = facet_check(f)
    payload = {"name": name, "is_tight": rep.is_tight,
               "local_bound": str(rep.local_bound),
               "saturating_count": rep.saturating_count,
               "affine_dim": rep.affine_dim, "ns_dim": rep.ns_dim}
    return EXIT_OK if rep.is_tight else EXIT_NONE, payload, [
        f"tight: {'yes' if rep.is_tight else 'no'}",
        f"local bound: {rep.local_bound}",
        f"saturating strategies: {rep.saturating_count}",
        f"affine dimension: {rep.affine_dim} (no-signaling dimension {rep.ns_dim})",
    ]


def _cmd_canon(args) -> tuple:
    name, f = _load_one(args)
    return _functional_reply(name, canonical_form(f))


def _cmd_equiv(args) -> tuple:
    items = _load_functionals(args)
    if len(items) != 2:
        raise _UsageError("equiv needs exactly two functionals")
    (na, fa), (nb, fb) = items
    same = equivalent(fa, fb)
    return (EXIT_OK if same else EXIT_NONE,
            {"first": na, "second": nb, "equivalent": same},
            ["equivalent" if same else "inequivalent"])


def _cmd_symmetric(args) -> tuple:
    name, f = _load_one(args)
    rep = symmetric_representative(f)
    if rep is None:
        return _none(name, "symmetric")
    return _functional_reply(name, rep)


def _cmd_qmax(args) -> tuple:
    name, f = _load_one(args)
    theta = _parse_theta(args.theta, allow_free=True)
    res = seesaw_maximize(f, restarts=args.restarts, seed=args.seed, theta=theta,
                          allow_degenerate=args.degenerate)
    payload = {"name": name, "value": res.value, "violation": res.violation,
               "theta_max_over_pi": res.theta_max / math.pi,
               "restarts": res.restarts_used, "sweeps": res.sweeps,
               "row_sweeps": res.row_sweeps, "converged": res.converged,
               "accepted": res.accepted, "raced": res.raced, "hits": res.hits}
    return EXIT_OK if res.violation > _VIOLATION_MARGIN else EXIT_NONE, payload, [
        f"value: {res.value:.6f}",
        f"violation: {res.violation:.6f}",
        f"theta_max/pi: {res.theta_max / math.pi:.6f}",
    ]


def _cmd_noise(args) -> tuple:
    name, f = _load_one(args)
    theta = _parse_theta(args.theta)
    res = noise_threshold(f, theta, allow_degenerate=args.degenerate,
                          restarts=args.restarts, seed=args.seed)
    if res is None:
        return _none(name, "w_threshold")
    return EXIT_OK, {"name": name, "w_threshold": res.w_threshold,
                     "theta_over_pi": theta / math.pi, "batches": res.batches,
                     "row_sweeps": res.row_sweeps}, [f"{res.w_threshold:.4f}"]


def _cmd_eta(args) -> tuple:
    name, f = _load_one(args)
    theta = _parse_theta(args.theta)
    res = eta_threshold_symmetric(f, theta, seed=args.seed,
                                  restarts=args.inner_restarts,
                                  allow_degenerate=args.degenerate)
    if res is None:
        return _none(name, "eta")
    return EXIT_OK, {"name": name, "eta": res.eta, "noclick_a": list(res.noclick_a),
                     "noclick_b": list(res.noclick_b), "batches": res.batches,
                     "row_sweeps": res.row_sweeps}, [f"{res.eta:.4f}"]


def _cmd_eta_asym(args) -> tuple:
    name, f = _load_one(args)
    if args.sweep:
        if args.theta is not None:
            raise _UsageError("--sweep scans its own grid of angles; drop --theta")
        points = eta_asymmetric_sweep(f, seed=args.seed,
                                      restarts=args.inner_restarts,
                                      allow_degenerate=args.degenerate)
        rows = [(theta / math.pi, res.eta if res else None)
                for theta, res in points]
        finite = [eta for _, eta in rows if eta is not None]
        extrapolated = None
        if len(finite) >= 2:
            (t1, e1), (t2, e2) = [(t, e) for t, e in rows if e is not None][-2:]
            extrapolated = e2 + (e2 - e1) * (0.0 - t2) / (t2 - t1)
        payload = {"name": name,
                   "sweep": [{"theta_over_pi": t, "eta_b": e} for t, e in rows],
                   "min_eta_b": min(finite) if finite else None,
                   "extrapolated_eta_b": extrapolated}
        if args.format == "csv":
            lines = ["theta_over_pi,eta_b"] + [
                f"{t:.6f},{'' if e is None else f'{e:.4f}'}" for t, e in rows]
        else:
            lines = [f"theta/pi={t:.4f}  eta_b={'none' if e is None else f'{e:.4f}'}"
                     for t, e in rows]
            if finite:
                lines.append(f"smallest on grid: {min(finite):.4f}")
            if extrapolated is not None:
                lines.append(f"linear extrapolation to theta=0: {extrapolated:.4f} "
                             "(trend only, not an exact limit)")
        return EXIT_OK if finite else EXIT_NONE, payload, lines

    if args.format == "csv":
        raise _UsageError("--format csv needs --sweep")
    theta = _parse_theta(_DEFAULT_THETA if args.theta is None else args.theta)
    res = eta_threshold_asymmetric(f, theta, seed=args.seed,
                                   restarts=args.inner_restarts,
                                   allow_degenerate=args.degenerate)
    if res is None:
        return _none(name, "eta_b")
    return EXIT_OK, {"name": name, "eta_b": res.eta, "noclick_b": list(res.noclick_b),
                     "batches": res.batches, "row_sweeps": res.row_sweeps}, [
        f"{res.eta:.4f}"]


def _cmd_search(args) -> tuple:
    sampling = {k: v for k, v in (("sample_count", args.samples),
                                  ("seed", args.seed)) if v is not None}
    if sampling and args.mode != "random":
        raise _UsageError("--samples and --seed apply only with --mode random")
    cfg = SearchConfig(
        scenario=Scenario(args.ma, args.mb),
        corr_range=(args.corr_min, args.corr_max),
        marg_min=args.marg_min,
        mode=args.mode,
        strict_first=not args.no_strict_first,
        **sampling,
    )
    report = run_search(cfg, out_dir=args.out)
    lines = [
        f"candidates tested: {report.candidates_tested}",
        f"rank-tested (at least d saturating strategies): {report.rank_tested}",
        f"distinct saturating sets: {report.rank_sets}",
        f"  settled by the support screen, not ranked: {report.support_settled}",
        f"tight (facets, trivial and repeats included): {report.tight}",
        f"trivial facets (positivity class): {report.trivial_count}",
        f"facet classes found: {len(report.facets_found)} "
        f"({report.new_count} not in the catalog)",
    ] + [f"  {finding.known_as or 'NEW'}" for finding in report.facets_found]
    if args.out:
        lines.append(f"written to {args.out}")
    return EXIT_OK, report_to_json(report), lines


def _cmd_table1(args) -> tuple:
    rows = compute_table(args.only or None, seed=args.seed, restarts=args.restarts,
                         jobs=args.jobs)
    payload = [{"name": r.name, "violation": r.violation,
                "theta_max_over_pi": r.theta_max_over_pi, "w_max": r.w_max,
                "w": r.w, "eta": r.eta_symmetric} for r in rows]
    text = format_table(rows, "csv" if args.format == "csv" else "text")
    return EXIT_OK, payload, text.splitlines()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellscan",
        description="Two-outcome bipartite Bell inequalities: exact bounds, "
                    "facets, canonical forms, quantum violations, robustness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the embedded inequality catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_catalog)

    for cmd, func, help_text in (
            ("bound", _cmd_bound, "exact local bound"),
            ("facet", _cmd_facet, "facet (tightness) report"),
            ("canon", _cmd_canon, "canonical form under relabelings"),
            ("symmetric", _cmd_symmetric, "party-symmetric representative"),
            ("equiv", _cmd_equiv, "equivalence under relabelings")):
        p = sub.add_parser(cmd, help=help_text)
        _add_input_flags(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    p = sub.add_parser("qmax", help="see-saw quantum maximum")
    _add_input_flags(p)
    _add_opt_flags(p, theta_default="free", restarts=True)
    p.set_defaults(func=_cmd_qmax)

    p = sub.add_parser("noise", help="visibility threshold")
    _add_input_flags(p)
    _add_opt_flags(p, theta_default=_DEFAULT_THETA, restarts=True)
    p.set_defaults(func=_cmd_noise)

    for cmd, func, help_text in (
            ("eta", _cmd_eta, "symmetric detection-efficiency threshold"),
            ("eta-asym", _cmd_eta_asym,
             "one-sided detection-efficiency threshold (eta_A = 1)")):
        p = sub.add_parser(cmd, help=help_text)
        _add_input_flags(p)
        _add_opt_flags(p, theta_default=_DEFAULT_THETA, csv=cmd == "eta-asym")
        p.add_argument("--inner-restarts", type=int, default=8,
                       help=_INNER_RESTARTS_HELP)
        if cmd == "eta-asym":
            # --sweep brings its own angles, so --theta must stay unset there
            p.set_defaults(theta=None)
            p.add_argument("--sweep", action="store_true",
                           help="scan a decreasing grid of Schmidt angles "
                                "(not with --theta)")
        p.set_defaults(func=func)

    p = sub.add_parser("search", help="candidate-table facet search")
    p.add_argument("--ma", type=int, required=True)
    p.add_argument("--mb", type=int, required=True)
    p.add_argument("--corr-min", type=int, default=-2)
    p.add_argument("--corr-max", type=int, default=2)
    p.add_argument("--marg-min", type=int, default=-3)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int,
                   help="candidates to draw (random mode only; default 100000)")
    p.add_argument("--seed", type=int,
                   help="sampling seed (random mode only; default 0)")
    p.add_argument("--no-strict-first", action="store_true",
                   help="relax the strict first marginal inequality")
    p.add_argument("--out", help="directory for found facets and report.json")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table1", help="full benchmark table over the catalog")
    _add_opt_flags(p, restarts=True, csv=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1 (at most one per row)")
    p.add_argument("--only", action="append",
                   help="restrict to specific catalog entries (repeatable)")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the reply is printed inside the try, so a failed write to stdout is
    # reported like any other OSError
    try:
        code, payload, lines = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        return code
    except CatalogKeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (_UsageError, BellError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
