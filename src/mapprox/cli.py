"""Command-line tools over map files: type statistics, distances, transport
certificates, the cycle-cut and rewiring constructions, realization of
measures, compression, the end-to-end approximation pipeline, and seeded
random corpora.

Results go to stdout as JSON with every rational written exactly as "p/q";
commands that produce a structure write the canonical map-file text instead
(to stdout, or to --out).  Exit codes: 0 on success, 1 on domain errors,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import mapfile
from .compress import standard_r_approximation
from .equivalence import ef_equivalent, fo_dist, ldist
from .errors import DuplicatePredicate, MapproxError
from .fmtp import CompanionCertificate, check_fmtp, exhaustive_fmtp_check, restricted_fmtp_certificate
from .localtypes import global_table, type_distribution
from .randgen import SplitMix64, cycle_statistics, random_mapping
from .realize import certificate_digest, pipeline, realize, rewire
from .structure import cycle_cut_product

__all__ = ["main"]


def _emit(data) -> None:
    json.dump(mapfile.jsonable(data), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_structure(F, out) -> None:
    text = mapfile.dump_map(F)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _density(text: str) -> tuple[str, Fraction]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=P/Q, got {text!r}")
    return name, _fraction(value)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_types(args) -> None:
    F = mapfile.read_map(args.file)
    mu = type_distribution(F, args.rank, global_table())
    if args.table:
        sys.stdout.write("type\tmass\tmass_float\n")
        for t, mass in mu:
            sys.stdout.write(
                f"{t.canonical_id}\t{mapfile.fraction_to_text(mass)}\t{float(mass):.6g}\n"
            )
        return
    _emit(mapfile.measure_to_json(mu))


def _cmd_dist(args) -> None:
    A, B = mapfile.read_map(args.a), mapfile.read_map(args.b)
    if args.kind == "local":
        value = ldist(A, B, args.p, args.r, global_table())
    else:
        value = fo_dist(A, B, args.p, args.r)
    _emit({"kind": args.kind, "p": args.p, "r": args.r, "distance": value})


def _cmd_ef(args) -> None:
    A, B = mapfile.read_map(args.a), mapfile.read_map(args.b)
    _emit({"r": args.r, "equivalent": ef_equivalent(A, B, args.r)})


def _cmd_fmtp(args) -> None:
    F = mapfile.read_map(args.file)
    if args.trials is None and F.n <= 8:
        ok = exhaustive_fmtp_check(F)
        _emit({"mode": "exhaustive", "n": F.n, "pairs": 4**F.n, "ok": ok})
        return
    trials = args.trials if args.trials is not None else 1000
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = SplitMix64(args.seed)
    failures = 0
    for _ in range(trials):
        A = {v for v in F.elements() if rng.below(2)}
        B = {v for v in F.elements() if rng.below(2)}
        if not check_fmtp(F, A, B):
            failures += 1
    _emit(
        {
            "mode": "sampled",
            "n": F.n,
            "trials": trials,
            "seed": args.seed,
            "failures": failures,
            "ok": failures == 0,
        }
    )


def _cmd_certificate(args) -> None:
    F = mapfile.read_map(args.file)
    mu = type_distribution(F, args.rank, global_table())
    result = restricted_fmtp_certificate(mu, args.r)
    if not isinstance(result, CompanionCertificate):
        raise MapproxError(f"no certificate: {result}")
    data = mapfile.certificate_to_json(result)
    data["digest"] = certificate_digest(result)
    _emit(data)


def _cmd_cut(args) -> None:
    F = mapfile.read_map(args.file)
    _emit_structure(cycle_cut_product(F, args.m, args.type_rank, global_table()), args.out)


def _cmd_rewire(args) -> None:
    F = mapfile.read_map(args.file)
    _emit_structure(rewire(F, args.m, args.clean), args.out)


def _cmd_realize(args) -> None:
    mu = mapfile.read_measure(args.measure, global_table())
    _emit_structure(realize(mu, args.r, args.multiplier), args.out)


def _cmd_compress(args) -> None:
    F = mapfile.read_map(args.file)
    _emit_structure(standard_r_approximation(F, args.r), args.out)


def _cmd_pipeline(args) -> None:
    F = mapfile.read_map(args.file)
    G, report = pipeline(
        F,
        args.p,
        args.r,
        args.eps,
        multiplier=args.multiplier,
        factorial_schedule=args.factorial_schedule,
    )
    if args.out:
        Path(args.out).write_text(mapfile.dump_map(G))
    _emit(report)


def _cmd_random(args) -> None:
    densities = {}
    for name, p in args.density or []:
        if name in densities:
            raise DuplicatePredicate(name)
        densities[name] = p
    _emit_structure(random_mapping(args.n, args.seed, densities), args.out)


def _cmd_cycles(args) -> None:
    rows = cycle_statistics(args.n, args.samples, args.rmax, args.seed)
    if args.table:
        sys.stdout.write("r\tempirical\texact\tempirical_float\texact_float\n")
        for r, empirical, exact in rows:
            sys.stdout.write(
                f"{r}\t{mapfile.fraction_to_text(empirical)}"
                f"\t{mapfile.fraction_to_text(exact)}"
                f"\t{float(empirical):.6g}\t{float(exact):.6g}\n"
            )
        return
    _emit(
        {
            "format": "cycles",
            "n": args.n,
            "samples": args.samples,
            "rmax": args.rmax,
            "seed": args.seed,
            "rows": [
                {"r": r, "empirical": empirical, "exact": exact}
                for r, empirical, exact in rows
            ],
        }
    )


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapprox",
        description="Local-type statistics and approximation of finite mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p):
        p.add_argument("--out", help="write the resulting map file here instead of stdout")

    p = sub.add_parser("types", help="rank-r type histogram of a mapping, as a measure file")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--table", action="store_true", help="TSV table instead of JSON")
    p.set_defaults(run=_cmd_types)

    p = sub.add_parser("dist", help="distance between two mappings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--p", type=int, required=True, help="tuple length")
    p.add_argument("--r", type=int, required=True, help="rank")
    p.add_argument("--kind", choices=("local", "fo"), default="local")
    p.set_defaults(run=_cmd_dist)

    p = sub.add_parser("ef", help="rank-r elementary equivalence of two mappings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(run=_cmd_ef)

    p = sub.add_parser("fmtp", help="check the mass-transport identity on subset pairs")
    p.add_argument("file")
    p.add_argument("--trials", type=int, help="sample this many pairs instead of exhausting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_fmtp)

    p = sub.add_parser("certificate", help="restricted transport certificate of a type measure")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True, help="measure rank R")
    p.add_argument("--r", type=int, required=True, help="restriction rank r")
    p.set_defaults(run=_cmd_certificate)

    p = sub.add_parser("cut", help="product with a directed m-cycle, cutting short cycles")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--type-rank", type=int, required=True, dest="type_rank")
    out_flag(p)
    p.set_defaults(run=_cmd_cut)

    p = sub.add_parser("rewire", help="undo a cycle cut recorded in layer and type marks")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--clean", type=int, required=True)
    out_flag(p)
    p.set_defaults(run=_cmd_rewire)

    p = sub.add_parser("realize", help="a mapping whose type distribution matches a measure file")
    p.add_argument("measure")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--multiplier", type=int, default=1)
    out_flag(p)
    p.set_defaults(run=_cmd_realize)

    p = sub.add_parser("compress", help="smallest known rank-r equivalent sub-approximation")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    out_flag(p)
    p.set_defaults(run=_cmd_compress)

    p = sub.add_parser("pipeline", help="end-to-end approximation with a stage report")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument(
        "--factorial-schedule",
        action="store_true",
        dest="factorial_schedule",
        help="derive the cut length as clean! instead of lcm(1..clean)",
    )
    p.add_argument("--multiplier", type=int, default=1)
    p.add_argument("--out", help="also write the approximating structure here")
    p.set_defaults(run=_cmd_pipeline)

    p = sub.add_parser("random", help="seeded uniform random mapping")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--density",
        type=_density,
        action="append",
        metavar="NAME=P/Q",
        help="add a predicate with this mark density (repeatable)",
    )
    out_flag(p)
    p.set_defaults(run=_cmd_random)

    p = sub.add_parser("cycles", help="empirical vs exact mean cycle counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table", action="store_true", help="TSV table instead of JSON")
    p.set_defaults(run=_cmd_cycles)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except (MapproxError, ValueError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
