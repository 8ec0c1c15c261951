"""Command-line surface: count-points, find-curve, build, simulate, verify, sweep."""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from itertools import combinations
from math import comb
from pathlib import Path

from . import errors, sizes
from .agcode import DEFAULT_SAMPLE_COUNT, DEFAULT_SUBSET_CAP
from .curve import EllipticCurve, find_curve, resolve_curve
from .errors import BadParams, DescriptorMismatch, Infeasible, TooLarge
from .field import PrimeField
from .pir_scheme import (
    Database,
    SchemeInstance,
    SchemeParams,
    build_scheme,
    noise_containment_verdicts,
    noise_labels,
    scheme_from_descriptor,
    verdict_line,
    verify_scheme,
)
from .rates import max_rate_g0, max_rate_g1, rows_to_csv, sweep
from .sim_harness import (
    check_oracle_work,
    exhaustive_privacy_oracle,
    exhaustive_security_oracle,
    run_retrieval,
)

# Every exception type the package defines; `main` reports these as one-line errors.
PACKAGE_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _curve_json(curve: EllipticCurve) -> dict:
    return {
        "p": curve.field.p,
        "a": curve.a,
        "b": curve.b,
        "points": curve.point_count(),
        "z": len(curve.zeros_of_y()),
    }


def cmd_count_points(args) -> int:
    curve = EllipticCurve(PrimeField(args.p), args.a, args.b)
    print(json.dumps(_curve_json(curve)))
    return 0


def cmd_find_curve(args) -> int:
    curve = find_curve(PrimeField(args.p), args.min_points)
    print(json.dumps(_curve_json(curve)))
    return 0


def cmd_build(args) -> int:
    field = PrimeField(args.p)
    sizes.check_levels(args.x, args.t)
    if (args.a is None) != (args.b is None):
        raise BadParams("--a and --b must be given together")
    curve = None if args.a is None else (args.a, args.b)
    if args.genus == 1:
        model = resolve_curve(field, curve)
        curve = (model.a, model.b)
    big_l = args.l
    if big_l is None:
        row = max_rate_g0(args.p, args.x, args.t) if args.genus == 0 else max_rate_g1(
            args.p, args.x, args.t, curve
        )
        if not row.feasible:
            raise Infeasible(
                "no feasible L for these parameters"
                f" (q={args.p}, genus {args.genus}, X={args.x}, T={args.t})"
            )
        big_l = row.l
    elif args.genus == 1 and big_l % 2 == 0 and big_l >= 2:
        print(f"warning: genus 1 needs odd L; using L = {big_l - 1}", file=sys.stderr)
        big_l -= 1
    params = SchemeParams(
        p=args.p, genus=args.genus, x=args.x, t=args.t, l=big_l, curve=curve, seed=args.seed
    )
    inst = build_scheme(params)
    _write(args.out, json.dumps(inst.descriptor, indent=2))
    print(f"built N={inst.n} rate={inst.rate} ({float(inst.rate):.4f})", file=sys.stderr)
    return 0


def _load_scheme(path: str) -> SchemeInstance:
    """The scheme a descriptor file describes, rebuilt and checked against the file."""
    try:
        descriptor = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise DescriptorMismatch(f"{path} is not a JSON scheme descriptor: {exc}") from None
    return scheme_from_descriptor(descriptor)


def cmd_simulate(args) -> int:
    if args.files < 1:
        raise BadParams(f"--files must be at least 1, got {args.files}")
    sizes.check_theta(args.theta, args.files)
    inst = _load_scheme(args.scheme)
    symbols = inst.l * args.files * inst.n
    if symbols > sizes.TABLE_SYMBOL_CAP:
        raise BadParams(
            f"refusing a share table of L * M * N = {symbols} symbols "
            f"(cap {sizes.TABLE_SYMBOL_CAP})"
        )
    # The database is drawn first from its own generator seeded identically;
    # the protocol stream (store, then queries) restarts from the same seed.
    db = Database.random(inst.p, args.files, inst.l, random.Random(args.seed))
    transcript = run_retrieval(inst, db, args.theta, args.seed)
    _write(args.out, transcript.to_json())
    print(f"decoded file {args.theta}: {list(transcript.decoded)}", file=sys.stderr)
    return 0


def _parse_subsets(spec: str) -> tuple[str, int, int]:
    """`all` or `sample:COUNT:SEED` as (mode, sample count, seed), with COUNT >= 1."""
    if spec == "all":
        return "all", DEFAULT_SAMPLE_COUNT, 0
    match = re.fullmatch(r"sample:(\d+):(-?\d+)", spec)
    if match and int(match[1]) >= 1:
        return "sample", int(match[1]), int(match[2])
    raise argparse.ArgumentTypeError(
        f"expected 'all' or 'sample:COUNT:SEED' with COUNT >= 1, got {spec!r}"
    )


def _oracle_lines(inst) -> list[str]:
    """A PASS/FAIL/SKIP line per oracle, swept over all |I|-subsets unless that exceeds the cap."""
    p = inst.p
    db_a = Database(p, tuple((0,) * inst.l for _ in range(2)))
    db_b = Database(p, tuple(tuple((m + i + 1) % p for i in range(inst.l)) for m in range(2)))
    sweeps = [
        (f"privacy oracle, |I| = T = {inst.t}", inst.t, inst.priv_dim,
         lambda s: exhaustive_privacy_oracle(inst, s, 1, 2, num_files=2)),
        (f"security oracle, |I| = X = {inst.x}", inst.x, inst.sec_dim,
         lambda s: exhaustive_security_oracle(inst, s, db_a, db_b)),
    ]
    lines = []
    for label, size, dim, runner in sweeps:
        calls = comb(inst.n, size)
        try:
            check_oracle_work(inst, dim, num_files=2, calls=calls)
        except TooLarge as exc:
            lines.append(f"SKIP  {label}: {calls} subsets: {exc}")
            continue
        bad = [s for s in combinations(range(inst.n), size) if not runner(s)]
        first = f" (first failure {bad[0]})" if bad else ""
        lines.append(verdict_line(f"{label}: all {calls} subsets{first}", not bad))
    return lines


def _parity_line(inst: SchemeInstance) -> str:
    """Where `decode` notices a changed response: an INFO line, not a check of the scheme.

    A change d to response n moves parity check h by h[n] * d, so it is
    detected exactly on the servers where some check is nonzero.
    """
    checks = inst.parity_checks
    covered = {n for _, row in checks for n, v in enumerate(row) if v}
    missed = [n for n in range(inst.n) if n not in covered]
    return (
        f"INFO  decode parity: {len(checks)} check{'' if len(checks) == 1 else 's'}; "
        f"a changed response is detected on {len(covered)} of {inst.n} servers"
        + (f" (not on: {', '.join(map(str, missed))})" if covered and missed else "")
    )


def cmd_verify(args) -> int:
    mode, count, seed = args.subsets
    sizes.refuse_count_above("--subsets sample COUNT", count, DEFAULT_SUBSET_CAP)
    inst = _load_scheme(args.scheme)
    report = verify_scheme(inst, subsets=mode, sample_count=count, sample_seed=seed)
    lines = report.lines()
    verdicts = noise_containment_verdicts(inst)
    first = ""
    if not all(verdicts):
        # Labels are built only to name the first failure; the count needs none.
        label = next(label for label, ok in zip(noise_labels(inst), verdicts) if not ok)
        first = f" (first failure {label})"
    text = f"noise containment: {len(verdicts)} products inside the noise bound{first}"
    lines += [verdict_line(text, not first), _parity_line(inst)]
    if args.exhaustive_oracle:
        lines += _oracle_lines(inst)
    print("\n".join(lines))
    # INFO and SKIP lines never fail; every verdict is a PASS or FAIL line.
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


def cmd_sweep(args) -> int:
    sizes.refuse_count_above("--xt-max", args.xt_max, args.p)
    result = sweep(args.p, args.xt_min, args.xt_max)
    _write(args.out, rows_to_csv(result.rows))
    g1 = result.rows[-1]  # every genus-1 row carries the curve's counts
    print(f"curve: a={g1.curve_a} b={g1.curve_b} points={g1.points} z={g1.z}")
    print(f"crossover_xt={result.crossover_xt}")
    print(f"genus0_max_feasible_xt={result.g0_max_feasible_xt}")
    print(f"genus1_max_feasible_xt={result.g1_max_feasible_xt}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agpir",
        description="X-secure, T-private information retrieval from curve evaluation codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("count-points", help="count rational points of y^2 = x^3 + ax + b")
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--a", type=int, required=True)
    cp.add_argument("--b", type=int, required=True)
    cp.set_defaults(func=cmd_count_points)

    fc = sub.add_parser("find-curve", help="first curve with at least the requested points")
    fc.add_argument("--p", type=int, required=True)
    fc.add_argument("--min-points", type=int, required=True)
    fc.set_defaults(func=cmd_find_curve)

    bd = sub.add_parser("build", help="build a scheme and write its JSON descriptor")
    bd.add_argument("--p", type=int, required=True)
    bd.add_argument("--genus", type=int, choices=(0, 1), required=True)
    bd.add_argument("--x", type=int, required=True)
    bd.add_argument("--t", type=int, required=True)
    bd.add_argument("--l", type=int, default=None)
    bd.add_argument("--a", type=int, default=None)
    bd.add_argument("--b", type=int, default=None)
    bd.add_argument("--seed", type=int, default=0)
    bd.add_argument("--out", default="-")
    bd.set_defaults(func=cmd_build)

    sm = sub.add_parser("simulate", help="run one retrieval round and write the transcript")
    sm.add_argument("--scheme", required=True)
    sm.add_argument("--files", type=int, required=True)
    sm.add_argument("--theta", type=int, required=True)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", default="-")
    sm.set_defaults(func=cmd_simulate)

    vf = sub.add_parser("verify", help="check decodability and collusion criteria")
    vf.add_argument("--scheme", required=True)
    vf.add_argument("--subsets", type=_parse_subsets, default="all")
    vf.add_argument("--exhaustive-oracle", action="store_true")
    vf.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="rate comparison CSV across X = T")
    sw.add_argument("--p", type=int, required=True)
    sw.add_argument("--xt-min", type=int, required=True)
    sw.add_argument("--xt-max", type=int, required=True)
    sw.add_argument("--out", default="-")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*PACKAGE_ERRORS, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
