"""Command-line interface.

Subcommands: ``resolve`` (family, sextic, fitted coefficients, degree-12
polynomial), ``orbit`` (orbit values, sign pairing, batch rank test),
``brioschi`` (product values, principal form, power sums), and ``verify``
(batch property suite with a JSON report).

Exit codes: 0 success, 2 invalid input, 3 degenerate instance,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .clustering import DEDUP_TOL
from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    NumericFailureError,
    VerificationFailureError,
)
from .ffamily import a5_orbit, f_family, relation_rank
from .instances import InstanceSpec, complex_to_pair, load_instance_file, random_instance
from .polynomials import is_degenerate
from .principal import phi_quintic, phi_values, power_sum_check
from .resolvent import degree12_poly, fit_abc, sextic_from_family, square_gap
from .verify import RESIDUAL_TOL, run_verify

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY_FAIL = 4


def _spec_from_args(args) -> InstanceSpec:
    sources = sum(
        x is not None for x in (args.roots, args.coeffs, args.seed)
    )
    if sources != 1:
        raise InvalidInputError("give exactly one of --roots, --coeffs, --seed")
    if args.roots is not None:
        spec = load_instance_file(args.roots)
        if spec.roots is None:
            raise InvalidInputError(f'{args.roots} does not contain "roots"')
        return spec
    if args.coeffs is not None:
        spec = load_instance_file(args.coeffs)
        if spec.coefficients is None:
            raise InvalidInputError(f'{args.coeffs} does not contain "coefficients"')
        return spec
    return InstanceSpec(seed=args.seed, index=args.index)


def _pairs(values) -> list:
    return [complex_to_pair(complex(v)) for v in values]


def _cmd_resolve(args) -> dict:
    roots = _spec_from_args(args).root_tuple()
    if is_degenerate(roots):
        raise DegenerateInstanceError("instance has (near-)repeated roots")
    fam = f_family(roots)
    sextic = sextic_from_family(fam)
    fit = fit_abc(sextic)
    gap = square_gap(fam)
    p12 = degree12_poly(fit)
    worst = fit.residuals.worst()
    return {
        "command": "resolve",
        "roots": _pairs(roots),
        "family": {"f": complex_to_pair(fam.f), "fk": _pairs(fam.fk)},
        "sextic_coeffs": _pairs(sextic.coeffs),
        "abc": {
            "a": complex_to_pair(fit.a),
            "b": complex_to_pair(fit.b),
            "c": complex_to_pair(fit.c),
        },
        "residuals": {
            "r4": fit.residuals.r4,
            "r2": fit.residuals.r2,
            "r0": fit.residuals.r0,
        },
        "square_gap": gap,
        "degree12_coeffs": _pairs(p12.coeffs),
        "ok": worst <= args.tol,
    }


def _cmd_orbit(args) -> dict:
    if args.n is not None:
        if args.seed is None:
            raise InvalidInputError("batch orbit mode needs --seed")
        if args.n < 1:
            raise InvalidInputError("--n must be >= 1")
        counts, pair_ok, families = [], [], []
        for index in range(args.n):
            report = a5_orbit(random_instance(args.seed, index), args.dedup_tol)
            counts.append(len(report.values))
            pair_ok.append(len(report.pair_map) == 6)
            families.append(report.family)
        if len(families) >= 10:
            rel = relation_rank(families)
            singular, ratio, rank = list(rel.singular_values), rel.ratio_s4_s1, rel.rank
        else:
            singular, ratio, rank = None, None, None
        ok = (
            all(c == 12 for c in counts)
            and all(pair_ok)
            and (rank is None or (rank == 3 and ratio < args.tol))
        )
        return {
            "command": "orbit",
            "batch": {
                "seed": args.seed,
                "n": args.n,
                "orbit_counts": counts,
                "pairing_ok": pair_ok,
                "rank": rank,
                "singular_values": singular,
                "ratio_s4_s1": ratio,
            },
            "ok": ok,
        }

    roots = _spec_from_args(args).root_tuple()
    report = a5_orbit(roots, args.dedup_tol)
    if report.degenerate:
        raise DegenerateInstanceError("instance has (near-)repeated roots")
    return {
        "command": "orbit",
        "roots": _pairs(roots),
        "values": _pairs(report.values),
        "pair_map": [list(p) for p in report.pair_map],
        "family_match": list(report.family_match),
        "ok": len(report.values) == 12 and len(report.pair_map) == 6,
    }


def _cmd_brioschi(args) -> dict:
    roots = _spec_from_args(args).root_tuple()
    pf = phi_values(roots, args.dedup_tol)
    quintic = phi_quintic(pf)
    sums = power_sum_check(pf)
    ok = (
        pf.s5_value_count == 10
        and max(quintic.suppressed.c4_mag, quintic.suppressed.c2_mag) <= args.tol
        and max(sums.p1, sums.p3) <= args.tol
    )
    return {
        "command": "brioschi",
        "roots": _pairs(roots),
        "phi_values": _pairs(pf.values),
        "s5_value_count": pf.s5_value_count,
        "principal": {
            "p": complex_to_pair(quintic.p),
            "q": complex_to_pair(quintic.q),
            "r": complex_to_pair(quintic.r),
        },
        "suppressed": {
            "c4_mag": quintic.suppressed.c4_mag,
            "c2_mag": quintic.suppressed.c2_mag,
        },
        "power_sums": {
            "p1": sums.p1,
            "p3": sums.p3,
            "p2_magnitude": sums.p2_magnitude,
        },
        "ok": ok,
    }


def _cmd_verify(args) -> dict:
    if args.n < 1:
        raise InvalidInputError("--n must be >= 1")
    if args.seed is None:
        raise InvalidInputError("verify needs --seed")
    report = run_verify(args.seed, args.n, tol_residual=args.tol, tol_dedup=args.dedup_tol)
    report["ok"] = report["summary"]["ok"]
    report["command"] = "verify"
    return report


def _render_text(payload: dict) -> str:
    lines = []

    def is_pair(v) -> bool:
        return isinstance(v, list) and len(v) == 2 and all(isinstance(x, float) for x in v)

    def fmt(v) -> str:
        return f"{v[0]:+.12g}{v[1]:+.12g}i" if is_pair(v) else repr(v)

    def walk(obj, indent=""):
        items = obj.items() if isinstance(obj, dict) else (("-", v) for v in obj)
        for k, v in items:
            head = f"{indent}{k}:" if isinstance(obj, dict) else f"{indent}-"
            if isinstance(v, (dict, list)) and not is_pair(v):
                lines.append(head)
                walk(v, indent + "  ")
            else:
                lines.append(f"{head} {fmt(v)}")

    walk(payload)
    return "\n".join(lines)


def _emit(payload: dict, args) -> None:
    doc = json.dumps(payload, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    if args.format == "json":
        sys.stdout.write(doc + "\n")
    else:
        if payload.get("command") == "verify":
            summary = payload["summary"]
            lines = [
                f"verify seed={payload['meta']['seed']} n={payload['meta']['n']}",
                f"passed: {summary['passed']}  failed: {len(summary['failed'])}"
                f"  skipped: {len(summary['skipped'])}",
                f"rank: {payload['rank_test']['rank']}"
                f"  sigma4/sigma1: {payload['rank_test']['ratio_s4_s1']}",
                f"ok: {summary['ok']}",
            ]
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            sys.stdout.write(_render_text(payload) + "\n")


def _add_source_args(sp) -> None:
    sp.add_argument("--roots", metavar="FILE", help="JSON file with five [re,im] roots")
    sp.add_argument(
        "--coeffs", metavar="FILE", help="JSON file with five monic-quintic coefficients"
    )
    sp.add_argument("--seed", type=int, help="instance generator seed (u64)")
    sp.add_argument("--index", type=int, default=0, help="instance index (default 0)")


def _add_common_args(sp, default_tol: float) -> None:
    sp.add_argument("--tol", type=float, default=default_tol, help="acceptance tolerance")
    sp.add_argument(
        "--dedup-tol", type=float, default=DEDUP_TOL, help="value counting tolerance"
    )
    sp.add_argument("--out", metavar="FILE", help="also write the JSON document here")
    sp.add_argument("--format", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quinticlab",
        description="Numerical laboratory for quintic root resolvents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("resolve", help="family, sextic, fitted coefficients, degree-12 polynomial")
    _add_source_args(sp)
    _add_common_args(sp, RESIDUAL_TOL)
    sp.set_defaults(handler=_cmd_resolve)

    sp = sub.add_parser("orbit", help="orbit values, sign pairing, batch rank test")
    _add_source_args(sp)
    sp.add_argument("--n", type=int, help="batch size (uses --seed, indices 0..n-1)")
    _add_common_args(sp, 1e-6)
    sp.set_defaults(handler=_cmd_orbit)

    sp = sub.add_parser("brioschi", help="product values, principal form, power sums")
    _add_source_args(sp)
    _add_common_args(sp, 1e-6)
    sp.set_defaults(handler=_cmd_brioschi)

    sp = sub.add_parser("verify", help="batch property suite with JSON report")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_common_args(sp, RESIDUAL_TOL)
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        payload = args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateInstanceError as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NumericFailureError, VerificationFailureError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    _emit(payload, args)
    return EXIT_OK if payload.get("ok", True) else EXIT_VERIFY_FAIL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
