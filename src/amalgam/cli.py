"""Command-line interface: element arithmetic and verification suites.

Exit codes: 0 when everything passed, 1 when any check failed, 2 for
unusable input or configuration (bad grammar, bad flags, bad primes, an
--out destination that cannot be made).  Only reading the input, which
prepares the report destination before any suite runs, can exit 2: an
error raised later, while computing, is reported as such (inside a
suite, as that check's failure).
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .grammar import parse_element
from .orbits import DEFAULT_SIZE_GUARD, WORD_ENTRIES
from .primes import PrimeSeq
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .words import Tower

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    primes_parent = argparse.ArgumentParser(add_help=False)
    primes_parent.add_argument(
        "--primes",
        default=argparse.SUPPRESS,
        help="comma-separated configured primes, e.g. 2,3,5 (default: first 16)",
    )
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="Exact arithmetic and verification for an inductive amalgam tower.",
    )
    parser.add_argument("--primes", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    elem = sub.add_parser("elem", help="element arithmetic in the grammar")
    elem_sub = elem.add_subparsers(dest="op", required=True)
    p_reduce = elem_sub.add_parser(
        "reduce", parents=[primes_parent], help="parse and print the reduced element"
    )
    p_reduce.add_argument("element")
    p_mul = elem_sub.add_parser("mul", parents=[primes_parent], help="product of two elements")
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    p_inv = elem_sub.add_parser("inv", parents=[primes_parent], help="inverse of an element")
    p_inv.add_argument("element")
    p_conj = elem_sub.add_parser(
        "conj", parents=[primes_parent], help="conjugate of the first element by the second"
    )
    p_conj.add_argument("element")
    p_conj.add_argument("conjugator")
    p_member = elem_sub.add_parser(
        "member", parents=[primes_parent], help="membership in K, K<N>, Lambda, or G<N>"
    )
    p_member.add_argument("element")
    p_member.add_argument("subgroup")

    verify = sub.add_parser("verify", parents=[primes_parent], help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument("--radius", type=int, default=3)
    verify.add_argument("--level", type=int, default=3)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument(
        "--size-guard", type=int, default=DEFAULT_SIZE_GUARD, dest="size_guard",
        help=f"most integer entries a check may hold, a kept word counting as {WORD_ENTRIES} "
             f"(default {DEFAULT_SIZE_GUARD}); a check that would hold more is skipped",
    )
    verify.add_argument(
        "--out",
        default=None,
        help="report destination: a file for one suite, a directory for 'all'",
    )
    return parser


class _BadInput(Exception):
    """Unusable input or configuration: the process exits 2."""


@contextmanager
def _reading_input():
    """Map the ValueError/IndexError of parsing and validation, and the
    OSError of preparing an output destination, to _BadInput."""
    try:
        yield
    except (ValueError, IndexError, OSError) as exc:
        raise _BadInput(str(exc)) from exc


def _primes(args) -> PrimeSeq:
    return PrimeSeq.parse(args.primes) if args.primes else PrimeSeq.default()


def _run_elem(args) -> int:
    with _reading_input():
        tower = Tower(_primes(args))
        if args.op == "mul":
            a = parse_element(tower, args.left)
            b = parse_element(tower, args.right)
        else:
            a = parse_element(tower, args.element)
        if args.op == "conj":
            b = parse_element(tower, args.conjugator)
        elif args.op == "member":
            member = tower.membership(a, args.subgroup)
    if args.op == "reduce":
        print(a.format())
    elif args.op == "mul":
        print(tower.mul(a, b).format())
    elif args.op == "inv":
        print(tower.inv(a).format())
    elif args.op == "conj":
        print(tower.conj(a, b).format())
    elif args.op == "member":
        print("true" if member else "false")
    return 0


def _report_paths(out: str | None, names: tuple[str, ...]) -> list[Path]:
    """Where each suite's report goes, its directory made: nothing without
    --out, a file per suite in the directory `out` for 'all' or where `out`
    is one, else the file `out`."""
    if out is None:
        return []
    out = Path(out)
    if len(names) > 1 or out.is_dir():
        out.mkdir(parents=True, exist_ok=True)
        return [out / f"{name}.json" for name in names]
    out.parent.mkdir(parents=True, exist_ok=True)
    return [out]


def _run_verify(args) -> int:
    with _reading_input():
        config = SuiteConfig(
            primes=_primes(args), seed=args.seed, tolerance=args.tolerance, radius=args.radius,
            level=args.level, samples=args.samples, size_guard=args.size_guard,
        )
        names = SUITE_NAMES if args.suite == "all" else (args.suite,)
        paths = _report_paths(args.out, names)
    reports = [run_suite(name, config) for name in names]
    for report, path in zip(reports, paths):
        path.write_text(report.to_json())
    for report in reports:
        for line in report.summary_lines():
            print(line)
    passed, failed, skipped = (
        sum(report.counts[key] for report in reports) for key in ("pass", "fail", "skip"))
    print(f"{'FAIL' if failed else 'PASS'}: {passed} passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "elem":
            return _run_elem(args)
        return _run_verify(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
