"""Command-line interface: reproducible tables, pair sums, and verifier
suites.

Exit status: 0 when everything requested passes, 1 when any verifier or
table row reports FAIL, 2 for usage errors.  Output is byte-deterministic
for a fixed command line (including --seed).
"""

import argparse
import json
import sys

from . import delta, experiments, fock, polyrep
from .partitions import format_partition, sort_key
from .tableaux import ResidueWord

SUITES = ("q-image", "stability", "generation", "pairing", "bound",
          "factorial", "cross-model", "properties", "all")

_SUITE_DEFAULT_N = {"q-image": 8, "generation": 10, "pairing": 16,
                    "bound": 10, "factorial": 12, "cross-model": 8}


def _parse_word(text: str, e: int) -> ResidueWord:
    try:
        letters = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"words look like 0,1,0,1 -- got {text!r}") from None
    return ResidueWord(e, letters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chessfock",
        description="Exact tableau counts, their pair sums, and the 2-adic "
                    "divisibility verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "chess-table",
        help="sum of squared chess-tableau counts for n = 1..N, with "
             "valuations, bounds and factorizations")
    table.add_argument("--n-max", type=int, default=18)
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    pair = sub.add_parser(
        "pair-sum",
        help="sum over shapes of the products of two residue-word counts")
    pair.add_argument("--e", type=int, default=2, help="residue modulus")
    pair.add_argument("--v", required=True, help="first word, e.g. 0,1,0,1")
    pair.add_argument("--w", required=True, help="second word")

    scan = sub.add_parser(
        "scan",
        help="observational table for cyclic words at any modulus/prime "
             "(no divisibility is asserted unless e = p = 2)")
    scan.add_argument("--n-max", type=int, default=12)
    scan.add_argument("--e", type=int, default=3)
    scan.add_argument("--p", type=int, default=3)
    scan.add_argument("--v", help="explicit first word (single-row scan)")
    scan.add_argument("--w", help="explicit second word")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser(
        "verify", help="run the machine verifiers; exit 1 on any FAIL")
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--degree", type=int, default=12,
                        help="degree bound for the lattice suites")
    verify.add_argument("--n-max", type=int, default=None,
                        help="cap for the per-size suites (defaults vary)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized property suite")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    word = sub.add_parser(
        "word", help="print the image of the vacuum under a residue word")
    word.add_argument("--e", type=int, default=2)
    word.add_argument("--v", required=True)
    word.add_argument("--model", choices=("fock", "poly", "both"),
                      default="both")
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Check what argparse cannot and parse --v/--w into ResidueWords in
    place; raises ValueError with the message for the user."""
    for name in ("v", "w"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _parse_word(getattr(args, name), args.e))
    for name, flag in (("n_max", "--n-max"), ("degree", "--degree"),
                       ("e", "--e"), ("p", "--p")):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1")
    v, w = getattr(args, "v", None), getattr(args, "w", None)
    if args.command == "scan" and (v is None) != (w is None):
        raise ValueError("give both words or neither")
    if v is not None and w is not None and len(v) != len(w):
        raise ValueError("the two words must have the same length")


def _print_rows(rows, fmt, out) -> int:
    if fmt == "json":
        out.write(experiments.rows_to_jsonl(rows))
    else:
        out.write(experiments.rows_to_csv(rows))
    return 1 if any(row.verdict == "FAIL" for row in rows) else 0


def _cmd_chess_table(args, out) -> int:
    return _print_rows(experiments.chess_table(args.n_max), args.format, out)


def _cmd_pair_sum(args, out) -> int:
    out.write(f"{fock.pair_sum(args.v, args.w)}\n")
    return 0


def _cmd_scan(args, out) -> int:
    if args.v is not None:
        try:
            rows = [experiments.scan_row(args.v, args.w, args.p)]
        except ArithmeticError as exc:  # a zero pair sum has no valuation row
            raise ValueError(str(exc)) from exc
    else:
        rows = experiments.general_e_scan(args.n_max, args.e, args.p)
    return _print_rows(rows, args.format, out)


def _cmd_word(args, out) -> int:
    models = ("fock", "poly") if args.model == "both" else (args.model,)
    if "poly" in models and args.e != 2:
        raise ValueError("the polynomial model needs --e 2")
    for model in models:
        out.write(f"{model}:\n")
        if model == "fock":
            image, prefix = fock.decode(fock.apply_word(args.v)), ""
        else:
            image, prefix = polyrep.apply_word_poly(args.v), "p"
        lines = [f"  {c} {prefix}{format_partition(key)}"
                 for key, c in sorted(image.items(), key=lambda kv: sort_key(kv[0]))]
        out.write("\n".join(lines) + "\n" if lines else "  0\n")
    return 0


def _run_suite(args):
    """Yield (name, verdict, payload) triples for the requested suite."""
    suite = args.suite
    degree = args.degree

    def cap(name):
        return args.n_max if args.n_max is not None else _SUITE_DEFAULT_N[name]

    if suite in ("q-image", "all"):
        for n in range(1, cap("q-image") + 1):
            for side in ("multiply", "adjoint"):
                r = delta.verify_q_image(n, degree, side)
                yield r.claim, r.verdict, r.to_json()
    if suite in ("stability", "all"):
        r = delta.verify_stability(degree)
        yield r.claim, r.verdict, r.to_json()
    if suite in ("generation", "all"):
        for r in delta.generation_reports(cap("generation")):
            yield r.claim, r.verdict, r.to_json()
    if suite in ("pairing", "all"):
        for n in range(1, cap("pairing") + 1):
            r = delta.verify_pairing(n)
            yield r.claim, r.verdict, r.to_json()
    if suite in ("bound", "all"):
        for r in experiments.bound_reports(cap("bound")):
            yield r.claim, r.verdict, r.to_json()
    if suite in ("factorial", "all"):
        for n in range(1, cap("factorial") + 1):
            ok = experiments.factorial_check(n)
            yield (f"factorial[n={n}]", "PASS" if ok else "FAIL", {"n": n})
    if suite in ("cross-model", "all"):
        for summary in experiments.cross_model_reports(cap("cross-model")):
            yield (f"cross-model[n={summary['n']}]",
                   "PASS" if summary["ok"] else "FAIL", summary)
    if suite in ("properties", "all"):
        for name, ok, detail in experiments.property_checks(args.seed):
            detail = dict(detail, seed=args.seed)
            yield (f"properties[{name}]", "PASS" if ok else "FAIL", detail)


def _cmd_verify(args, out) -> int:
    failed = 0
    for name, verdict, payload in _run_suite(args):
        if args.format == "json":
            record = dict(payload)
            record.setdefault("claim", name)
            record.setdefault("verdict", verdict)
            out.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            extra = ""
            if "required" in payload:
                extra = (f" required={payload['required']}"
                         f" observed={payload['observed_min']}")
                if payload.get("tight"):
                    extra += " tight"
            if verdict == "FAIL" and payload.get("witnesses"):
                extra += f" witnesses={payload['witnesses'][:3]!r}"
            out.write(f"{verdict} {name}{extra}\n")
        if verdict == "FAIL":
            failed += 1
    return 1 if failed else 0


_COMMANDS = {
    "chess-table": _cmd_chess_table,
    "pair-sum": _cmd_pair_sum,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "word": _cmd_word,
}


def run(args: argparse.Namespace) -> int:
    return _COMMANDS[args.command](args, sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return run(args)
    except ValueError as exc:
        parser.error(str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
