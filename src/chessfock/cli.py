"""Command-line interface: reproducible tables, pair sums, and verifier
suites.

Exit status: 0 when everything requested passes, 1 when any verifier or
table row reports FAIL, 2 for usage errors.  Output is byte-deterministic
for a fixed command line (including --seed).

``entry`` (the console script and ``python -m``) freezes the heap with
``gc.freeze()`` once ``main`` returns or raises, so the closing
collections of the exiting interpreter do not walk every object only to
free it with the process; atexit handlers, flushes and profilers still
run.  ``main`` does not freeze: tests and tracers call it in-process.
"""

import argparse
import gc
import json
import os
import sys

from . import delta, experiments, fock, polyrep
from .partitions import format_partition, sort_key
from .tableaux import ResidueWord

#: Each verify suite's default --n-max (None: no size), in the order of "all".
_SUITE_N = {"q-image": 8, "stability": None, "generation": 10, "pairing": 16,
            "bound": 10, "factorial": 12, "cross-model": 8, "properties": None}
SUITES = (*_SUITE_N, "all")


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
    for name, flag in (("n_max", "--n-max"), ("degree", "--degree"),
                       ("e", "--e"), ("p", "--p")):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1")
    for name in ("v", "w"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _parse_word(getattr(args, name), args.e))
    v, w = getattr(args, "v", None), getattr(args, "w", None)
    if args.command == "scan" and (v is None) != (w is None):
        raise ValueError("give both words or neither")
    if v is not None and w is not None and len(v) != len(w):
        raise ValueError("the two words must have the same length")


def _print_rows(rows, fmt) -> int:
    if fmt == "json":
        sys.stdout.write(experiments.rows_to_jsonl(rows))
    else:
        sys.stdout.write(experiments.rows_to_csv(rows))
    return 1 if any(row.verdict == "FAIL" for row in rows) else 0


def _cmd_chess_table(args) -> int:
    return _print_rows(experiments.chess_table(args.n_max), args.format)


def _cmd_pair_sum(args) -> int:
    sys.stdout.write(f"{fock.pair_sum(args.v, args.w)}\n")
    return 0


def _cmd_scan(args) -> int:
    if args.v is not None:
        rows = [experiments.scan_row(args.v, args.w, args.p)]
    else:
        rows = experiments.general_e_scan(args.n_max, args.e, args.p)
    return _print_rows(rows, args.format)


def _cmd_word(args) -> int:
    models = ("fock", "poly") if args.model == "both" else (args.model,)
    if "poly" in models and args.e != 2:
        raise ValueError("the polynomial model needs --e 2")
    for model in models:
        sys.stdout.write(f"{model}:\n")
        if model == "fock":
            image, prefix = fock.decode(fock.apply_word(args.v)), ""
        else:
            image, prefix = polyrep.apply_word_poly(args.v), "p"
        lines = [f"  {c} {prefix}{format_partition(key)}"
                 for key, c in sorted(image.items(), key=lambda kv: sort_key(kv[0]))]
        sys.stdout.write("\n".join(lines) + "\n" if lines else "  0\n")
    return 0


def _record(claim: str, ok: bool, payload: dict) -> dict:
    """``payload`` with the claim and verdict of a check that returns a bool."""
    return {**payload, "claim": claim, "verdict": "PASS" if ok else "FAIL"}


def _run_suite(args):
    """Yield the JSON record, with claim and verdict, of every check in the
    requested suites.  Suite functions are looked up on their modules when
    they run, never stored at import: bench/tracer.py rebinds them to spans."""
    for suite, default in _SUITE_N.items():
        if args.suite not in (suite, "all"):
            continue
        n_max = default if args.n_max is None else args.n_max
        sizes = range(1, n_max + 1) if n_max else ()
        if suite == "q-image":
            records = (delta.verify_q_image(n, args.degree, side).to_json()
                       for n in sizes for side in ("multiply", "adjoint"))
        elif suite == "stability":
            records = [delta.verify_stability(args.degree).to_json()]
        elif suite == "generation":
            records = (r.to_json() for r in delta.generation_reports(n_max))
        elif suite == "pairing":
            records = (delta.verify_pairing(n).to_json() for n in sizes)
        elif suite == "bound":
            records = (r.to_json() for r in experiments.bound_reports(n_max))
        elif suite == "factorial":
            records = (_record(f"factorial[n={n}]",
                               experiments.factorial_check(n), {"n": n})
                       for n in sizes)
        elif suite == "cross-model":
            records = (_record(f"cross-model[n={s['n']}]", s["ok"], s)
                       for s in experiments.cross_model_reports(n_max))
        else:
            records = (_record(f"properties[{name}]", ok,
                               dict(detail, seed=args.seed))
                       for name, ok, detail in
                       experiments.property_checks(args.seed))
        yield from records


def _cmd_verify(args) -> int:
    failed = 0
    for record in _run_suite(args):
        if args.format == "json":
            sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            extra = ""
            if "required" in record:
                extra = (f" required={record['required']}"
                         f" observed={record['observed_min']}")
                if record.get("tight"):
                    extra += " tight"
            if record["verdict"] == "FAIL" and record.get("witnesses"):
                extra += f" witnesses={record['witnesses'][:3]!r}"
            sys.stdout.write(f"{record['verdict']} {record['claim']}{extra}\n")
        if record["verdict"] == "FAIL":
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
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        status = run(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # the reader left; devnull takes the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry() -> None:
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
