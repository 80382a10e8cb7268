"""Command-line interface: reproducible tables, pair sums, and verifier
suites.

Exit status: 0 when everything requested passes, 1 when any verifier or
table row reports FAIL, 2 for usage errors.  Output is byte-deterministic
for a fixed command line (including --seed).
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import delta, experiments, fock, polyrep
from .partitions import format_partition, sort_key
from .tableaux import ResidueWord

SUITES = ("q-image", "stability", "generation", "pairing", "bound",
          "factorial", "cross-model", "properties", "all")

_SUITE_DEFAULT_N = {"q-image": 8, "generation": 10, "pairing": 16,
                    "bound": 10, "factorial": 12, "cross-model": 8}


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments for one CLI run."""

    command: str
    n_max: int | None = None
    degree_bound: int = 12
    e: int = 2
    p: int = 2
    v: ResidueWord | None = None
    w: ResidueWord | None = None
    fmt: str = "csv"
    suite: str = "all"
    seed: int = 0
    model: str = "both"

    def __post_init__(self):
        for name, flag in (("n_max", "--n-max"), ("degree_bound", "--degree"),
                           ("e", "--e"), ("p", "--p")):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{flag} must be >= 1")
        if (self.v is None) != (self.w is None) and self.command != "word":
            raise ValueError("give both words or neither")
        if self.v is not None and self.w is not None:
            if len(self.v) != len(self.w):
                raise ValueError("the two words must have the same length")


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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    e = getattr(args, "e", 2)
    v = w = None
    if getattr(args, "v", None) is not None:
        v = _parse_word(args.v, e)
    if getattr(args, "w", None) is not None:
        w = _parse_word(args.w, e)
    return RunConfig(
        command=args.command,
        n_max=getattr(args, "n_max", None),
        degree_bound=getattr(args, "degree", 12),
        e=e,
        p=getattr(args, "p", 2),
        v=v,
        w=w,
        fmt=getattr(args, "format", "csv"),
        suite=getattr(args, "suite", "all"),
        seed=getattr(args, "seed", 0),
        model=getattr(args, "model", "both"),
    )


def _print_rows(rows, fmt, out) -> int:
    if fmt == "json":
        out.write(experiments.rows_to_jsonl(rows))
    else:
        out.write(experiments.rows_to_csv(rows))
    return 1 if any(row.verdict == "FAIL" for row in rows) else 0


def _cmd_chess_table(cfg: RunConfig, out) -> int:
    return _print_rows(experiments.chess_table(cfg.n_max or 18), cfg.fmt, out)


def _cmd_pair_sum(cfg: RunConfig, out) -> int:
    out.write(f"{fock.pair_sum(cfg.v, cfg.w)}\n")
    return 0


def _cmd_scan(cfg: RunConfig, out) -> int:
    if cfg.v is not None:
        try:
            rows = [experiments.scan_row(cfg.v, cfg.w, cfg.p)]
        except ArithmeticError as exc:  # a zero pair sum has no valuation row
            raise ValueError(str(exc)) from exc
    else:
        rows = experiments.general_e_scan(cfg.n_max or 12, cfg.e, cfg.p)
    return _print_rows(rows, cfg.fmt, out)


def _cmd_word(cfg: RunConfig, out) -> int:
    models = ("fock", "poly") if cfg.model == "both" else (cfg.model,)
    if "poly" in models and cfg.e != 2:
        raise ValueError("the polynomial model needs --e 2")
    for model in models:
        out.write(f"{model}:\n")
        if model == "fock":
            image = fock.decode(fock.apply_word(cfg.v))
            lines = [f"  {c} {format_partition(lam)}"
                     for lam, c in sorted(image.items(),
                                          key=lambda kv: sort_key(kv[0]))]
        else:
            image = polyrep.apply_word_poly(cfg.v)
            lines = [f"  {c} p{format_partition(mu)}"
                     for mu, c in sorted(image.items(),
                                         key=lambda kv: sort_key(kv[0]))]
        out.write("\n".join(lines) + "\n" if lines else "  0\n")
    return 0


def _run_suite(cfg: RunConfig):
    """Yield (name, verdict, payload) triples for the requested suite."""
    suite = cfg.suite
    degree = cfg.degree_bound

    def cap(name):
        return cfg.n_max if cfg.n_max is not None else _SUITE_DEFAULT_N[name]

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
        top = cap("bound")
        for r in experiments.bound_reports(
                top, limit=max(top, experiments.DEFAULT_SCAN_LIMIT)):
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
        for name, ok, detail in experiments.property_checks(cfg.seed):
            detail = dict(detail, seed=cfg.seed)
            yield (f"properties[{name}]", "PASS" if ok else "FAIL", detail)


def _cmd_verify(cfg: RunConfig, out) -> int:
    failed = 0
    for name, verdict, payload in _run_suite(cfg):
        if cfg.fmt == "json":
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


def run(cfg: RunConfig, out=None) -> int:
    return _COMMANDS[cfg.command](cfg, out if out is not None else sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(cfg)
    except ValueError as exc:
        parser.error(str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
