"""Run one chessfock CLI invocation with spans around each layer's public
functions, and write the per-function totals to a file descriptor.

Usage: python bench/tracer.py FD -- CLI-ARGS...

stdout, stderr and the exit status are those of ``python -m chessfock.cli
CLI-ARGS...``.  The spans are kept in memory and written once, as one JSON
object, to the inherited descriptor FD when the command has finished.

A function is traced by rebinding every name in every loaded ``chessfock``
module that refers to it, so ``from``-imports (``experiments.apply_f``,
``delta._q_star`` ...) go through the wrapper as well.  A span's self time
is its duration minus the durations of the spans it encloses; generators
get one span per ``next()``, so the work done while producing an item is
charged to the generator and not to its consumer.
"""

import functools
import json
import os
import sys
import time

#: module -> functions timed with a span.
SPANS = {
    "cli": ("run",),
    "experiments": ("chess_table", "general_e_scan", "factorize",
                    "exhaustive_bound_check", "cross_model_check"),
    "delta": ("verify_generation", "verify_stability", "gf2_rank",
              "delta_valuation"),
    "polyrep": ("adjoint_monomial", "_q_star", "_q_times", "op_generator",
                "inner_poly"),
    "fock": ("apply_f", "inner"),
    "arith": ("vp",),
}

#: module -> generator functions timed with one span per yielded item.
GENERATORS = {
    "fock": ("word_images",),
    "polyrep": ("poly_word_images",),
}

#: module -> functions only counted: they are called so often (about
#: 170k addable_cells calls in one chess table) that a span would distort
#: the time of their callers.
COUNTED = {
    "partitions": ("addable_cells", "enumerate_partitions"),
}


def _witness(label):
    return lambda report: dict(report.witnesses).get(label, 0)


#: "module.function" -> {counter: function of the return value}.
RESULT_COUNTS = {
    "fock.apply_f": {"terms_out": len},
    "delta.verify_generation": {"rows": _witness("distinct mod-2 rows")},
    "experiments.exhaustive_bound_check": {
        "pairings": _witness("nonzero pairings"),
        "distinct_images": _witness("distinct nonzero images"),
    },
    "experiments.cross_model_check": {"pairs": lambda summary: summary["pairs"]},
}


class Tracer:
    """Per-function totals and the stack of open spans."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def _stat(self, key, counters=()):
        stat = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        stat.update((name, 0) for name in counters)
        self.stats[key] = stat
        return stat

    def span(self, key, fn):
        counts = tuple(RESULT_COUNTS.get(key, {}).items())
        stat = self._stat(key, (name for name, _ in counts))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat["self_s"] += took - stack.pop()
                stat["total_s"] += took
                stat["calls"] += 1
                if stack:
                    stack[-1] += took
            for name, count in counts:
                stat[name] += count(result)
            return result

        return wrapper

    def generator(self, key, fn):
        stat = self._stat(key, ("words",))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            items = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    took = clock() - start
                    stat["self_s"] += took - stack.pop()
                    stat["total_s"] += took
                    if stack:
                        stack[-1] += took
                stat["words"] += 1
                yield item

        return wrapper

    def counted(self, key, fn):
        stat = self._stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target and rebind it wherever a chessfock module holds
        the original; returns the targets that were not found."""
        import chessfock.cli  # noqa: F401  (loads every traced module)

        modules = [m for name, m in sys.modules.items()
                   if name == "chessfock" or name.startswith("chessfock.")]
        missing = []
        for table, make in ((SPANS, self.span), (GENERATORS, self.generator),
                            (COUNTED, self.counted)):
            for module_name, names in table.items():
                home = sys.modules[f"chessfock.{module_name}"]
                for name in names:
                    key = f"{module_name}.{name}"
                    original = getattr(home, name, None)
                    if original is None:
                        missing.append(key)
                        self._stat(key)
                        continue
                    wrapper = make(key, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
        return missing


def main(argv):
    fd = int(argv[0])
    if argv[1] != "--":
        raise SystemExit("usage: tracer.py FD -- CLI-ARGS...")
    tracer = Tracer()
    missing = tracer.install()
    from chessfock import cli

    start = time.perf_counter()
    try:
        code = cli.main(argv[2:])
    except SystemExit as exc:
        code = exc.code
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with os.fdopen(fd, "w") as side:
        json.dump({"stats": tracer.stats, "missing": missing,
                   "main_s": main_s}, side)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
