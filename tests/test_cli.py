import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chessfock import delta, experiments
from chessfock.cli import SUITES, _SUITES, _validate, build_parser, main


GOLDEN_DIR = Path(__file__).parent / "golden"
#: bench/golden.json: the stdout sha256 and exit code the benchmark checks
#: for each command it runs.
BENCH_DIGESTS = json.loads(
    (Path(__file__).parent.parent / "bench" / "golden.json").read_text())

#: (fixture name, argv, exit code); each fixture is the stdout the command
#: printed before a rewrite of the code it runs: the first six before the
#: Fock layer moved to integer coefficients, the bound one before the bound
#: suite became one pass over distinct images, the stability and
#: generation ones before the generator columns moved to integers, the
#: e = 4 scan and the e = 3 word before Fock vectors were keyed by bead ints,
#: the cross-model and generation-to-15 ones before every word suite moved
#: onto the level walk over distinct images, the n = 40 chess table and
#: e = 3 scan before factorize skipped blocks of primes by one gcd, the two
#: text-mode verify runs before the CLI printed the suites' records as is,
#: the e = 1 and e = 5 scans before every add-cell step took one mask per
#: class of shapes.
GOLDEN = [
    ("chess_table_24_csv", "chess-table --n-max 24", 0),
    ("chess_table_24_json", "chess-table --n-max 24 --format json", 0),
    ("scan_9", "scan --n-max 9", 0),
    ("pair_sum_e3", "pair-sum --e 3 --v 0,1,2 --w 0,1,2", 0),
    ("word_both", "word --v 0,1,0,1,1 --model both", 0),
    ("verify_all_json", "verify --suite all --format json", 0),
    ("verify_bound_12_json", "verify --suite bound --n-max 12 --format json", 0),
    ("verify_stability_14_json",
     "verify --suite stability --degree 14 --format json", 0),
    ("verify_generation_12_json",
     "verify --suite generation --n-max 12 --format json", 0),
    ("scan_e4_30", "scan --n-max 30 --e 4 --p 2", 0),
    ("word_fock_e3", "word --e 3 --v 0,2,1,0,2,1,1,0 --model fock", 0),
    ("verify_cross_model_12_json",
     "verify --suite cross-model --n-max 12 --format json", 0),
    ("verify_generation_15_json",
     "verify --suite generation --n-max 15 --format json", 0),
    ("chess_table_40_csv", "chess-table --n-max 40", 0),
    ("scan_e3_40", "scan --n-max 40 --e 3 --p 3", 0),
    ("verify_all_text", "verify --suite all", 0),
    ("verify_q_image_9_text", "verify --suite q-image --n-max 9 --degree 2", 0),
    ("scan_e1_30", "scan --n-max 30 --e 1 --p 2", 0),
    ("scan_e5_30", "scan --n-max 30 --e 5 --p 5", 0),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name,argv,exit_code", GOLDEN,
                         ids=[name for name, _, _ in GOLDEN])
def test_golden_stdout(capsys, name, argv, exit_code):
    code, out = run_cli(capsys, *argv.split())
    assert code == exit_code
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv", BENCH_DIGESTS, ids=list(BENCH_DIGESTS))
def test_bench_golden_digests(capsys, argv):
    # the benchmark rejects a run whose stdout digest or exit code moves
    expected = BENCH_DIGESTS[argv]
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == expected["exit"]
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == expected["sha256"]


def test_chess_table_csv(capsys):
    code, out = run_cli(capsys, "chess-table", "--n-max", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,v2,bound,factorization,verdict"
    assert lines[7] == "7,48,4,4,2^4*3,PASS"
    assert len(lines) == 8


def test_chess_table_is_byte_deterministic(capsys):
    _, first = run_cli(capsys, "chess-table", "--n-max", "12", "--format", "json")
    _, second = run_cli(capsys, "chess-table", "--n-max", "12", "--format", "json")
    assert first == second
    assert json.loads(first.strip().split("\n")[9])["v2"] == 11


def test_pair_sum(capsys):
    code, out = run_cli(capsys, "pair-sum", "--e", "2",
                        "--v", "0,1,0,1", "--w", "0,1,0,1")
    assert code == 0 and out == "4\n"
    code, out = run_cli(capsys, "pair-sum", "--e", "2",
                        "--v", "0,1,0,1,0,1,0", "--w", "0,1,0,1,0,1,0")
    assert out == "48\n"
    code, out = run_cli(capsys, "pair-sum", "--e", "3",
                        "--v", "0,1,2", "--w", "0,1,2")
    assert out == "2\n"
    # a modulus far past the word length: the one chain ends at (1, 1, 1)
    code, out = run_cli(capsys, "pair-sum", "--e", str(10**20),
                        "--v", "0,1,2", "--w", "0,1,2")
    assert code == 0 and out == "1\n"


def test_usage_errors_exit_two(capsys, monkeypatch):
    for argv, message in (
        (["pair-sum", "--v", "0,1"], ""),                # missing --w
        (["pair-sum", "--v", "0,1", "--w", "0"],         # length mismatch
         "error: words differ in length: 2 vs 1"),
        (["pair-sum", "--v", "0,2", "--w", "0,1"], ""),  # bad letter for e=2
        (["pair-sum", "--v", "zz", "--w", "0,1"], ""),   # unparsable word
        (["verify", "--suite", "nonsense"], ""),         # unknown suite
        (["scan", "--p", "6"], ""),                      # composite prime
        (["scan", "--p", "1000000000000000001"], ""),    # 101 divides it
        (["scan", "--p", "3317044064679887385961981"],  # past the primality test
         "error: primality is decided only below"),
        # the lattice suites name the degree their images would reach
        (["verify", "--suite", "stability", "--degree", "300"],
         "error: degree 301 is above 255"),
        # q-image refuses before its first basis monomial, also within all
        (["verify", "--suite", "q-image", "--degree", "300"],
         "error: degree 301 is above 255"),
        (["verify", "--suite", "all", "--degree", "300"],
         "error: degree 301 is above 255"),
        # the word walks refuse before walking, not at a degree-255 column
        (["verify", "--suite", "generation", "--n-max", "256"],
         "error: degree 256 is above 255"),
        (["verify", "--suite", "cross-model", "--n-max", "256"],
         "error: degree 256 is above 255"),
        # q-image refuses the first degree above 255 its scan would reach,
        # and all makes every suite's stream before it prints a record
        (["verify", "--suite", "q-image", "--n-max", "256", "--degree", "1"],
         "error: degree 256 is above 255"),
        (["verify", "--suite", "all", "--n-max", "256"],
         "error: degree 256 is above 255"),
        (["word", "--e", "3", "--v", "0,1,2", "--model", "poly"], ""),
        (["nonsense"], ""),
        (["--threads", "4", "chess-table"], ""),         # removed option
        # range errors name the flag the user typed
        (["verify", "--degree", "0"], "error: --degree must be >= 1"),
        (["chess-table", "--n-max", "0"], "error: --n-max must be >= 1"),
        (["scan", "--e", "0"], "error: --e must be >= 1"),
        # ... also when words are given, which are parsed after the ranges
        (["pair-sum", "--e", "0", "--v", "0", "--w", "0"],
         "error: --e must be >= 1"),
        (["word", "--e", "0", "--v", "0"], "error: --e must be >= 1"),
        (["scan", "--e", "0", "--v", "0", "--w", "0"],
         "error: --e must be >= 1"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "", argv
    # all makes every suite's stream before its first record, so a refusal
    # by its last suite prints none of the records of the suites before it
    def refuse(args, n_max):
        raise ValueError("refused")

    monkeypatch.setitem(_SUITES, "properties", (None, refuse))
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "all", "--n-max", "2", "--degree", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_scan_zero_pair_sum_is_a_usage_error(capsys):
    # the library raises ValueError, which the CLI reports as exit 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--e", "2", "--p", "2", "--v", "1,0", "--w", "1,0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the pair sum is 0" in captured.err
    assert "Traceback" not in captured.err


def test_scan_observational(capsys):
    code, out = run_cli(capsys, "scan", "--n-max", "5", "--e", "3", "--p", "3")
    assert code == 0
    assert all(line.endswith("OBS") for line in out.strip().split("\n")[1:])


def test_scan_at_a_prime_past_trial_division(capsys):
    code, out = run_cli(capsys, "scan", "--n-max", "2", "--e", "3",
                        "--p", "1000000000000000003")
    assert code == 0
    assert out.split("\n")[1:] == ["1,1,0,,1,OBS", "2,1,0,,1,OBS", ""]


def test_scan_defaults_are_exploratory(capsys):
    # bare `scan` reports the e=3 cyclic words at p=3; n=1..3 images pair to
    # 1, 1, 2 and no bound is claimed away from e = p = 2
    code, out = run_cli(capsys, "scan", "--n-max", "3")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert [line.split(",")[1] for line in lines] == ["1", "1", "2"]
    assert all(line.split(",")[3] == "" for line in lines)


def test_scan_explicit_words(capsys):
    code, out = run_cli(capsys, "scan", "--e", "2", "--p", "2",
                        "--v", "0,1,0,1,0,1,0", "--w", "0,1,0,1,0,1,0")
    assert code == 0
    assert out.strip().split("\n")[1] == "7,48,4,4,2^4*3,PASS"


def test_word_command(capsys):
    code, out = run_cli(capsys, "word", "--e", "2", "--v", "0,1", "--model", "both")
    assert code == 0
    assert out == ("fock:\n  1 [2]\n  1 [1,1]\npoly:\n  1 p[1,1]\n")
    code, out = run_cli(capsys, "word", "--e", "2", "--v", "1", "--model", "fock")
    assert out == "fock:\n  0\n"


def test_verify_quick_suites(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "pairing", "--n-max", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("PASS pairing[") for line in lines)

    code, out = run_cli(capsys, "verify", "--suite", "generation", "--n-max", "5")
    assert code == 0 and len(out.strip().split("\n")) == 5

    code, out = run_cli(capsys, "verify", "--suite", "q-image",
                        "--n-max", "3", "--degree", "6", "--format", "json")
    assert code == 0
    for line in out.strip().split("\n"):
        assert json.loads(line)["verdict"] == "PASS"


def test_verify_properties_suite_deterministic(capsys):
    code, first = run_cli(capsys, "verify", "--suite", "properties",
                          "--seed", "5")
    assert code == 0
    assert all(line.startswith("PASS properties[")
               for line in first.strip().split("\n"))
    _, again = run_cli(capsys, "verify", "--suite", "properties", "--seed", "5")
    assert first == again


def test_verify_exit_code_reflects_failures(capsys, monkeypatch):
    from chessfock import cli as cli_module

    def fake_suite(cfg):
        yield {"claim": "fake[1]", "verdict": "PASS"}
        yield {"claim": "fake[2]", "verdict": "FAIL"}

    monkeypatch.setattr(cli_module, "_run_suite", fake_suite)
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 1
    assert "FAIL fake[2]" in out


def test_verify_text_lists_the_first_three_witnesses_of_a_failure(
        capsys, monkeypatch):
    from chessfock import cli as cli_module

    def fake_suite(cfg):
        yield {"claim": "fake[1]", "verdict": "FAIL", "required": 2,
               "observed_min": 1, "tight": False,
               "witnesses": [["v=0 w=0", 1], ["a", 2], ["b", 3], ["c", 4]]}

    monkeypatch.setattr(cli_module, "_run_suite", fake_suite)
    code, out = run_cli(capsys, "verify", "--suite", "bound")
    assert code == 1
    assert out == ("FAIL fake[1] required=2 observed=1 witnesses="
                   "[['v=0 w=0', 1], ['a', 2], ['b', 3]]\n")


def test_verify_records_carry_the_verdict_of_a_bool_check(capsys,
                                                          monkeypatch):
    # suite functions are looked up on their modules as the suite runs, so
    # the patched checks are the ones the CLI calls
    monkeypatch.setattr(experiments, "factorial_check", lambda n: n != 2)
    code, out = run_cli(capsys, "verify", "--suite", "factorial", "--n-max", "3")
    assert code == 1
    assert out == ("PASS factorial[n=1]\nFAIL factorial[n=2]\n"
                   "PASS factorial[n=3]\n")
    monkeypatch.setattr(experiments, "property_checks",
                        lambda seed: [("fake", False, {"trials": 1})])
    code, out = run_cli(capsys, "verify", "--suite", "properties",
                        "--seed", "4", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"claim": "properties[fake]", "seed": 4,
                               "trials": 1, "verdict": "FAIL"}


def test_run_config_validation(capsys):
    def validated(*argv):
        args = build_parser().parse_args(list(argv))
        _validate(args)
        return args

    args = validated("chess-table", "--n-max", "5")
    assert args.command == "chess-table" and args.n_max == 5
    with pytest.raises(ValueError, match="--n-max must be >= 1"):
        validated("chess-table", "--n-max", "0")
    with pytest.raises(ValueError, match="give both words or neither"):
        validated("scan", "--v", "0,1")
    with pytest.raises(ValueError, match="give both words or neither"):
        validated("scan", "--w", "0,1")
    args = validated("scan", "--v", "0,1", "--w", "1,0")
    assert len(args.v) == len(args.w) == 2
    # unequal words pass validation and are refused by fock.pair_sum, which
    # both pair-sum and scan --v/--w run
    validated("scan", "--v", "0,1", "--w", "0")
    for command in ("pair-sum", "scan"):
        with pytest.raises(SystemExit) as err:
            main([command, "--v", "0,1", "--w", "0"])
        assert err.value.code == 2
        assert "error: words differ in length: 2 vs 1" in capsys.readouterr().err


@pytest.mark.parametrize("suite,module,check,calls", [
    ("bound", experiments, "exhaustive_bound_check", [1, 2, 3, 4, 5]),
    ("generation", delta, "verify_generation", [1, 2, 3, 4, 5]),
    ("cross-model", experiments, "cross_model_check", [1, 2, 3, 4, 5]),
    ("q-image", delta, "verify_q_image", [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]),
    ("stability", delta, "verify_stability", [3]),
    ("pairing", delta, "verify_pairing", [1, 2, 3, 4, 5]),
], ids=["bound", "generation", "cross-model", "q-image", "stability",
        "pairing"])
def test_verify_calls_the_per_length_check_once_per_n(capsys, monkeypatch,
                                                      suite, module, check,
                                                      calls):
    # the benchmark's tracer counts these names and rebinds them on their
    # modules, so the suites must look them up there as they run: every
    # record printed is one the patched function returned
    original = getattr(module, check)
    seen = []

    def patched(n, *rest):
        seen.append(n)
        result = original(n, *rest)
        if isinstance(result, dict):  # a cross-model summary
            return dict(result, n=f"patched {result['n']}")
        return result._replace(claim=f"patched {result.claim}")

    monkeypatch.setattr(module, check, patched)
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n-max", "5",
                        "--degree", "3")
    assert code == 0
    assert seen == calls
    lines = out.splitlines()
    assert len(lines) == len(calls)
    assert all(line.startswith("PASS ") and "patched" in line
               for line in lines), out


_SMALL = st.integers(-1, 8).map(str)
_WORD = st.one_of(
    st.lists(st.integers(-1, 4), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "a", "0,,1", "0;1", " 1", "1.5", "0,1,"]),
)
_E = st.integers(-1, 4).map(str)
_P = st.sampled_from("12345")


def _argv(command, required, optional):
    options = st.fixed_dictionaries(required, optional=optional)
    return options.map(lambda opts: [command] + [
        piece for flag, value in opts.items() for piece in (flag, value)])


_ARGV = st.one_of(
    _argv("chess-table", {}, {"--n-max": _SMALL,
                              "--format": st.sampled_from(["csv", "json", "xml"])}),
    _argv("pair-sum", {}, {"--e": _E, "--v": _WORD, "--w": _WORD}),
    _argv("scan", {}, {"--n-max": _SMALL, "--e": _E, "--p": _P, "--v": _WORD,
                       "--w": _WORD, "--format": st.sampled_from(["csv", "json"])}),
    # --n-max and --degree are always given: their defaults reach sizes
    # that take seconds
    _argv("verify", {"--n-max": _SMALL, "--degree": _SMALL},
          {"--suite": st.sampled_from(SUITES + ("none",)),
           "--seed": st.integers(-5, 5).map(str),
           "--format": st.sampled_from(["text", "json"])}),
    _argv("word", {}, {"--e": _E, "--v": _WORD,
                       "--model": st.sampled_from(["fock", "poly", "both"])}),
)


@settings(max_examples=80, deadline=None)
@given(argv=_ARGV)
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_cli_start_up_imports_no_dataclasses():
    # a fresh interpreter, as every command-line run starts; dataclasses,
    # with the inspect, ast, dis and tokenize it loads, was the largest
    # part of the package's import
    code = ("import sys, chessfock.cli\n"
            "chessfock.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout == "[]\n"


def test_a_closed_pipe_ends_quietly():
    # the reader takes one line and closes stdout while verify still
    # writes; unbuffered, so each line is its own write
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "chessfock.cli", "verify", "--suite",
         "bound", "--n-max", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=src)
    assert proc.stdout.readline().startswith("PASS bound[n=1]")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err, err


def test_entry_freezes_the_heap_once_on_every_exit(capsys, monkeypatch):
    # the counter stands in for gc.freeze, so pytest's own heap stays
    # collectable
    from chessfock import cli as cli_module

    freezes = []
    monkeypatch.setattr(cli_module.gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(experiments, "factorial_check", lambda n: n != 2)
    for argv, code in (("chess-table --n-max 3", 0),
                       ("verify --suite factorial --n-max 3", 1),
                       ("verify --suite nope", 2)):
        freezes.clear()
        monkeypatch.setattr(sys, "argv", ["chessfock", *argv.split()])
        with pytest.raises(SystemExit) as exc:
            cli_module.entry()
        assert exc.value.code == code, argv
        assert freezes == [1], argv
    out = capsys.readouterr()
    assert "FAIL factorial[n=2]" in out.out
    assert "nope" in out.err


@pytest.mark.parametrize("name,argv", [
    ("chess_table_24_csv", "chess-table --n-max 24"),
    ("verify_bound_12_json", "verify --suite bound --n-max 12 --format json"),
], ids=["chess_table_24_csv", "verify_bound_12_json"])
def test_a_fresh_process_prints_the_golden(name, argv):
    # through entry() and the frozen heap at exit, as a user's run ends
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "chessfock.cli", *argv.split()],
        capture_output=True, cwd=src, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN_DIR / f"{name}.out").read_bytes()


def test_the_readme_command_line_names_only_what_the_parser_defines():
    # every command written out in the README's "Command line" section, in
    # a code block or a code span, names a subcommand and only its flags,
    # and every flag named anywhere in the section is one the parser has
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    start = readme.index("\n## Command line\n")
    section = readme[start:readme.index("\n## ", start + 1)]
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {name: {flag for action in command._actions
                    for flag in action.option_strings}
             for name, command in commands.items()}
    blocks = re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", section,
                                                flags=re.M | re.S))
    written = [line for block in blocks for line in block.splitlines()]
    assert len(written) >= 8
    for text in written + spans:
        words = text.removeprefix("chessfock ").split()
        if text.startswith("chessfock "):
            assert words[0] in commands, text
        if words and words[0] in commands:
            assert set(re.findall(r"--[\w-]+", text)) <= flags[words[0]], text
    assert set(re.findall(r"--[\w-]+", section)) <= set().union(*flags.values())


def test_the_readme_suite_ledger_matches_the_registry_and_ci():
    # one ledger row per verify suite, in the order of cli._SUITES, with its
    # default --n-max and the largest --n-max/--degree that a CI step of its
    # own runs: "`all`" if none does, "no size" if its steps give no size
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    start = readme.index("\n| suite | statement it checks |")
    table = readme[start + 1:readme.index("\n\n", start)].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")]
            for line in table]
    reach = {}
    for suite, rest in re.findall(r"verify --suite ([\w-]+)(.*)", workflow):
        sizes = reach.setdefault(suite, {})
        for flag, value in re.findall(r"(--n-max|--degree) (\d+)", rest):
            sizes[flag] = max(sizes.get(flag, 0), int(value))
    assert [row[0] for row in rows] == [f"`{name}`" for name in _SUITES]
    for (name, (default, _)), row in zip(_SUITES.items(), rows):
        assert len(row) == 5, row
        assert row[2] == (str(default) if default else "—"), name
        if name not in reach:
            assert row[3] == "`all`", name
        else:
            assert row[3] == (" ".join(f"`{flag} {value}`" for flag, value
                                       in reach[name].items()) or "no size"), name
