import ast
import json
import os
import random
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emb7
from conftest import fresh_python, to_json
from emb7 import cli
from emb7.cli import COMMANDS, main
from emb7.exact import IntMatrix
from emb7.manifolds import builtin
from emb7.moves import Move


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# The exit-1 and exit-2 halves of the contract, each on (code, out, err).
def failure(code, out, err) -> dict:
    """The payload of a domain failure: exit 1, one JSON object on stdout
    and nothing on stderr."""
    assert (code, err, out.count("\n")) == (1, "", 1)
    return json.loads(out)


def unreadable(code, out, err) -> str:
    """The stderr of an input that cannot be read: exit 2, nothing on
    stdout and one `emb7: ` line on stderr, never a traceback."""
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("emb7: ")
    return err


def usage_error(code, out, err) -> tuple:
    """The usage line and the message of a usage error: exit 2, nothing on
    stdout, and on stderr the usage line of the command path read, then one
    error line."""
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    prog = usage[len("usage: "):usage.index(" [-h]")]
    assert usage.startswith("usage: emb7 ")
    assert error.startswith(prog + ": error: ")
    return usage, error[len(prog + ": error: "):]


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        assert "missing.json" in unreadable(*run(capsys, "validate",
                                                  "missing.json"))

    @pytest.mark.parametrize("command", [
        ("validate",),
        ("k-group", "--u", "[]", "--L", "[[3]]", "--manifold"),
    ])
    def test_directory_is_usage_error(self, capsys, tmp_path, command):
        assert str(tmp_path) in unreadable(*run(capsys, *command,
                                                str(tmp_path)))

    def test_enum_cap_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("EMB7_ENUM_CAP", "abc")
        payload = failure(*run(capsys, "kappa-enum", "--manifold", "s2xs2",
                               "--bound", "1"))
        assert "EMB7_ENUM_CAP" in payload["error"]

    def test_result_too_large_to_print(self, capsys):
        nines = "9" * 2500
        message = failure(*run(
            capsys, "move", "apply", "--manifold", "t2xs2",
            "--class", '{"u":[0,0],"L":[[0,0],[0,0]],"beta":[0,0]}',
            "--move", f"{nines},0,{nines},1"))["error"]
        assert message.startswith("result is too large to print")
        assert "set_int_max_str_digits" not in message

    def test_integer_string_too_long(self, capsys):
        nines = "9" * 5000
        assert failure(*run(
            capsys, "classify", "equal", "--manifold", "s1xs3",
            "--class1", '{"u":[],"L":[["3"]],"beta":["%s"]}' % nines,
            "--class2", '{"u":[],"L":[["3"]],"beta":["1"]}'))["error"] == (
            "integer too long: 5000 digits, more than the limit of "
            f"{sys.get_int_max_str_digits()}")

    def test_manifold_number_too_long(self, capsys, tmp_path):
        text = json.dumps(to_json(builtin("s1xs3")))
        assert '"sigma": "0"' in text
        path = tmp_path / "long.json"
        path.write_text(text.replace('"sigma": "0"', '"sigma": ' + "9" * 5000))
        assert failure(*run(capsys, "k-group", "--manifold", str(path),
                            "--u", "[]", "--L", "[[3]]"))["error"] == (
            "integer too long: 5000 digits, more than the limit of "
            f"{sys.get_int_max_str_digits()}")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "tau", "equal", "1", "2", "--frob")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_domain_failure_is_exit_one(self, capsys):
        assert "error" in failure(*run(capsys, "kappa-check", "--manifold",
                                       "cp2", "--u", "[1, 2]"))

    @pytest.mark.parametrize("argv, error", [
        (["reghom", "--L0", "[[1],[2]]", "--L1", "[[1],[2]]"],
         "L0 has shape (2, 1), expected square"),
        (["reghom", "--L0", "[[1,2]]", "--L1", "[[1,2]]"],
         "L0 has shape (1, 2), expected square"),
        (["compress-check", "--u", "[0]", "--L", "[[0],[0]]"],
         "L has shape (2, 1), expected square"),
    ])
    def test_non_square_form_is_domain_failure(self, capsys, argv, error):
        assert failure(*run(capsys, *argv)) == {"error": error}

    def test_invalid_manifold_file(self, capsys, tmp_path):
        bad = to_json(builtin("s2xs2"))
        bad["sigma"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        payload = failure(*run(capsys, "validate", str(path)))
        assert payload["valid"] is False and payload["violations"]

    def test_manifold_missing_fields(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"b1": 1, "b2": 0}')
        payload = failure(*run(capsys, "validate", str(path)))
        assert payload["valid"] is False and "Q" in payload["violations"][0]
        assert "error" in failure(*run(capsys, "fiber", "--manifold",
                                       str(path), "--L", "[[0]]"))

    def test_class_not_an_object_is_usage_error(self, capsys):
        for argv in (("move", "apply", "--manifold", "s1xs3",
                      "--class", "[1]", "--move", "1,0,5"),
                     ("classify", "equal", "--manifold", "s1xs3",
                      "--class1", "[1]",
                      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'),
                     ("classify", "equal", "--manifold", "s1xs3",
                      "--class1", '{"u": []}',
                      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}')):
            usage_error(*run(capsys, *argv))

    def test_negative_cap_is_usage_error(self, capsys):
        usage_error(*run(capsys, "fiber", "--manifold", "s1xs3",
                         "--L", "[[0]]", "--enumerate", "--cap", "-1"))

    def test_cap_above_listing_limit_is_usage_error(self, capsys):
        usage_error(*run(capsys, "fiber", "--manifold", "s1xs3", "--L",
                         "[[0]]", "--enumerate",
                         "--cap", str(cli.MAX_LISTED + 1)))

    @pytest.mark.parametrize("argv, size", [
        (["--u", "[2000,0]", "--L", "[[0,0],[2000,0]]"], "4000000"),
        (["--L", "[[0,0],[0,0]]", "--cap", "400000"], "infinite"),
    ], ids=["finite", "capped"])
    def test_listing_too_large_is_domain_failure(self, capsys, argv, size):
        # more than MAX_LISTED integers (classes x b1) to list: refused
        # before any class is built, with the size and the way out
        payload = failure(*run(capsys, "fiber", "--manifold", "t2xs2",
                               "--enumerate", *argv))
        assert f"fiber of size {size} " in payload["error"]
        assert "--cap of at most 250000" in payload["error"]

    def test_resolution_out_of_range_is_usage_error(self, capsys):
        for res in ("0", "33", "1000000"):
            usage_error(*run(capsys, "link", "tau", "--l", "1",
                             "--b", "0", "--resolution", res))

    def test_unconverged_link_is_exit_one(self, capsys):
        # resolution 5 rounds tau(4, 0) to 3 with residual 0.22: the check
        # fails, and the payload still reports what was measured
        payload = failure(*run(capsys, "link", "tau", "--l", "4",
                               "--b", "0", "--resolution", "5"))
        assert payload["pass"] is False
        assert set(payload) == {"estimate", "value", "residual", "pass"}

    def test_memory_error_is_domain_failure(self, capsys, monkeypatch):
        import emb7.exact

        def exhausted(matrix):
            raise MemoryError

        monkeypatch.setattr(emb7.exact, "smith_normal_form", exhausted)
        assert "error" in failure(*run(capsys, "snf", "--matrix", "[[1]]"))

    def test_removed_link_flags_are_usage_errors(self, capsys):
        for flag in (("--backend", "python"), ("--json",)):
            usage_error(*run(capsys, "link", "tau", "--l", "1",
                             "--b", "0", "--resolution", "3", *flag))

    def test_l_out_of_range_is_usage_error(self, capsys):
        for l in ("1001", "-1001"):
            usage_error(*run(capsys, "link", "tau", "--l", l, "--b", "0"))

    def test_l_at_bound_ends_in_json(self, capsys):
        assert failure(*run(capsys, "link", "tau", "--l", "-1000",
                            "--b", "0", "--resolution", "1"))["pass"] is False


def memory_capped_python(*args, limit=1 << 30) -> subprocess.CompletedProcess:
    """`python *args` like `fresh_python`, in a child whose address space is
    capped at `limit` bytes; the cap is set in the child only."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(emb7.__file__)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60, preexec_fn=cap)


class TestLinkTauMemory:
    @pytest.mark.parametrize("l", ["8", "50"])
    def test_steep_twist_fits_in_one_gigabyte(self, l):
        # the separation certificate is closed form, so |l| costs no memory
        proc = memory_capped_python("-m", "emb7.cli", "link", "tau",
                                    "--l", l, "--b", "0", "--resolution", "1")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.count("\n") == 1
        # an unconverged estimate, or its error message: not a memory error
        assert isinstance(json.loads(proc.stdout), dict)
        assert "out of memory" not in proc.stdout


class TestFiberListingMemory:
    def test_large_fiber_ends_in_json_under_one_gigabyte(self):
        # 4 * 10^6 classes: without the listing guard this grew past 1 GB
        t0 = time.perf_counter()
        proc = memory_capped_python(
            "-m", "emb7.cli", "fiber", "--manifold", "t2xs2",
            "--u", "[2000,0]", "--L", "[[0,0],[2000,0]]", "--enumerate")
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert "--cap" in json.loads(proc.stdout)["error"]
        assert elapsed < 1.0


class TestGoldenOutputs:
    def test_tau_equal(self, capsys):
        code, out, _ = run(capsys, "tau", "equal", "2", "1", "2", "5")
        assert code == 0
        assert out == '{"equal": true}\n'

    def test_fiber_z6(self, capsys):
        code, out, _ = run(capsys, "fiber", "--manifold", "s1xs3",
                           "--L", "[[3]]")
        assert code == 0
        assert json.loads(out) == {"factors": ["6"], "size": "6"}

    def test_fiber_infinite(self, capsys):
        code, payload = run_json(capsys, "fiber", "--manifold", "s1xs3",
                                 "--L", "[[0]]")
        assert code == 0
        assert payload["size"] == "infinite"

    def test_snf(self, capsys):
        code, payload = run_json(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
        assert code == 0
        assert payload["D"] == [["2", "0"], ["0", "4"]]

    def test_validate_builtin_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(to_json(builtin("t2xs2"))))
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 0
        assert payload == {"valid": True}

    def test_kappa_enum(self, capsys):
        code, out, _ = run(capsys, "kappa-enum", "--manifold", "cp2",
                           "--bound", "3")
        assert code == 0
        assert out == '{"values": [["-1"], ["1"]]}\n'

    def test_decimal_strings_survive_big_integers(self, capsys):
        big = str(2 ** 80)
        code, payload = run_json(capsys, "snf", "--matrix", f'[["{big}"]]')
        assert code == 0
        assert payload["D"] == [[big]]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "k-group", "--manifold", "s1xs3",
                            "--u", "[]", "--L", "[[3]]")
            outs.add(out)
        assert len(outs) == 1

    def test_link_tau_deterministic(self, capsys):
        argv = ("link", "tau", "--l", "0", "--b", "0", "--resolution", "3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestCommands:
    def test_kappa_check(self, capsys):
        code, payload = run_json(capsys, "kappa-check", "--manifold", "cp2",
                                 "--u", "[1]")
        assert code == 0 and payload == {"admissible": True}

    def test_sym_check(self, capsys):
        code, payload = run_json(capsys, "sym-check", "--manifold", "t2xs2",
                                 "--u", "[1,0]", "--L", "[[0,0],[1,0]]")
        assert code == 0 and payload == {"symmetric": True}

    def test_whitney(self, capsys):
        code, payload = run_json(capsys, "whitney", "--manifold", "s1xs3",
                                 "--L", "[[3]]")
        assert code == 0 and payload == {"W": ["1"]}

    def test_reghom(self, capsys):
        code, payload = run_json(capsys, "reghom", "--L0", "[[1]]",
                                 "--L1", "[[3]]")
        assert code == 0 and payload == {"equivalent": True}

    def test_compress_check(self, capsys):
        code, payload = run_json(capsys, "compress-check", "--u", "[0]",
                                 "--L", "[[0]]")
        assert code == 0 and payload["necessary_condition"] is True

    def test_move_apply(self, capsys):
        code, payload = run_json(
            capsys, "move", "apply", "--manifold", "s1xs3",
            "--class", '{"u": [], "L": [["0"]], "beta": ["0"]}',
            "--move", "1,0,5")
        assert code == 0
        assert payload["class"]["beta"] == ["5"]

    def test_move_nonzero_l_clears_beta(self, capsys):
        code, payload = run_json(
            capsys, "move", "apply", "--manifold", "s1xs3",
            "--class", '{"u": [], "L": [["2"]], "beta": ["0"]}',
            "--move", "1,3,0")
        assert code == 0
        assert payload["class"]["L"] == [["5"]]
        assert payload["class"]["beta_known"] is False

    def test_decompose(self, capsys):
        code, payload = run_json(capsys, "decompose", "--manifold", "t2xs2",
                                 "--form", "[[2,1],[1,0]]")
        assert code == 0
        assert payload["moves"]

    def test_classify_equal(self, capsys):
        code, payload = run_json(
            capsys, "classify", "equal", "--manifold", "s1xs3",
            "--class1", '{"u": [], "L": [["3"]], "beta": ["1"]}',
            "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}')
        assert code == 0 and payload["equal"] is True

    def test_classify_beta_unknown_is_domain_error(self, capsys):
        code, payload = run_json(
            capsys, "classify", "equal", "--manifold", "s1xs3",
            "--class1", '{"u": [], "L": [["3"]]}',
            "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}')
        assert code == 1 and "error" in payload

    def test_fiber_enumerate_cap(self, capsys):
        code, payload = run_json(capsys, "fiber", "--manifold", "s1xs3",
                                 "--L", "[[0]]", "--enumerate", "--cap", "5")
        assert code == 0
        assert payload["classes"] == [["0"], ["1"], ["-1"], ["2"], ["-2"]]
        assert payload["truncated"] is True

    def test_fiber_builds_one_group(self, capsys, monkeypatch):
        import emb7.classify
        real = emb7.classify.k_group
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(emb7.classify, "k_group", counting)
        for extra in ((), ("--enumerate",)):
            calls.clear()
            code, payload = run_json(capsys, "fiber", "--manifold", "t2xs2",
                                     "--u", "[2,0]", "--L", "[[0,0],[2,0]]",
                                     *extra)
            assert code == 0 and payload["factors"] == ["2", "2"]
            assert len(calls) == 1

    def test_link_tau(self, capsys):
        code, payload = run_json(capsys, "link", "tau", "--l", "1",
                                 "--b", "0", "--resolution", "5")
        assert code == 0
        assert payload["value"] == 1 and payload["pass"] is True
        assert set(payload) == {"estimate", "value", "residual", "pass"}

    def test_link_tau_unconverged(self, capsys):
        # resolution 1 estimates tau(2, 0) as 0.691, not near an integer
        code, payload = run_json(capsys, "link", "tau", "--l", "2",
                                 "--b", "0", "--resolution", "1")
        assert code == 1
        assert "error" in payload

    def test_enum_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EMB7_ENUM_CAP", "3")
        code, payload = run_json(capsys, "kappa-enum", "--manifold", "s2xs2",
                                 "--bound", "2")
        assert code == 1 and "error" in payload
        monkeypatch.setenv("EMB7_ENUM_CAP", "1000000")
        code, _ = run_json(capsys, "kappa-enum", "--manifold", "s2xs2",
                           "--bound", "2")
        assert code == 0


# A complete argv after each command path, parsed but never run.
PARSE_ARGV = {
    ("validate",): ["data.json"],
    ("kappa-check",): ["--manifold", "cp2", "--u", "[1]"],
    ("kappa-enum",): ["--manifold", "cp2", "--bound", "1"],
    ("sym-check",): ["--manifold", "cp2", "--u", "[1]", "--L", "[]"],
    ("k-group",): ["--manifold", "s1xs3", "--u", "[]", "--L", "[[3]]"],
    ("whitney",): ["--manifold", "s1xs3", "--L", "[[3]]"],
    ("reghom",): ["--L0", "[[1]]", "--L1", "[[3]]"],
    ("compress-check",): ["--u", "[0]", "--L", "[[0]]"],
    ("move", "apply"): ["--manifold", "s1xs3", "--class",
                        '{"u": [], "L": [["0"]]}', "--move", "1,0,5"],
    ("decompose",): ["--manifold", "t2xs2", "--form", "[[2,1],[1,0]]"],
    ("tau", "normal-form"): ["3", "7"],
    ("tau", "equal"): ["2", "1", "2", "5"],
    ("tau", "compose"): ["1", "0", "0", "1"],
    ("classify", "equal"): ["--manifold", "s1xs3", "--class1",
                            '{"u": [], "L": [["3"]]}', "--class2",
                            '{"u": [], "L": [["3"]]}'],
    ("fiber",): ["--manifold", "s1xs3", "--L", "[[2]]"],
    ("link", "tau"): ["--l", "1", "--b", "0"],
    ("snf",): ["--matrix", "[[1]]"],
}


def command_paths(commands=COMMANDS, prefix=()):
    for name, _, handler, _ in commands:
        path = prefix + (name,)
        if callable(handler):
            yield path
        else:
            yield path  # the group alone
            yield from command_paths(handler, path)


def table_leaves(commands=COMMANDS, prefix=()):
    """Each command path that has a handler, with its arguments."""
    for name, _, handler, arguments in commands:
        path = prefix + (name,)
        if callable(handler):
            yield path, arguments
        else:
            yield from table_leaves(handler, path)


# One value for each kind of argument in the table, keyed by its type;
# untyped arguments are the manifold and the validated file.
SAMPLES = {None: "cp2", cli._vector: "[1]", cli._matrix: "[[1]]",
           cli._class_arg: '{"u": [], "L": [["0"]]}', cli._move: "1,0,5",
           int: "3"}
# What each sample word decodes to.
DECODED = {"cp2": "cp2", "[1]": (1,), "[[1]]": IntMatrix.from_rows(((1,),)),
           '{"u": [], "L": [["0"]]}': {"u": [], "L": [["0"]]},
           "1,0,5": Move(s=(1,), l=0, b=5), "3": 3, "2": 2}


def sample(keywords):
    kind = keywords.get("type")
    if getattr(kind, "__qualname__", "").startswith("_bounded_int."):
        return "2"  # within every bound: --cap >= 0, 1 <= --resolution <= 32
    return SAMPLES[kind]


def table_argv(path, arguments):
    """A complete argv for `path`, optional arguments included."""
    argv = list(path)
    for flag, keywords in arguments:
        if flag.startswith("-"):
            argv.append(flag)
        if keywords.get("action") != "store_true":
            argv.append(sample(keywords))
    return argv


class TestParserPerCommand:
    """`cli.parse` reads each command from the table, and help, usage and
    errors for every command path come from the same table."""

    def test_table_covers_every_leaf(self):
        leaves = {p for p in command_paths() if p in PARSE_ARGV}
        assert leaves == set(PARSE_ARGV)

    @pytest.mark.parametrize("path", list(command_paths()), ids=" ".join)
    def test_same_output_as_full_parser(self, capsys, path):
        # -h prints the usage line that every error of the path prints
        code, out, err = run(capsys, *path, "-h")
        assert code == 0 and err == ""
        usage = out.splitlines()[0]
        assert usage.startswith(" ".join(("usage: emb7", *path, "[-h]")))
        complete = list(path) + PARSE_ARGV.get(path, [])
        for argv in (complete + ["--frob"], list(path)):
            assert usage_error(*run(capsys, *argv))[0] == usage

    def test_complete_argv_parses_alike(self):
        # each namespace names its command path and the leaf's handler
        for path, rest in PARSE_ARGV.items():
            got = vars(cli.parse(list(path) + rest))
            assert got["handler"] is cli._node(path)[2]
            assert [got["command"], got.get("op")][:len(path)] == list(path)

    def test_optional_arguments_in_table(self):
        optional = {(path, flag) for path, arguments in table_leaves()
                    for flag, keywords in arguments if "default" in keywords}
        assert optional == {(("fiber",), "--u"), (("fiber",), "--enumerate"),
                            (("fiber",), "--cap"),
                            (("link", "tau"), "--resolution")}

    @pytest.mark.parametrize("path, arguments", list(table_leaves()),
                             ids=[" ".join(p) for p, _ in table_leaves()])
    def test_every_argument_parses_alike(self, path, arguments):
        # in reverse table order too (positionals all get one sample), and
        # none is left at its default
        got = vars(cli.parse(table_argv(path, arguments)))
        assert vars(cli.parse(table_argv(path, arguments[::-1]))) == got
        for flag, keywords in arguments:
            dest = keywords.get("dest", flag.lstrip("-"))
            assert got[dest] not in (None, False, keywords.get("default"))

    @pytest.mark.parametrize("argv, code, stream, text", [
        ([], 2, "err", "the following arguments are required: command"),
        (["fib"], 2, "err", "argument command: invalid choice: 'fib'"),
        (["-h", "fiber"], 0, "out", "{validate,kappa-check,"),
    ])
    def test_no_command_named_builds_every_command(self, capsys, argv, code,
                                                   stream, text):
        # no command, or an unknown one: the usage line lists them all
        got = run(capsys, *argv)
        output = got[1] if stream == "out" else got[2]
        names = ",".join(c[0] for c in COMMANDS)
        assert got[0] == code and text in output
        assert output.startswith(f"usage: emb7 [-h] {{{names}}} ...\n")

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["emb7", "tau", "equal",
                                          "2", "1", "2", "5"])
        assert main() == 0
        assert capsys.readouterr().out == '{"equal": true}\n'

    def test_help_lists_the_whole_table(self, capsys):
        # every name and help text of the table is in some -h output
        shown = ""
        for path in [(), *command_paths()]:
            code, out, _ = run(capsys, *path, "-h")
            assert code == 0
            shown += out
        groups = [COMMANDS] + [c[2] for c in COMMANDS if not callable(c[2])]
        words = [w for commands in groups for c in commands for w in c[:2]]
        words += [w for _, arguments in table_leaves()
                  for flag, keywords in arguments
                  for w in (flag, keywords.get("help"))]
        assert [w for w in words if w and w not in shown] == []

    @pytest.mark.parametrize("argv, message", [
        (["fiber", "--manifold", "s1xs3", "--u", "[1.5]", "--L", "[[2]]"],
         "argument --u: expected integer or decimal string, got 1.5"),
        (["fiber", "--manifold", "s1xs3", "--L", "[[2],[1,2]]"],
         "argument --L: ragged rows"),
        (["move", "apply", "--manifold", "s1xs3", "--class", "[1]",
          "--move", "1,0,5"],
         'argument --class: embedding class must be a JSON object with "u" '
         'and "L"'),
        (["move", "apply", "--manifold", "s1xs3",
          "--class", '{"u": [], "L": [["0"]]}', "--move", "1,x,5"],
         "argument --move: move entries must be integers"),
        (["tau", "equal", "2", "1", "x", "5"],
         "argument lp: invalid literal for int() with base 10: 'x'"),
    ], ids=["u", "L", "class", "move", "tau"])
    def test_value_error_names_flag_and_reason(self, capsys, argv, message):
        assert usage_error(*run(capsys, *argv))[1] == message


# Words for the parser tests.  A negative number or "-" alone is a value
# (the number pattern matches "-7\n" and Arabic-Indic digits too); every
# other word that starts with "-" reads as a flag.
PLAIN = ["cp2", "s1xs3", "", " -1", "abc", "[1]", "[]", "[[1]]", '[["3"]]',
         "[[1,2],[3,4]]", '{"u": [], "L": [["0"]]}',
         '{"u": [1], "L": [], "beta": ["7"]}', "1,0,5", "2,-1,3", "3", "0",
         "+7", " 5 ", "1000", "1001", "1" + "0" * 30, "\u0663", "3_0", "[1",
         "{", "1,x,2", "5"]
NEGATIVE = ["-1", "-0", "-3", "-1000", "-1001", "-.5", "-1.5", "-\u0663",
            "-7\n"]
ODD = ["-", "--", "-x", "-1,0,5", "- 1", "-1 ", "-1e3", "-h", "--help",
       "--frob", "--u", "--manifold"]
EXTRA = ["-h", "--help", "--", "--frob", "extra", "-1"]


def type_accepts(keywords, word) -> bool:
    try:
        keywords.get("type", str)(word)
    except (TypeError, ValueError):
        return False
    return True


@st.composite
def argvs(draw):
    """(argv, well_formed): an argv drawn from the table, and whether it has
    the form that `cli.parse` must read."""
    leaves = list(table_leaves())
    path, arguments = draw(st.sampled_from(leaves))
    ok = True

    def value(keywords):
        nonlocal ok
        pool = draw(st.sampled_from(["sample"] * 6 + ["plain", "plain",
                                                     "negative", "odd"]))
        word = (sample(keywords) if pool == "sample" else
                draw(st.sampled_from({"plain": PLAIN, "negative": NEGATIVE,
                                      "odd": ODD}[pool])))
        ok = ok and pool != "odd" and type_accepts(keywords, word)
        return word

    flags = [a for a in arguments if a[0].startswith("-")]
    words = []
    for flag, keywords in draw(st.permutations(flags)):
        form = draw(st.sampled_from(["exact"] * 7 + [
            "omit", "abbrev", "equals", "repeat", "valueless", "extra"]))
        short = flag[:draw(st.integers(3, max(3, len(flag) - 1)))]
        if short == flag and form == "abbrev":
            form = "exact"  # "--L" has no shorter form
        ok = ok and (form == "exact" or form == "omit"
                     and "default" in keywords)
        if form == "omit":
            continue
        store_true = keywords.get("action") == "store_true"
        if form == "equals":
            words.append(flag + "=" + ("1" if store_true else value(keywords)))
            continue
        words.append(short if form == "abbrev" else flag)
        if not store_true and form != "valueless":
            words.append(value(keywords))
        if form == "repeat":
            words.append(flag)
            if not store_true:
                words.append(value(keywords))
        elif form == "extra":
            words.append(value({}))
    positionals = [value(kw) for a, kw in arguments
                   if not a.startswith("-")]
    if positionals and draw(st.booleans()) and draw(st.booleans()):
        ok = False
        del positionals[draw(st.integers(0, len(positionals) - 1))]
    words += positionals
    start = list(path)
    mutation = draw(st.sampled_from(["none"] * 8 + [
        "drop", "unknown", "help", "extra"]))
    if mutation == "drop":
        start = start[:-1]
    elif mutation == "unknown":
        start[-1] = start[-1][:-1]
    elif mutation == "help":
        start.insert(0, "-h")
    elif mutation == "extra":
        words.insert(draw(st.integers(0, len(words))),
                     draw(st.sampled_from(EXTRA)))
    return start + words, ok and mutation == "none"


class TestFastParse:
    """`cli.parse` reads a well-formed argv straight from the table; every
    other argv ends in help or in a usage error."""

    @settings(derandomize=True, max_examples=500, deadline=None,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs())
    def test_main_keeps_the_contract(self, capsys, drawn):
        argv, well_formed = drawn
        if well_formed:
            cli.parse(argv)  # raises no UsageError
        code, out, err = run(capsys, *argv)
        if code == 0 and out.startswith("usage: emb7 "):  # help
            assert err == "" and {"-h", "--help"} & set(argv)
        elif code in (0, 1):
            assert err == "" and out.count("\n") == 1, argv
            assert isinstance(json.loads(out), dict)
        elif err.startswith("emb7: "):
            unreadable(code, out, err)
        else:
            usage_error(code, out, err)

    @pytest.mark.parametrize("path, arguments", list(table_leaves()),
                             ids=[" ".join(p) for p, _ in table_leaves()])
    def test_every_complete_argv(self, path, arguments):
        got = vars(cli.parse(table_argv(path, arguments)))
        for flag, keywords in arguments:
            dest = keywords.get("dest", flag.lstrip("-"))
            store_true = keywords.get("action") == "store_true"
            assert got[dest] == (store_true or DECODED[sample(keywords)])

    # each case: an argv and values that it gives
    @pytest.mark.parametrize("argv", [
        (["tau", "equal", "-2", "1", "-2", "5"],
         {"l": -2, "b": 1, "lp": -2, "bp": 5}),
        (["tau", "compose", "-7\n", "-\u0663", "0", "-0"],
         {"l": -7, "b": -3, "lp": 0, "bp": 0}),
        (["link", "tau", "--l", "-3", "--b", "-7", "--resolution", "2"],
         {"l": -3, "b": -7, "resolution": 2}),
        (["fiber", "--manifold", "-1", "--L", "[[2]]", "--cap", "0"],
         {"manifold": "-1", "cap": 0, "enumerate": False}),
        (["fiber", "--L", "[[-2]]", "--enumerate", "--manifold", "s1xs3"],
         {"L": IntMatrix.from_rows(((-2,),)), "manifold": "s1xs3"}),
        (["kappa-enum", "--manifold", "", "--bound", "-1"],
         {"manifold": "", "bound": -1}),
        (["validate", "-12"], {"file": "-12"}),
    ])
    def test_negative_numbers_are_values(self, argv):
        argv, want = argv
        got = vars(cli.parse(argv))
        assert {name: got[name] for name in want} == want

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["fiber", "-h"], ["tau", "equal", "--help"],
        ["fib", "--manifold", "s1xs3", "--L", "[[2]]"],
        ["tau", "2", "1"], ["link"],
        ["fiber", "--manifold=s1xs3", "--L", "[[2]]"],
        ["fiber", "--man", "s1xs3", "--L", "[[2]]"],
        ["fiber", "--manifold", "a", "--manifold", "b", "--L", "[[2]]"],
        ["fiber", "--manifold", "s1xs3", "--L", "[[2]]", "--frob"],
        ["fiber", "--manifold", "s1xs3", "--L"],
        ["fiber", "--L", "[[2]]"],
        ["fiber", "--", "--manifold", "s1xs3", "--L", "[[2]]"],
        ["fiber", "--manifold", "s1xs3", "--L", "[[2]]", "--enumerate", "1"],
        ["fiber", "--manifold", "s1xs3", "--L", "[[2]]", "--cap", "-1"],
        ["snf", "--matrix", "-x"], ["snf", "--matrix", "[["],
        ["validate", "-x"], ["validate", "a", "b"], ["tau", "equal", "2", "1"],
        ["tau", "equal", "2", "-1,0", "2", "5"],
        ["move", "apply", "--manifold", "s1xs3", "--class", "[]",
         "--move", "1,0,5"],
    ])
    def test_other_argv_falls_back(self, capsys, argv):
        # to help for -h or --help, to a usage error otherwise
        if {"-h", "--help"} & set(argv):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "" and out.startswith("usage: emb7 ")
        else:
            usage_error(*run(capsys, *argv))


def modules_after(calls, code=0) -> list:
    """sys.modules in one fresh interpreter after `import emb7.cli`, then
    after each argv of `calls` in turn through `emb7.cli.main`, which must
    return `code` on each."""
    script = (
        "import contextlib, io, json, sys\n"
        "import emb7.cli\n"
        "loaded = [sorted(sys.modules)]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert emb7.cli.main(argv) == int(sys.argv[2]), argv\n"
        "    loaded.append(sorted(sys.modules))\n"
        "print(json.dumps(loaded))\n")
    out = fresh_python("-c", script, json.dumps(calls), str(code), check=True)
    return [set(names) for names in json.loads(out.stdout)]


# Well-formed calls of the exact half, each exiting 0.
EXACT_CALLS = [
    ["k-group", "--manifold", "s1xs3", "--u", "[]", "--L", "[[3]]"],
    ["fiber", "--manifold", "s1xs3", "--L", "[[2]]", "--enumerate"],
    ["classify", "equal", "--manifold", "s1xs3",
     "--class1", '{"u": [], "L": [["3"]], "beta": ["1"]}',
     "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'],
    ["kappa-enum", "--manifold", "s2xs2", "--bound", "2"],
    ["snf", "--matrix", "[[2,4],[6,8]]"],
]
ARGPARSE = {"argparse", "gettext", "locale"}  # gettext and locale: its imports


class TestNumpyOnlyForLinkTau:
    def test_exact_commands_load_no_numpy(self):
        assert not any("numpy" in m for m in modules_after(EXACT_CALLS))

    @pytest.mark.parametrize("error", ["UnconvergedError"])
    def test_link_errors_are_domain_failures(self, capsys, monkeypatch, error):
        import emb7.linking

        def failing(*args, **kwargs):
            raise getattr(emb7.linking, error)("no certificate")

        monkeypatch.setattr(emb7.linking, "verify_lambda_tau", failing)
        payload = failure(*run(capsys, "link", "tau", "--l", "1", "--b", "0",
                               "--resolution", "3"))
        assert payload == {"error": "no certificate"}


class TestNoFractionsOnLoad:
    def test_validate_and_enumeration_load_no_fractions(self, tmp_path):
        # `fractions` (and the `decimal` it imports) cost a few ms cold;
        # loading and enumerating run on integers alone
        path = tmp_path / "t2xs2.json"
        path.write_text(json.dumps(to_json(builtin("t2xs2"))))
        calls = [
            ["validate", str(path)],
            ["kappa-enum", "--manifold", str(path), "--bound", "2"],
            ["fiber", "--manifold", str(path), "--u", "[0,0]",
             "--L", "[[2,0],[0,2]]", "--enumerate"],
        ]
        loaded = modules_after(calls)
        assert not any(m & {"fractions", "decimal"} for m in loaded)


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder can recurse is malformed input:
    a usage error (exit 2), never a traceback."""

    DEEP = "[" * 100000

    def emb7(self, *argv):
        proc = fresh_python("-m", "emb7.cli", *argv)
        return proc.returncode, proc.stdout, proc.stderr

    def test_argument(self):
        _, message = usage_error(*self.emb7("snf", "--matrix", self.DEEP))
        assert message.startswith("argument --matrix: not valid JSON")

    def test_manifold_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        unreadable(*self.emb7("k-group", "--manifold", str(path), "--u", "[]",
                              "--L", "[]"))

    def test_validate_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        unreadable(*self.emb7("validate", str(path)))


def emb7_modules_after(*argv):
    """The emb7 modules loaded in a fresh interpreter after `import emb7.cli`
    and, when argv is given, one successful `emb7.cli.main(argv)`."""
    loaded = modules_after([list(argv)] if argv else [])[-1]
    return {m for m in loaded if m.split(".")[0] == "emb7"}


class TestImportsPerCommand:
    """Each command imports the emb7 modules it runs and no others."""

    def test_cli_alone(self):
        assert emb7_modules_after() == {"emb7", "emb7.cli", "emb7.resolution"}

    @pytest.mark.parametrize("argv, absent", [
        (["snf", "--matrix", "[[2,4],[6,8]]"],
         {"manifolds", "invariants", "classify", "moves"}),
        (["link", "tau", "--l", "1", "--b", "0", "--resolution", "3"],
         {"exact"}),
        (["k-group", "--manifold", "s1xs3", "--u", "[]", "--L", "[[3]]"],
         {"moves"}),
        (["fiber", "--manifold", "s1xs3", "--L", "[[2]]", "--enumerate"],
         {"moves"}),
        (["classify", "equal", "--manifold", "s1xs3",
          "--class1", '{"u": [], "L": [["3"]], "beta": ["1"]}',
          "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'],
         {"moves"}),
    ], ids=["snf", "link-tau", "k-group", "fiber-enumerate", "classify-equal"])
    def test_command(self, argv, absent):
        loaded = emb7_modules_after(*argv)
        assert not loaded & {f"emb7.{m}" for m in absent}

    def test_link_tau_loads_no_dataclasses_or_polynomial(self):
        loaded = modules_after([["link", "tau", "--l", "2", "--b", "1"]])
        assert not loaded[-1] & {"dataclasses", "numpy.polynomial"}


class TestNoArgparseWhenWellFormed:
    """No call imports argparse, or the gettext and locale it imports:
    neither a well-formed call nor help, usage and errors."""

    def test_well_formed_calls(self):
        assert not any(m & ARGPARSE for m in modules_after(EXACT_CALLS))

    @pytest.mark.parametrize("argv, code", [
        (["-h"], 0),
        (["fiber", "--manifold=s1xs3", "--L", "[[2]]"], 2),
        (["fiber", "--manifold", "s1xs3", "--L", "[[1.5]]"], 2),
    ], ids=["help", "malformed", "bad-value"])
    def test_help_and_errors(self, argv, code):
        assert not modules_after([argv], code)[-1] & ARGPARSE

    def test_malformed_call_prints_usage(self):
        proc = fresh_python("-m", "emb7.cli", "fiber", "--frob")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: emb7 fiber ")
        assert "Traceback" not in proc.stderr

    def test_no_module_imports_argparse(self):
        package = os.path.dirname(os.path.abspath(cli.__file__))
        for entry in sorted(os.listdir(package)):
            if entry.endswith(".py"):
                with open(os.path.join(package, entry)) as fh:
                    nodes = list(ast.walk(ast.parse(fh.read())))
                names = [a.name for n in nodes if isinstance(n, ast.Import)
                         for a in n.names]
                names += [n.module or "" for n in nodes
                          if isinstance(n, ast.ImportFrom)]
                assert "argparse" not in {m.split(".")[0] for m in names}


class TestBarePackage:
    def test_import_exposes_only_the_version(self):
        script = ("import json, emb7\n"
                  "print(json.dumps([n for n in dir(emb7)\n"
                  "                  if not n.startswith('_')]))\n")
        out = fresh_python("-c", script, check=True)
        assert json.loads(out.stdout) == []

    def test_version_matches_pyproject(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            found = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(),
                              re.MULTILINE)
        assert found and emb7.__version__ == found.group(1)


def class_json(u, L, beta) -> str:
    return json.dumps({"u": u, "L": L, "beta": beta})


# t2xs2 with u = (2, 0): L^T - L must be 2 * [[0, 1], [-1, 0]]
FIBER = ([2, 0], [[0, 0], [2, 0]])


def counters(monkeypatch):
    """The calls of each check and of the basis build, and a reset that
    zeroes them and clears the fiber cache, so that a counted call starts
    from a miss."""
    import emb7.classify
    import emb7.exact
    import emb7.invariants
    calls = {"is_kappa_admissible": 0, "is_symmetric_pair": 0,
             "smith_normal_form": 0, "lattice_basis": 0}

    def reset():
        emb7.classify.fiber_basis.cache_clear()
        for name in calls:
            calls[name] = 0

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (emb7.classify, emb7.invariants, emb7.exact):
        for name in calls:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls, reset


class TestClassifyEqualChecksOnce:
    """A class2 over the same (u, L) as class1 is not checked again; any
    other class2 gets every check and message that class1 gets."""

    @pytest.mark.parametrize("u2, L2", [
        FIBER,
        ([2, "0"], [["0", " 0"], ["+2", "0_0"]]),
    ], ids=["same-json", "same-values"])
    def test_shared_fiber_is_checked_once(self, capsys, monkeypatch, u2, L2):
        calls, reset = counters(monkeypatch)
        for beta2, equal in (([2, -4], True), ([1, 0], False)):
            reset()
            code, payload = run_json(
                capsys, "classify", "equal", "--manifold", "t2xs2",
                "--class1", class_json(*FIBER, [0, 0]),
                "--class2", class_json(u2, L2, beta2))
            assert code == 0 and payload["equal"] is equal
            assert calls["is_kappa_admissible"] == 1
            assert calls["is_symmetric_pair"] == 1
            assert calls["smith_normal_form"] == 0
            assert calls["lattice_basis"] == 1

    @pytest.mark.parametrize("u2, L2, beta2, error", [
        ([1, 0], [[0, 0], [2, 0]], [0, 0],
         "kappa value (1, 0) is not admissible"),
        ([2, 0], [[0, 0], [0, 0]], [0, 0], "(u, L) is not a symmetric pair"),
        ([0, 2], [[0, 0], [2, 0]], [0, 0], "(u, L) is not a symmetric pair"),
        ([2, 0], [[0, 0], [2, 0]], [0], "beta length 1 != b1 2"),
        ([2.0, 0], [[0, 0], [2, 0]], [0, 0],
         "expected integer or decimal string, got 2.0"),
        ([2, 0], [[False, 0], [2, 0]], [0, 0], "expected integer, got False"),
        ([2, 0], [[0, 0], [2, 0], [0, 0]], [0, 0],
         "L has shape (3, 2), expected square of size 2"),
    ], ids=["inadmissible", "not-symmetric", "other-u", "beta-length",
            "float", "bool", "shape"])
    def test_other_class2_keeps_every_check(self, capsys, u2, L2, beta2,
                                            error):
        code, out, err = run(
            capsys, "classify", "equal", "--manifold", "t2xs2",
            "--class1", class_json(*FIBER, [0, 0]),
            "--class2", class_json(u2, L2, beta2))
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": error}


# t2xs2 with the odd form diag(1, -1): the same shapes, and u = (2, 0) is
# not admissible on it
ODD_FORM = dict(to_json(builtin("t2xs2")), name="odd",
                Q=[[1, 0], [0, -1]], w2=[1, 1])


class TestFiberCache:
    """`classify.fiber_basis` keeps the checked basis of the last
    FIBER_CACHE_SIZE (manifold data, u, L) keys; a failed check raises on
    every call and is never kept."""

    EQUAL = ("classify", "equal", "--class1", class_json(*FIBER, [0, 0]),
             "--class2", class_json(*FIBER, [2, -4]))

    def test_repeat_runs_no_check(self, capsys, monkeypatch):
        calls, reset = counters(monkeypatch)
        reset()
        first = run(capsys, *self.EQUAL, "--manifold", "t2xs2")
        assert first == (0, first[1], "") and json.loads(first[1])["equal"]
        assert calls == {"is_kappa_admissible": 1, "is_symmetric_pair": 1,
                         "smith_normal_form": 0, "lattice_basis": 1}
        for _ in range(2):
            assert run(capsys, *self.EQUAL, "--manifold", "t2xs2") == first
        assert calls == {"is_kappa_admissible": 1, "is_symmetric_pair": 1,
                         "smith_normal_form": 0, "lattice_basis": 1}

    def test_other_data_is_checked_again(self, capsys, monkeypatch, tmp_path):
        calls, reset = counters(monkeypatch)
        reset()
        first = run(capsys, *self.EQUAL, "--manifold", "t2xs2")
        # the same homology under another name is other data
        path = write_manifold(tmp_path / "m.json",
                              dict(to_json(builtin("t2xs2")), name="copy"))
        assert run(capsys, *self.EQUAL, "--manifold", path) == first
        assert calls["is_kappa_admissible"] == calls["lattice_basis"] == 2
        # the file edited between calls
        write_manifold(tmp_path / "m.json", ODD_FORM)
        assert run_json(capsys, *self.EQUAL, "--manifold", path) == (
            1, {"error": "kappa value (2, 0) is not admissible"})
        assert calls["is_kappa_admissible"] == 3
        assert run(capsys, *self.EQUAL, "--manifold", "t2xs2") == first
        assert calls["is_kappa_admissible"] == 3

    @pytest.mark.parametrize("u, L, error", [
        ([1, 0], [[0, 0], [2, 0]], "kappa value (1, 0) is not admissible"),
        ([2, 0], [[0, 0], [0, 0]], "(u, L) is not a symmetric pair"),
    ], ids=["inadmissible", "not-symmetric"])
    def test_failed_check_raises_on_every_call(self, capsys, monkeypatch, u,
                                               L, error):
        import emb7.classify
        calls, reset = counters(monkeypatch)
        reset()
        for k in range(1, 4):
            assert run(capsys, "classify", "equal", "--manifold", "t2xs2",
                       "--class1", class_json(u, L, [0, 0]),
                       "--class2", class_json(u, L, [0, 0])) == (
                1, json.dumps({"error": error}) + "\n", "")
            assert calls["is_kappa_admissible"] == k
        assert calls["lattice_basis"] == 0
        assert emb7.classify.fiber_basis.cache_info().currsize == 0

    def test_size_is_the_constant(self):
        from emb7 import classify
        from emb7.exact import IntMatrix
        size = classify.FIBER_CACHE_SIZE
        assert classify.fiber_basis.cache_info().maxsize == size
        classify.fiber_basis.cache_clear()
        data = builtin("t2xs2")
        for k in range(size + 8):  # (2, 0) with L^T - L as in FIBER
            classify.embedding_class(data, (2, 0), IntMatrix([[k, 0], [2, 0]]))
        assert classify.fiber_basis.cache_info().currsize == size


class TestLargeFiber:
    def test_b1_60_in_one_gigabyte(self, tmp_path):
        # S^1 x S^3 summed 60 times: u = () and d = 0, so the membership
        # runs over Z on a 60 x 60 2L
        from emb7.exact import IntMatrix
        from emb7.manifolds import ManifoldData
        n, rng = 60, random.Random(60)
        data = ManifoldData(b1=n, b2=0, b3=n, Q=IntMatrix.zeros(0, 0),
                            P=IntMatrix.identity(n), T=(), w2=(), sigma=0,
                            name="s1xs3-60")
        path = write_manifold(tmp_path / "m.json", to_json(data))
        L = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                L[i][j] = L[j][i] = rng.randint(-3, 3)
        beta = [rng.randint(-5, 5) for _ in range(n)]
        other = list(beta)
        for j in range(n):
            c = rng.randint(-2, 2)
            for i in range(n):
                other[i] += 2 * L[i][j] * c
        start = time.perf_counter()
        proc = memory_capped_python(
            "-m", "emb7.cli", "classify", "equal", "--manifold", path,
            "--class1", class_json([], L, beta),
            "--class2", class_json([], L, other))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["equal"] is True
        assert elapsed < 1.0


class TestUnvalidatedDataIsRefused:
    """The exact layer trusts its data to have passed `validate`; a file
    whose P is not unimodular is refused before any Smith form is taken."""

    @pytest.mark.parametrize("argv", [
        ["k-group", "--u", "[]", "--L", "[[3]]"],
        ["fiber", "--L", "[[3]]"],
        ["classify", "equal",
         "--class1", '{"u": [], "L": [["3"]], "beta": ["1"]}',
         "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'],
    ], ids=["k-group", "fiber", "classify-equal"])
    def test_p_not_unimodular(self, capsys, monkeypatch, tmp_path, argv):
        import emb7.exact

        def unreachable(*args, **kwargs):
            raise AssertionError("smith_normal_form reached")

        monkeypatch.setattr(emb7.exact, "smith_normal_form", unreachable)
        obj = to_json(builtin("s1xs3"))
        obj["P"] = [["2"]]
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(obj))
        code, payload = run_json(capsys, *argv, "--manifold", str(path))
        assert code == 1
        assert payload["error"] == "manifold data is invalid"
        assert any(v.startswith("P is not unimodular")
                   for v in payload["violations"])


def counting_loads(monkeypatch) -> dict:
    """Counts the calls of `manifolds.from_json` and `validate`, from a
    cleared memo on."""
    import emb7.manifolds
    calls = {"from_json": 0, "validate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(emb7.manifolds, name,
                            counting(name, getattr(emb7.manifolds, name)))
    cli._decode_manifold.cache_clear()
    return calls


def write_manifold(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


# t2xs2 with another even form and a third T: the same shapes, so one argv
# names either, with other answers
TWISTED = to_json(builtin("t2xs2"))
TWISTED.update(name="twisted", Q=[[0, 1], [1, 2]],
               T=[[[0, 1], [-1, 0]], [[0, 3], [-3, 0]]])


class TestManifoldMemo:
    """A manifold file is read on every call; its text is decoded and
    validated again only when it differs from the last valid text."""

    K_GROUP = ("k-group", "--u", "[2,0]", "--L", "[[0,0],[2,0]]")

    def test_one_file_is_decoded_once(self, capsys, monkeypatch, tmp_path):
        calls = counting_loads(monkeypatch)
        path = write_manifold(tmp_path / "m.json", to_json(builtin("t2xs2")))
        outs = [run(capsys, *self.K_GROUP, "--manifold", path)
                for _ in range(2)]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert calls == {"from_json": 1, "validate": 1}

    def test_rewritten_file_gives_the_new_answer(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        argv = ("kappa-enum", "--bound", "2", "--manifold", str(path))
        answers = []
        for data in (builtin("cp2"), builtin("s2xs2"), builtin("cp2")):
            write_manifold(path, to_json(data))
            answers.append(run(capsys, *argv))
            assert answers[-1] == run(capsys, *argv[:-1], data.name)
        assert answers[0] == answers[2] != answers[1]

    def test_invalid_file_is_refused_on_every_call(self, capsys, monkeypatch,
                                                   tmp_path):
        calls = counting_loads(monkeypatch)
        obj = to_json(builtin("s1xs3"))
        obj["P"] = [["2"]]
        path = write_manifold(tmp_path / "p2.json", obj)
        for _ in range(3):
            code, payload = run_json(capsys, "k-group", "--u", "[]", "--L",
                                     "[[3]]", "--manifold", path)
            assert code == 1
            assert payload == {"error": "manifold data is invalid",
                               "violations": ["P is not unimodular (det=2)"]}
            assert run_json(capsys, "validate", path) == (
                1, {"valid": False,
                    "violations": ["P is not unimodular (det=2)"]})
        assert calls == {"from_json": 6, "validate": 6}

    def test_undecodable_object_is_refused_on_every_call(self, capsys,
                                                         tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"b1": 0}')
        error = "manifold data lacks b2, Q, P, T, w2, sigma"
        for _ in range(2):
            assert run_json(capsys, "kappa-enum", "--bound", "1",
                            "--manifold", str(path)) == (1, {"error": error})
            assert run_json(capsys, "validate", str(path)) == (
                1, {"valid": False, "violations": [error]})

    def test_malformed_json_is_a_usage_error_on_every_call(self, capsys,
                                                           tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"b1": ')
        for argv in [("validate", str(path)),
                     ("kappa-enum", "--bound", "1", "--manifold", str(path))]:
            for _ in range(2):
                unreadable(*run(capsys, *argv))

    def test_builtin_never_reaches_the_memo(self, capsys, monkeypatch):
        calls = counting_loads(monkeypatch)
        for _ in range(2):
            assert run(capsys, *self.K_GROUP, "--manifold", "t2xs2")[0] == 0
        info = cli._decode_manifold.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert calls == {"from_json": 0, "validate": 0}

    def test_only_the_last_text_is_held(self, capsys, monkeypatch, tmp_path):
        calls = counting_loads(monkeypatch)
        a = write_manifold(tmp_path / "a.json", to_json(builtin("t2xs2")))
        b = write_manifold(tmp_path / "b.json", TWISTED)
        for path, decoded in ((a, 1), (b, 2), (b, 2), (a, 3)):
            run(capsys, *self.K_GROUP, "--manifold", path)
            assert calls["from_json"] == decoded
            assert cli._decode_manifold.cache_info().currsize == 1


def memo_script(tmp_path, seed: int) -> list:
    """A seeded list of steps: ("write", path, text) or ("call", argv).
    Two manifold texts go to two paths in turn, one path rewritten with
    the other text right after calls on it, and each write is followed
    by repeated calls of every command that loads a file."""
    rng = random.Random(seed)
    texts = {"x": json.dumps(to_json(builtin("t2xs2"))),
             "y": json.dumps(TWISTED)}
    # u admissible on t2xs2 only, on both, on twisted only; s is the
    # entry of L^T - L that makes (u, L) symmetric on one manifold
    slopes = {"x": (1, 0), "y": (1, 3)}
    steps = []
    for path_name, text in [("a", "x"), ("b", "y"), ("b", "x"), ("a", "y"),
                            ("a", "x"), ("b", "x"), ("a", "y")]:
        path = str(tmp_path / f"{path_name}.json")
        steps.append(("write", path, texts[text]))
        for _ in range(rng.randint(2, 4)):
            u = rng.choice([[0, 2], [2, 0], [2, -2], [-2, 0], [0, 0]])
            a0, a1 = slopes[rng.choice("xy")]
            p, q, w = (rng.randint(-3, 3) for _ in range(3))
            L = [[p, q], [q + a0 * u[0] + a1 * u[1], w]]
            beta = [rng.randint(-4, 4), rng.randint(-4, 4)]
            one = class_json(u, L, [0, 0])
            steps += [("call", argv + ["--manifold", path]) for argv in (
                ["k-group", "--u", json.dumps(u), "--L", json.dumps(L)],
                ["fiber", "--u", json.dumps(u), "--L", json.dumps(L),
                 "--enumerate", "--cap", "20"],
                ["classify", "equal", "--class1", one,
                 "--class2", class_json(u, L, beta)],
                ["kappa-enum", "--bound", str(rng.randint(1, 3))])]
            steps.append(("call", ["validate", path]))
    return steps


class TestMemoIsInvisible:
    def outcomes(self, capsys, steps, clear: bool) -> list:
        # `clear` empties the manifold memo and the fiber cache before
        # every call
        from emb7 import classify
        cli._decode_manifold.cache_clear()
        classify.fiber_basis.cache_clear()
        out = []
        for step in steps:
            if step[0] == "write":
                with open(step[1], "w") as fh:
                    fh.write(step[2])
                continue
            if clear:
                cli._decode_manifold.cache_clear()
                classify.fiber_basis.cache_clear()
            out.append(run(capsys, *step[1]))
        return out

    def test_memo_on_equals_memo_off(self, capsys, tmp_path):
        steps = memo_script(tmp_path, seed=44)
        cold = self.outcomes(capsys, steps, clear=True)
        warm = self.outcomes(capsys, steps, clear=False)
        assert warm == cold
        # the list is worth comparing: both answers and both failures occur
        codes = [code for code, _, _ in cold]
        assert codes.count(0) > len(codes) // 2 and 1 in codes
        assert cli._decode_manifold.cache_info().hits > len(codes) // 2
