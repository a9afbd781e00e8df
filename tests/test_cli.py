import json

from emb7.cli import main
from emb7.manifolds import builtin, to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "missing.json")
        assert code == 2
        assert out == ""
        assert "missing.json" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "tau", "equal", "1", "2", "--frob")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_domain_failure_is_exit_one(self, capsys):
        code, payload = run_json(capsys, "kappa-check", "--manifold", "cp2",
                                 "--u", "[1, 2]")
        assert code == 1
        assert "error" in payload

    def test_invalid_manifold_file(self, capsys, tmp_path):
        bad = to_json(builtin("s2xs2"))
        bad["sigma"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 1
        assert payload["valid"] is False
        assert payload["violations"]


    def test_manifold_missing_fields(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"b1": 1, "b2": 0}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and "Traceback" not in err
        payload = json.loads(out)
        assert payload["valid"] is False
        assert "Q" in payload["violations"][0]
        code, payload = run_json(capsys, "fiber", "--manifold", str(path),
                                 "--L", "[[0]]")
        assert code == 1 and "error" in payload

    def test_class_not_an_object_is_usage_error(self, capsys):
        for argv in (("move", "apply", "--manifold", "s1xs3",
                      "--class", "[1]", "--move", "1,0,5"),
                     ("classify", "equal", "--manifold", "s1xs3",
                      "--class1", "[1]",
                      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'),
                     ("classify", "equal", "--manifold", "s1xs3",
                      "--class1", '{"u": []}',
                      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}')):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "usage:" in err

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fiber", "--manifold", "s1xs3",
                             "--L", "[[0]]", "--enumerate", "--cap", "-1")
        assert code == 2 and out == "" and "usage:" in err

    def test_resolution_out_of_range_is_usage_error(self, capsys):
        for res in ("0", "33", "1000000"):
            code, out, err = run(capsys, "link", "tau", "--l", "1",
                                 "--b", "0", "--resolution", res)
            assert code == 2 and out == "" and "usage:" in err

    def test_unconverged_link_is_exit_one(self, capsys):
        # resolution 2 rounds tau(2, 0) to 3 with residual 0.21: the check
        # fails, and the payload still reports what was measured
        code, payload = run_json(capsys, "link", "tau", "--l", "2",
                                 "--b", "0", "--resolution", "2")
        assert code == 1
        assert payload["pass"] is False
        assert set(payload) == {"estimate", "value", "residual", "pass"}

    def test_memory_error_is_domain_failure(self, capsys, monkeypatch):
        import emb7.cli

        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(emb7.cli, "_cmd_snf", exhausted)
        code, out, err = run(capsys, "snf", "--matrix", "[[1]]")
        assert code == 1 and "Traceback" not in err
        assert "error" in json.loads(out)

    def test_removed_link_flags_are_usage_errors(self, capsys):
        for flag in (("--backend", "python"), ("--json",)):
            code, out, err = run(capsys, "link", "tau", "--l", "1",
                                 "--b", "0", "--resolution", "3", *flag)
            assert code == 2 and out == "" and "usage:" in err


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
        code, payload = run_json(capsys, "link", "tau", "--l", "3",
                                 "--b", "0", "--resolution", "3")
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
