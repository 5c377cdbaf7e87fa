"""Command-line behaviour: PS I on every order, no --deep or --seed, exit
status 2 on every error, and the README's command block."""

import pathlib
import shlex

import pytest

from finring.cli import main


def test_props_evaluates_ps_i_on_a_ring_of_order_256(capsys):
    assert main(["props", "GA(GF(2),Q8)", "--kv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "order=256" in out
    assert "ps_i=true" in out


@pytest.mark.parametrize("argv", [
    ["props", "Zn(4)", "--deep"],
    ["import", "ring.ringtab", "--deep"],
    ["enumerate", "16", "--deep"],
    ["verify", "--deep"],
])
def test_deep_is_a_usage_error_on_props_and_import(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["enumerate", "8", "--seed", "1"], ["verify", "--seed", "1"]])
def test_seed_is_a_usage_error_on_enumerate_and_verify(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_import_evaluates_ps_i_on_a_ring_of_order_256(tmp_path, capsys):
    path = str(tmp_path / "f2q8.ringtab")
    assert main(["export", "GA(GF(2),Q8)", "--out", path]) == 0
    assert main(["import", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "order 256" in out
    assert "ps_i=true" in out


def test_enumerate_census_of_order_8(capsys):
    assert main(["enumerate", "8", "--census"]) == 0
    out = capsys.readouterr().out
    assert "order 8: 11 isomorphism classes" in out
    assert "isomorphism classes of order 8: 11" in out


def test_enumerate_census_of_order_27(capsys):
    assert main(["enumerate", "27", "--census"]) == 0
    out = capsys.readouterr().out
    assert "order 27: 12 isomorphism classes" in out
    assert "isomorphism classes of order 27: 12" in out


def test_enumerate_order_16(capsys):
    assert main(["enumerate", "16"]) == 0
    assert "order 16: 50 isomorphism classes" in capsys.readouterr().out


def _non_ascii_ringtab(tmp_path):
    path = tmp_path / "bad.ringtab"
    assert main(["export", "Zn(2)", "--out", str(path)]) == 0
    lines = path.read_bytes().splitlines()
    lines[4] = b"0 \xff"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda d: ["props", str(d)],
    lambda d: ["import", str(d)],
    lambda d: ["import", str(d / "missing.ringtab")],
    lambda d: ["import", _non_ascii_ringtab(d)],
    lambda d: ["export", "Zn(2)", "--out", str(d / "nodir" / "x.ringtab")],
], ids=["props-dir", "import-dir", "import-missing", "import-non-ascii", "export-no-dir"])
def test_file_errors_exit_2_with_a_message(argv, tmp_path, capsys):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["export", "build"])
def test_a_non_ascii_label_exits_2_and_leaves_no_file(command, tmp_path, capsys):
    path = tmp_path / "x.ringtab"
    assert main([command, "F2<\u00e9>/(\u00e9^2)", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "label '\u00e9' is not ASCII" in err
    assert not path.exists()


def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("finring ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
