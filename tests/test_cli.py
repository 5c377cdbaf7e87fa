"""Command-line options: PS I on every order, --deep only where it applies,
and no --seed."""

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
