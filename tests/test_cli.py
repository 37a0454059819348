import pytest

from mch.aiger import write_aiger
from mch.cli import cli_run

from fixtures import parity8, parity10, adder3


@pytest.fixture
def p8(tmp_path):
    path = tmp_path / "p8.aag"
    write_aiger(parity8(), path)
    return str(path)


def test_stats(p8, capsys):
    assert cli_run(["stats", p8]) == 0
    out = capsys.readouterr().out
    assert "pis 8" in out and "pos 1" in out


def test_convert(p8, tmp_path, capsys):
    out = str(tmp_path / "p8.mch")
    assert cli_run(["convert", "--to", "xag", p8, "-o", out]) == 0
    assert cli_run(["stats", out]) == 0
    assert "tag xag" in capsys.readouterr().out


def test_mch_then_map_lut(p8, tmp_path, capsys):
    cn = str(tmp_path / "p8c.mch")
    assert cli_run(["mch", p8, "-o", cn]) == 0
    assert cli_run(["map-lut", "-k", "4", cn]) == 0
    out = capsys.readouterr().out
    assert "verified equivalent" in out


def test_map_lut_writes_blif(p8, tmp_path):
    blif = str(tmp_path / "p8.blif")
    assert cli_run(["map-lut", p8, "-o", blif]) == 0
    assert ".names" in open(blif).read()


def test_map_cell(p8, capsys):
    assert cli_run(["map-cell", p8]) == 0
    out = capsys.readouterr().out
    assert "area" in out and "verified equivalent" in out


def test_graphmap(p8, tmp_path, capsys):
    out = str(tmp_path / "opt.mch")
    assert cli_run(["graphmap", "--target", "xmg", p8, "-o", out]) == 0
    text = capsys.readouterr().out
    assert "iteration,nodes,level,accepted" in text
    assert "verified equivalent" in text


def test_cec_exit_codes(tmp_path):
    a, b = tmp_path / "a.aag", tmp_path / "b.aag"
    write_aiger(parity10(True), a)
    write_aiger(parity10(False), b)
    assert cli_run(["cec", str(a), str(b)]) == 0
    c = tmp_path / "c.aag"
    write_aiger(adder3(), c)
    # different interface: reported as an error, not a crash
    assert cli_run(["cec", str(a), str(c)]) == 1


def test_cec_not_equivalent(tmp_path, capsys):
    from mch import network as nw
    from mch.network import LogicNetwork
    neta = LogicNetwork(nw.AIG)
    x, y = neta.add_pi(), neta.add_pi()
    neta.add_po(neta.add_and(x, y))
    netb = LogicNetwork(nw.AIG)
    x, y = netb.add_pi(), netb.add_pi()
    netb.add_po(~netb.add_and(~x, ~y))
    a, b = tmp_path / "a.aag", tmp_path / "b.aag"
    write_aiger(neta, a)
    write_aiger(netb, b)
    assert cli_run(["cec", str(a), str(b)]) == 1
    assert "NOT_EQUIVALENT" in capsys.readouterr().out


def test_bench_subcommand(p8, tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_aiger(parity8(), suite / "p8.aag")
    csv = str(tmp_path / "out.csv")
    assert cli_run(["bench", "--suite", str(suite),
                    "--flows", "lut-base,lut-balanced", "--csv", csv]) == 0
    text = open(csv).read()
    assert text.startswith("benchmark,flow,area,delay,time_s,verified")
    assert "p8,lut-base" in text


def test_missing_file_is_error(capsys):
    assert cli_run(["stats", "/nonexistent/x.aag"]) == 1
    assert "error:" in capsys.readouterr().err


def test_an_input_literal_past_the_header_bound_is_an_error_line(
        tmp_path, capsys):
    path = tmp_path / "i.aag"
    path.write_text("aag 1 1 0 1 0\n4\n2\n")
    assert cli_run(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "line 2: invalid input literal 4" in err


@pytest.mark.parametrize("cmd, l", [("map-lut", "0"), ("map-cell", "-1")])
def test_a_cut_limit_below_one_is_an_error_line(p8, capsys, cmd, l):
    assert cli_run([cmd, "-l", l, p8]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cuts kept per node must be >= 1, got l={l}\n"


def test_mch_help_names_K_as_the_mffc_leaf_bound(capsys):
    assert cli_run(["mch", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "-K K MFFC leaf bound (default 8)" in out
    assert "candidates tried per cut" not in out


@pytest.mark.parametrize("extra, verdict", [(0, "equivalent"),
                                            (1, "unknown")])
def test_map_lut_verdict_follows_the_exhaustive_pi_limit(
        tmp_path, capsys, extra, verdict):
    from mch import network as nw
    from mch.gen import and_tree
    from mch.network import LogicNetwork
    from mch.verify import EXHAUSTIVE_PI_LIMIT

    net = LogicNetwork(nw.AIG)
    net.add_po(and_tree(net, [net.add_pi() for _ in
                              range(EXHAUSTIVE_PI_LIMIT + extra)]))
    path = tmp_path / "wide.aag"
    write_aiger(net, path)
    for cmd in ("map-lut", "map-cell"):
        assert cli_run([cmd, str(path)]) == 0
        assert f"verified {verdict}" in capsys.readouterr().out


def test_mch_prints_install_counts(p8, tmp_path, capsys):
    import re

    assert cli_run(["mch", p8, "-o", str(tmp_path / "p8c.mch")]) == 0
    out = capsys.readouterr().out
    got = re.search(r"(\d+) choice members \((\d+) generated, (\d+) deduped, "
                    r"(\d+) verified, (\d+) failed\)", out)
    assert got, out
    members, generated, deduped, verified, failed = map(int, got.groups())
    assert members > 0 and verified >= members and failed == 0
    assert generated == deduped + verified + failed


def test_mch_proves_each_member_once(p8, tmp_path, monkeypatch):
    # build_mch proves every member where it installs it; only read_mch,
    # whose input comes from outside, checks a whole network again
    from mch.choices import ChoiceError, ChoiceNetwork

    def second_proof(self):
        raise ChoiceError("members proved a second time")

    monkeypatch.setattr(ChoiceNetwork, "check_invariants", second_proof)
    assert cli_run(["mch", p8, "-o", str(tmp_path / "p8c.mch")]) == 0
