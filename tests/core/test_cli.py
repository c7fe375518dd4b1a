"""CLI tests: every subcommand runs and prints sensible output."""

import pytest

from repro.cli import build_parser, main


class TestDemo:
    def test_s_agg_demo(self, capsys):
        assert main(["demo", "--tds", "8", "--districts", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "protocol : s_agg" in out
        assert "result   : 2 row(s)" in out
        assert "0 distinct grouping tag(s)" in out

    @pytest.mark.parametrize("protocol", ["basic", "rnf_noise", "c_noise", "ed_hist"])
    def test_other_protocols(self, capsys, protocol):
        query = (
            "SELECT district FROM Consumer WHERE cid < 3"
            if protocol == "basic"
            else "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
        )
        code = main(
            ["demo", "--protocol", protocol, "--tds", "8", "--districts", "2",
             "--query", query, "--seed", "1"]
        )
        assert code == 0
        assert f"protocol : {protocol}" in capsys.readouterr().out

    def test_tagged_protocols_reveal_tags(self, capsys):
        main(
            ["demo", "--protocol", "c_noise", "--tds", "6", "--districts", "2",
             "--query", "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"]
        )
        out = capsys.readouterr().out
        assert "2 distinct grouping tag(s)" in out


class TestProtocolMatchesTheQuery:
    """``basic`` runs Select-From-Where, the other four Group-By: the
    querier checks before posting, with the devices' own rule.  In
    process a mismatch used to be a traceback out of ``collect_frames``;
    over the wire, a query no device would ever contribute to."""

    GROUP_BY = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
    SELECT_WHERE = "SELECT cid, district FROM Consumer WHERE cid < 4"

    @pytest.mark.parametrize("command", ["demo", "query", "multiquery"])
    @pytest.mark.parametrize(
        "protocol, query",
        [("basic", None), ("basic", GROUP_BY), ("s_agg", SELECT_WHERE),
         ("ed_hist", SELECT_WHERE)],
        ids=["basic-default", "basic-group_by", "s_agg-select_where",
             "ed_hist-select_where"],
    )
    def test_a_mismatch_exits_2_with_one_line_and_posts_nothing(
        self, capsys, monkeypatch, command, protocol, query
    ):
        from repro.net.transport import TCPTransport
        from repro.ssi.server import SupportingServerInfrastructure

        def posted(*args, **kwargs):
            raise AssertionError("the query left the querier")

        monkeypatch.setattr(TCPTransport, "request", posted)
        monkeypatch.setattr(SupportingServerInfrastructure, "post_query", posted)
        argv = [command, "--protocol", protocol, "--tds", "4"]
        if query is not None:  # else the default query, a Group-By
            argv += ["--query", query]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"{command}: ")
        assert f"{protocol!r} cannot run this one" in line


class TestFleetFlags:
    def test_health_probe_with_shards_exits_2_before_any_spawn(
        self, capsys, monkeypatch
    ):
        """Shard workers run no health probe; the flag used to be
        dropped without a word."""
        from repro.net.fleet import ShardedFleetRunner

        def spawned(*args, **kwargs):
            raise AssertionError("a shard worker was configured")

        monkeypatch.setattr(ShardedFleetRunner, "__init__", spawned)
        argv = ["fleet", "--shards", "2", "--health-check-interval", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("fleet: ") and "--health-check-interval" in line


class TestFigures:
    def test_all_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig10a", "fig10c", "fig10e", "fig10g"):
            assert name in out

    def test_single_figure(self, capsys):
        assert main(["figures", "--only", "fig10e"]) == 0
        out = capsys.readouterr().out
        assert "fig10e" in out
        assert "fig10a" not in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figures", "--only", "fig99"])


class TestCostmodel:
    def test_default_point(self, capsys):
        assert main(["costmodel"]) == 0
        out = capsys.readouterr().out
        assert "S_Agg" in out and "ED_Hist" in out
        assert "availability=10%" in out

    def test_custom_point(self, capsys):
        assert main(["costmodel", "--g", "10", "--nt", "5000000"]) == 0
        assert "G=10" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--protocol", "magic"])


class TestRecommend:
    def test_pcehr_scenario(self, capsys):
        assert main(["recommend", "--scenario", "pcehr-token"]) == 0
        assert "recommendation: ED_Hist" in capsys.readouterr().out

    def test_smart_meter_scenario(self, capsys):
        assert main(["recommend", "--scenario", "smart-meter"]) == 0
        assert "recommendation: S_Agg" in capsys.readouterr().out

    def test_balanced_default(self, capsys):
        assert main(["recommend"]) == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "axes (worst < ... < best):" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["recommend", "--scenario", "mars-rover"])
