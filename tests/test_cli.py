import json

import pytest

from poolblend.cli import main
from poolblend.network import Network


def gen_args(out, seed=5):
    return [
        "generate", "--family", "sparse_haverly", "--ni", "4", "--nl", "2",
        "--nj", "3", "--nk", "1", "--na", "9", "--seed", str(seed), "--out", str(out),
    ]


def test_generate_writes_loadable_instance(tmp_path):
    out = tmp_path / "inst.json"
    assert main(gen_args(out)) == 0
    net = Network.from_json(out.read_bytes())
    assert len(net.inputs()) == 4
    again = tmp_path / "inst2.json"
    assert main(gen_args(again)) == 0
    assert out.read_bytes() == again.read_bytes()


def test_solve_with_json_report(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(gen_args(inst))
    report = tmp_path / "report.json"
    code = main([
        "solve", "--instance", str(inst), "--config", "cuts+heuristic",
        "--rel-gap", "1e-4", "--time-limit", "30", "--json-report", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=" in out
    doc = json.loads(report.read_text())
    assert set(doc) == {
        "status", "lower", "upper", "rel_gap", "nodes", "cuts", "wall_seconds",
        "heuristic_seconds", "root_cut_seconds", "fixed_q_lps", "incumbent_source",
    }


def test_heuristic_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(gen_args(inst))
    assert main(["heuristic", "--instance", str(inst), "--tau", "2"]) == 0
    assert "objective" in capsys.readouterr().out


def test_cutloop_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(gen_args(inst))
    capsys.readouterr()
    assert main(["cutloop", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Iter 0: ")
    assert "Adding" in out


def test_bench_command(tmp_path):
    for seed in (11, 12):
        main(gen_args(tmp_path / f"inst{seed}.json", seed=seed))
    out_csv = tmp_path / "records.csv"
    profile = tmp_path / "profile.csv"
    code = main([
        "bench", "--instances-dir", str(tmp_path), "--configs", "default,cuts+heuristic",
        "--out-csv", str(out_csv), "--profile-out", str(profile),
        "--rel-gap", "1e-3", "--time-limit", "30",
    ])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "instance,config,status,time,lower,upper,gap"
    assert len(lines) == 1 + 2 * 2
    assert profile.read_text().startswith("config,tau,rho")
    assert profile.with_suffix(".step.dat").exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "nonsense"])
    assert exc.value.code == 1


def test_bench_unknown_config_exits_1(tmp_path):
    main(gen_args(tmp_path / "inst.json"))
    code = main([
        "bench", "--instances-dir", str(tmp_path), "--configs", "bogus",
        "--out-csv", str(tmp_path / "r.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize(
    "content",
    [None, '{"name": "bad", "nodes": [{"name": "i1"}], "edges": []}', "not json"],
    ids=["missing", "malformed", "not-json"],
)
def test_unreadable_instance_is_one_error_line(tmp_path, capsys, content):
    inst = tmp_path / "inst.json"
    if content is not None:
        inst.write_text(content)
    assert main(["solve", "--instance", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("poolblend: error: ")
    assert captured.err.count("\n") == 1
