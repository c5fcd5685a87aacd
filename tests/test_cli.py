import json
import subprocess
import sys

CLI = [sys.executable, "-m", "odrs_lab.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_unknown_flag_exits_1():
    r = run("round", "--bogus")
    assert r.returncode == 1
    assert "usage error" in r.stderr


def test_validate_ok_and_failure(tmp_path):
    star = tmp_path / "star.json"
    assert run("gen", "--kind", "star", "--n", "6", "--out", str(star)).returncode == 0
    r = run("validate", str(star))
    assert r.returncode == 0
    assert json.loads(r.stdout)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n_offline": 1, "capacities": [1],
        "arrivals": [{"edges": [{"i": 0, "x": 0.6}]},
                     {"edges": [{"i": 0, "x": 0.6}]}]}))
    r2 = run("validate", str(bad))
    assert r2.returncode == 2
    assert json.loads(r2.stdout)["valid"] is False


def test_round_exact_star(tmp_path):
    star = tmp_path / "star.json"
    run("gen", "--kind", "star", "--n", "10", "--out", str(star))
    r = run("round", "--alg", "warmup", "--instance", str(star), "--exact")
    doc = json.loads(r.stdout)
    assert abs(doc["min_ratio"] - (1 - 0.9 ** 10)) < 1e-9


def test_round_reports_byte_identical(tmp_path):
    inst = tmp_path / "inst.json"
    run("gen", "--kind", "random", "--n", "5", "--t", "5", "--seed", "3",
        "--out", str(inst))
    a = run("round", "--alg", "odrs", "--instance", str(inst), "--seed", "9",
            "--n-runs", "20000")
    b = run("round", "--alg", "odrs", "--instance", str(inst), "--seed", "9",
            "--n-runs", "20000")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


GOLDEN_OPTIMIZE_PARAMS = {
    "matching": '{\n "variant": "matching",\n "eps": 0.048082997514206034,\n'
                ' "delta": 0.064347656249999996,\n "alpha": 0.65280803729474313\n}\n',
    "b-matching": '{\n "variant": "b-matching",\n "eps": 0.033882126796837005,\n'
                  ' "delta": 0.041410644531250013,\n "alpha": 0.64602285850108121\n}\n',
}


def test_optimize_params_cli():
    r = run("optimize-params", "--variant", "matching")
    doc = json.loads(r.stdout)
    assert doc["alpha"] >= 0.6519
    for variant, golden in GOLDEN_OPTIMIZE_PARAMS.items():
        assert run("optimize-params", "--variant", variant).stdout == golden


def test_crs_cli(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({
        "elements": [0, 1],
        "atoms": [{"set": [], "p": 0.25}, {"set": [0], "p": 0.25},
                  {"set": [1], "p": 0.25}, {"set": [0, 1], "p": 0.25}]}))
    vfile = tmp_path / "v.json"
    vfile.write_text("[0.5, 0.5]")
    r = run("crs", "--dist", str(dist), "--v", str(vfile))
    doc = json.loads(r.stdout)
    assert abs(doc["alpha"] - 0.75) < 1e-12
    assert doc["max_error"] < 1e-9


def test_color_and_cover_cli(tmp_path):
    mg = tmp_path / "mg.json"
    run("gen", "--kind", "multigraph", "--n", "8", "--delta", "12", "--out", str(mg))
    r = run("color", "--instance", str(mg), "--c", "4")
    doc = json.loads(r.stdout)
    assert doc["proper"] and doc["all_colored"]

    cov = tmp_path / "cov.json"
    run("gen", "--kind", "cover", "--n", "8", "--out", str(cov))
    r2 = run("cover", "--instance", str(cov), "--trials", "3000")
    doc2 = json.loads(r2.stdout)
    assert doc2["violations"] == 0


def test_report_csv_roundtrip(tmp_path):
    star = tmp_path / "star.json"
    run("gen", "--kind", "star", "--n", "4", "--out", str(star))
    r = run("round", "--alg", "warmup", "--instance", str(star), "--exact")
    rep = tmp_path / "rep.json"
    rep.write_text(r.stdout)
    r2 = run("report", "--infile", str(rep))
    lines = r2.stdout.strip().splitlines()
    assert lines[0].startswith("offline,arrival,x,prob")
    assert len(lines) == 5


def test_stochastic_cli(tmp_path):
    inst = tmp_path / "st.json"
    run("gen", "--kind", "stochastic", "--n", "4", "--t", "4", "--seed", "2",
        "--out", str(inst))
    r = run("round", "--alg", "stochastic", "--instance", str(inst),
            "--n-runs", "20000")
    doc = json.loads(r.stdout)
    assert doc["ratio"] >= 0.652 - 3 * doc["ratio_ci95"]


def test_exit_code_mapping(monkeypatch):
    import click
    import odrs_lab.cli as cli_mod
    from odrs_lab.errors import InvariantBreach, ValidationFailure

    class Boom:
        def __init__(self, exc):
            self.exc = exc
        def main(self, standalone_mode=False):
            raise self.exc

    monkeypatch.setattr(cli_mod, "cli", Boom(InvariantBreach("x")))
    assert cli_mod.main() == 3
    monkeypatch.setattr(cli_mod, "cli", Boom(ValidationFailure("y")))
    assert cli_mod.main() == 2
    monkeypatch.setattr(cli_mod, "cli", Boom(click.UsageError("z")))
    assert cli_mod.main() == 1
    monkeypatch.setattr(cli_mod, "cli", Boom(KeyError("w")))
    assert cli_mod.main() == 3


def test_bad_crs_and_report_inputs_exit_2(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"elements": [0, 1], "atoms": [{"set": [0, 7], "p": 1.0}]}))
    vfile = tmp_path / "v.json"
    vfile.write_text("[0.5, 0.5]")
    text = tmp_path / "notes.txt"
    text.write_text("not JSON")
    for cmd in (("crs", "--dist", str(dist), "--v", str(vfile)),
                ("crs", "--dist", str(text), "--v", str(vfile)),
                ("report", "--infile", str(text))):
        r = run(*cmd)
        assert r.returncode == 2 and r.stdout == "", cmd
        assert r.stderr.startswith("validation failure:") and r.stderr.count("\n") == 1, r.stderr


def test_round_sample_emits_matching(tmp_path):
    inst = tmp_path / "i.json"
    run("gen", "--kind", "random", "--n", "5", "--t", "5", "--seed", "8",
        "--out", str(inst))
    r = run("round", "--alg", "odrs", "--instance", str(inst), "--seed", "2",
            "--sample")
    doc = json.loads(r.stdout)
    assert isinstance(doc, list)
    assert all(set(d) == {"arrival", "offline"} for d in doc)


def test_non_finite_input_rejected(tmp_path):
    def write(name, **edge):
        path = tmp_path / name
        path.write_text(json.dumps({
            "n_offline": 2, "capacities": [1, 1],
            "arrivals": [{"edges": [{"i": 0, "x": 0.3, **edge}, {"i": 1, "x": 0.4}]}]}))
        return str(path)

    nan_x = write("x.json", x=float("nan"))
    r = run("round", "--exact", "--alg", "odrs", "--instance", nan_x)
    assert r.returncode == 2 and r.stdout == ""
    assert "non-finite" in r.stderr and "Traceback" not in r.stderr
    r = run("validate", nan_x)
    assert r.returncode == 2 and "non-finite" in r.stderr
    nan_w = write("w.json", w=float("nan"))
    assert run("validate", nan_w).returncode == 2
    inf_p = tmp_path / "p.json"
    inf_p.write_text('{"n_offline": 1, "capacities": [Infinity],'
                     ' "arrivals": [{"p": Infinity, "edges": [{"i": 0, "x": 0.5}]}]}')
    r = run("validate", str(inf_p))
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_multigraph_out_of_range_rejected(tmp_path):
    mg = tmp_path / "mg.json"
    mg.write_text(json.dumps({"multigraph": {
        "left": 1, "right": 2, "delta": 2,
        "arrivals": [{"edges": [{"j": 5, "kappa": 1}, {"j": 0, "kappa": 3}]}]}}))
    for cmd in (["validate", str(mg)], ["color", "--instance", str(mg)]):
        r = run(*cmd)
        assert r.returncode == 2 and "Traceback" not in r.stderr
        assert "edge-endpoint" in r.stderr and "left-degree" in r.stderr


def test_main_releases_captured_streams(tmp_path, monkeypatch):
    """In-process runs write to whatever sys.stdout/sys.stderr are and keep no
    reference to them afterwards."""
    import contextlib
    import gc
    import io
    import weakref

    import odrs_lab.cli as cli_mod

    star = tmp_path / "star.json"
    refs = []
    for argv in (["gen", "--kind", "star", "--n", "3", "--out", str(star)],
                 ["validate", str(star)]):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli_mod.main() == 0
        assert (out.getvalue() or err.getvalue()).endswith("\n")
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_round_rejects_other_instance_kinds(tmp_path):
    mg = tmp_path / "mg.json"
    assert run("gen", "--kind", "multigraph", "--n", "4", "--delta", "3",
               "--out", str(mg)).returncode == 0
    r = run("round", "--instance", str(mg))
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert "round expects a matching instance" in r.stderr


def test_color_delta_cap_is_validated(tmp_path):
    mg = tmp_path / "mg.json"
    run("gen", "--kind", "multigraph", "--n", "6", "--delta", "4", "--seed", "1",
        "--out", str(mg))
    r = run("color", "--instance", str(mg), "--delta-cap", "0")
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert "bad-delta" in r.stderr
    r = run("color", "--instance", str(mg), "--delta-cap", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert "left-degree" in r.stderr and "degree 4 > 1" in r.stderr
    assert run("color", "--instance", str(mg), "--delta-cap", "4").returncode == 0


def test_non_integral_capacity_rejected(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"n_offline": 1, "capacities": [2.5],
                                "arrivals": [{"edges": [{"i": 0, "x": 0.5}]}]}))
    for cmd in (["validate", str(path)], ["round", "--exact", "--instance", str(path)]):
        r = run(*cmd)
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert "bad-capacity at offline 0 (magnitude 2.5)" in r.stderr


def test_run_counts_are_validated(tmp_path):
    cov = tmp_path / "cov.json"
    assert run("gen", "--kind", "cover", "--n", "6", "--out", str(cov)).returncode == 0
    for args in (["lowerbound", "--n", "5", "--eval", "0"],
                 ["lowerbound", "--n", "5", "--probe", "0"],
                 ["lowerbound", "--n", "5", "--eval", "-5"],
                 ["lowerbound", "--n", "5", "--probe", "999"],
                 ["cover", "--instance", str(cov), "--trials", "-5"],
                 ["cover", "--instance", str(cov), "--trials", "1"]):
        r = run(*args)
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr, args
        assert "error:" in r.stderr
    r = run("lowerbound", "--n", "5", "--probe", "1000", "--eval", "1000")
    assert r.returncode == 0 and json.loads(r.stdout)["eval_runs"] == 1000


def test_bad_cover_instances_rejected(tmp_path):
    cov = {"k": 1, "stages": [{"costs": [1.0, 1.0]}],
           "edges": [{"verts": [0, 1], "demand": 1}], "xstar": [[0.5], [0.5]]}
    bad = {"edge-endpoint": {"edges": [{"verts": [0, 2], "demand": 1}]},
           "xstar-shape": {"xstar": [[0.5], []]},
           "bad-xstar": {"xstar": [[0.5], [float("nan")]]},
           "infeasible-xstar": {"xstar": [[0.25], [0.5]]}}
    for kind, over in bad.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"cover": {**cov, **over}}))
        for cmd in (["validate", str(path)], ["cover", "--instance", str(path)],
                    ["cover", "--instance", str(path), "--trials", "1000"]):
            r = run(*cmd)
            assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr, cmd
            assert kind in r.stderr, (kind, r.stderr)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"cover": cov}))
    assert run("cover", "--instance", str(good)).returncode == 0


def test_bad_per_arrival_b_rejected(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"n_offline": 1, "capacities": [1],
                                "arrivals": [{"b": 2.5, "edges": [{"i": 0, "x": 0.5}]}]}))
    r = run("validate", str(path))
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert "bad-b at arrival 0 (magnitude 2.5)" in r.stderr
    path.write_text(json.dumps({"n_offline": 2, "capacities": [1, 1],
                                "arrivals": [{"b": 10 ** 6, "edges": [{"i": 0, "x": 0.5}]}]}))
    r = run("validate", str(path))
    assert r.returncode == 2 and "bad-b at arrival 0 (magnitude 1e+06)" in r.stderr
