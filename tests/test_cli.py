import json
import subprocess
import sys

import pytest

from odrs_lab import bench

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
    assert run("report", "--infile", str(rep), "--csv").stdout == r2.stdout


@pytest.mark.parametrize("text,message", [
    ('[{"a": 1}, {"b": 2}]',
     "report row 1 must be an object with row 0's columns ['a'], not {'b': 2}"),
    ('{"edges": [null]}', "report row 0 must be an object, not None"),
    ('{"edges": [{"a": 1.5}, 5]}',
     "report row 1 must be an object with row 0's columns ['a'], not 5"),
    ('{"edges": {}}', "report rows must be a list, not {}"),
    ('"abc"', "report rows must be a list, not 'abc'"),
    ("7", "report rows must be a list, not 7")])
def test_report_names_the_first_row_that_is_not_one(tmp_path, monkeypatch, capsys, text,
                                                    message):
    import odrs_lab.cli as cli_mod

    path = tmp_path / "rep.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "argv", ["odrs-lab", "report", "--infile", str(path)])
    assert cli_mod.main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"validation failure: {message}\n"


def test_stochastic_cli(tmp_path):
    inst = tmp_path / "st.json"
    run("gen", "--kind", "stochastic", "--n", "4", "--t", "4", "--seed", "2",
        "--out", str(inst))
    r = run("round", "--alg", "stochastic", "--instance", str(inst),
            "--n-runs", "20000")
    doc = json.loads(r.stdout)
    assert doc["ratio"] >= 0.652 - 3 * doc["ratio_ci95"]


def test_zero_fraction_edges_kept_cli_matches_library(tmp_path):
    """The stochastic LP ignores x, so a zero-fraction edge is still an edge
    of the graph: the CLI reports what the library does on the same dict."""
    from odrs_lab import instances, odrs, stochastic

    doc = {"n_offline": 2, "capacities": [1, 1], "arrivals": [
        {"p": 0.9, "edges": [{"i": 0, "x": 0.0, "w": 2.0}, {"i": 1, "x": 0.0, "w": 1.0}]},
        {"p": 0.7, "edges": [{"i": 0, "x": 0.0, "w": 1.5}]}]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    r = run("round", "--alg", "stochastic", "--instance", str(path),
            "--n-runs", "10000", "--seed", "3")
    assert r.returncode == 0, r.stderr
    want = stochastic.eval_vs_lp(instances.instance_from_dict(doc), odrs.scheme_params("odrs"),
                                 runs=10_000, seed=3)
    assert json.loads(r.stdout) == want
    assert want["lp_value"] > 0 and want["ratio"] < 1


@pytest.mark.parametrize("text", ["5", "null", "[]", '"cover"', "{}", *(
    json.dumps({"n_offline": 1, "capacities": [1], "arrivals": arrivals})
    for arrivals in (["a"], {"k": 1}, [[0.5]])), *(
    json.dumps(doc) for doc in (
        {"n_offline": 1, "capacities": {"a": 1}, "arrivals": []},
        {"n_offline": 1, "capacities": [1], "arrivals": [{"edges": {"i": 0, "x": 0.5}}]},
        {"multigraph": {"left": 1, "right": 1, "delta": 1, "arrivals": {"edges": []}}}))])
@pytest.mark.parametrize("cmd", ["validate", "round", "color", "cover"])
def test_documents_of_the_wrong_shape_exit_2(tmp_path, monkeypatch, capsys, cmd, text):
    import odrs_lab.cli as cli_mod

    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [cmd, str(path)] if cmd == "validate" else [cmd, "--instance", str(path)]
    monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
    assert cli_mod.main() == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "internal error" not in err
    assert "TypeError" not in err, err  # a field of the wrong type is named, not a Python error


@pytest.mark.parametrize("doc,message", [
    ({"n_offline": 1, "capacities": {"a": 1}, "arrivals": []},
     "capacities must be a list, not {'a': 1}"),
    ({"n_offline": 1, "capacities": [1], "arrivals": [{"edges": {"i": 0, "x": 0.5}}]},
     "arrivals[0].edges must be a list, not {'i': 0, 'x': 0.5}"),
    ({"multigraph": {"left": 1, "right": 1, "delta": 1, "arrivals": {"edges": []}}},
     "multigraph.arrivals must be a list, not {'edges': []}"),
    ({"multigraph": {"left": 1, "right": 1, "delta": 1, "arrivals": [{"edges": {"j": 0}}]}},
     "multigraph.arrivals[0].edges must be a list, not {'j': 0}"),
    ({"multigraph": {"left": 1, "right": 1, "delta": 1, "arrivals": [[]]}},
     "multigraph.arrivals[0] must be an object, not []")])
def test_an_object_where_a_list_belongs_is_named(tmp_path, monkeypatch, capsys, doc, message):
    import odrs_lab.cli as cli_mod

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "argv", ["odrs-lab", "validate", str(path)])
    assert cli_mod.main() == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"


def test_validate_and_color_agree_on_the_delta_cap(tmp_path, monkeypatch, capsys):
    """A multigraph declaring a delta above the cap is refused at load by
    `validate` and `color` alike, and one beyond the integer bound by the
    schema; one at the cap passes both."""
    import odrs_lab.cli as cli_mod
    from odrs_lab import apps, instances

    def above_cap(delta):
        return (f"invalid instance: delta-above-cap at delta > cap {apps.COLOR_MAX_DELTA} "
                f"(magnitude {delta:.3g})")

    for delta, message in (
            (10**30, f"multigraph.delta must be an integer within ±(2**63 - 1), not {10**30}"),
            (instances.INT_BOUND, above_cap(instances.INT_BOUND)),
            (apps.COLOR_MAX_DELTA + 1, above_cap(apps.COLOR_MAX_DELTA + 1)),
            (apps.COLOR_MAX_DELTA, None)):
        path = tmp_path / f"mg-{delta}.json"
        arrivals = [{"edges": [{"j": 0, "kappa": 1}]}]
        path.write_text(json.dumps({"multigraph": {"left": 1, "right": 1, "delta": delta,
                                                   "arrivals": arrivals}}))
        for argv in (["validate", str(path)], ["color", "--instance", str(path)]):
            monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
            assert cli_mod.main() == (2 if message else 0), (delta, argv)
            err = capsys.readouterr().err
            if message:
                assert err.splitlines() == [f"validation failure: {message}"], err


# every file a command reads, as the argv before the path, with valid companion files
INPUT_PATHS = [["validate"], ["round", "--instance"], ["color", "--instance"],
               ["cover", "--instance"], ["report", "--infile"],
               ["crs", "--v", "{v}", "--dist"], ["crs", "--dist", "{dist}", "--v"]]


@pytest.mark.parametrize("argv,code", [
    *(pytest.param([*opt, "{dir}"], 1, id=" ".join([*opt, "DIR"])) for opt in INPUT_PATHS),
    *(pytest.param([*opt, "{latin1}"], 2, id=" ".join([*opt, "LATIN1"])) for opt in INPUT_PATHS),
    pytest.param(["gen", "--kind", "star", "--out", "{dir}"], 1, id="gen --out DIR"),
    pytest.param(["gen", "--kind", "star", "--out", "{missing}"], 2, id="gen --out MISSING/x")])
def test_unusable_paths_are_refused_in_one_line(tmp_path, monkeypatch, capsys, argv, code):
    """A directory is a usage error (exit 1); a file that is not UTF-8, or an
    output path in a missing directory, is refused (exit 2)."""
    import odrs_lab.cli as cli_mod

    paths = {"dir": tmp_path / "dir", "latin1": tmp_path / "latin1.json",
             "missing": tmp_path / "missing" / "x.json",
             "dist": tmp_path / "dist.json", "v": tmp_path / "v.json"}
    paths["dir"].mkdir()
    paths["latin1"].write_bytes('{"note": "café"}'.encode("latin-1"))
    paths["dist"].write_text(json.dumps({"elements": [0, 1], "atoms": [
        {"set": [0], "p": 0.5}, {"set": [1], "p": 0.5}]}))
    paths["v"].write_text("[0.5, 0.5]")
    monkeypatch.setattr(sys, "argv", ["odrs-lab", *(a.format(**paths) for a in argv)])
    assert cli_mod.main() == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "internal error" not in err, err
    assert not paths["missing"].parent.exists()


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
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def dist_file(name, elements, *atoms):
        return write(name, json.dumps({"elements": elements,
                                       "atoms": [{"set": s, "p": p} for s, p in atoms]}))

    vfile = write("v.json", "[0.5, 0.5]")
    text = write("notes.txt", "not JSON")
    good = dist_file("good.json", [0, 1], ([0], 0.5), ([1], 0.5))
    bad_dists = [
        dist_file("unknown.json", [0, 1], ([0, 7], 1.0)),
        text,
        dist_file("repeat.json", [0, 0], ([0], 1.0)),
        dist_file("nan_p.json", [0, 1], ([0], float("nan")), ([1], 1.0)),
        dist_file("inf_p.json", [0, 1], ([0], float("inf")), ([1], 0.0)),
        dist_file("negative.json", [0, 1], ([0], -0.5), ([1], 1.5)),
        dist_file("short.json", [0, 1], ([0], 0.3), ([1], 0.3)),
    ]
    bad_vs = [write("nan_v.json", "[NaN, 0.5]"), write("inf_v.json", "[0.5, Infinity]")]
    # numbers are ints or floats, as in instance files; the message names the field
    fields = {dist_file("string_p.json", [0, 1], ([0], "0.5"), ([1], 0.5)): "--dist atoms[0].p",
              dist_file("bool_p.json", [0, 1], ([0, 1], True)): "--dist atoms[0].p",
              write("string_v.json", '["0.5", 0.5]'): "--v[0]",
              write("bool_v.json", "[0.5, true]"): "--v[1]"}
    bad_dists += list(fields)[:2]
    bad_vs += list(fields)[2:]
    for cmd in (*(("crs", "--dist", d, "--v", vfile) for d in bad_dists),
                *(("crs", "--dist", good, "--v", v) for v in bad_vs),
                ("report", "--infile", text)):
        r = run(*cmd)
        assert r.returncode == 2 and r.stdout == "", cmd
        assert r.stderr.startswith("validation failure:") and r.stderr.count("\n") == 1, r.stderr
        assert all(field in r.stderr for path, field in fields.items() if path in cmd), r.stderr


def test_crs_tells_a_bool_from_a_number(tmp_path, monkeypatch, capsys):
    """`true` and `1` are two `--dist` elements, `1` and `1.0` one."""
    import odrs_lab.cli as cli_mod

    v = tmp_path / "v.json"
    v.write_text("[0.5, 0.5]")

    def crs(elements, *sets):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"elements": elements, "atoms": [
            {"set": s, "p": 1 / len(sets)} for s in sets]}))
        monkeypatch.setattr(sys, "argv", ["odrs-lab", "crs", "--dist", str(dist), "--v", str(v)])
        return cli_mod.main(), *capsys.readouterr()

    code, out, err = crs([1, True], [1], [True])
    assert code == 0 and err == ""
    assert [(m["element"], m["prob"]) for m in json.loads(out)["marginals"]] == [(1, 0.5),
                                                                                (True, 0.5)]
    assert crs([0, True], [1]) == (
        2, "", "validation failure: atom set names 1, which is not in elements\n")
    assert crs([1, 1.0], [1]) == (2, "", "validation failure: --dist elements repeat: [1, 1.0]\n")


def test_odrs_refuses_b_matching_instances_exit_2(tmp_path):
    inst = tmp_path / "b.json"
    run("gen", "--kind", "random", "--n", "4", "--t", "6", "--max-b", "3", "--seed", "0",
        "--out", str(inst))
    for extra in (("--exact",), ("--sample",), ("--n-runs", "1000")):
        r = run("round", "--alg", "odrs", "--instance", str(inst), *extra)
        assert r.returncode == 2 and r.stdout == "", extra
        assert r.stderr.startswith("error: offline node ") and r.stderr.count("\n") == 1, r.stderr
        assert "use odrs-b" in r.stderr
    r = run("round", "--alg", "odrs-b", "--instance", str(inst), "--exact")
    assert r.returncode == 0, r.stderr


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


def test_non_integral_offline_id_rejected(tmp_path):
    path = tmp_path / "id.json"
    for i, n, message in ((1.7, 2, "arrivals[0].edges[0].i must be an integer, not 1.7"),
                          (-0.5, 2, "arrivals[0].edges[0].i must be an integer, not -0.5"),
                          (1, 2.9, "n_offline must be an integer, not 2.9")):
        path.write_text(json.dumps({"n_offline": n, "capacities": [1, 1],
                                    "arrivals": [{"edges": [{"i": i, "x": 0.5}]}]}))
        r = run("round", "--alg", "odrs", "--exact", "--instance", str(path))
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert r.stderr == f"validation failure: {message}\n"


def test_non_numeric_fraction_rejected(tmp_path):
    path = tmp_path / "x.json"
    for edge, p, field in (({"i": 1, "x": "0.5"}, 1.0, "arrivals[0].edges[0].x"),
                           ({"i": 1, "x": 0.5}, True, "arrivals[0].p"),
                           ({"i": 1, "x": 0.5, "w": False}, 1.0, "arrivals[0].edges[0].w")):
        path.write_text(json.dumps({"n_offline": 2, "capacities": [1, 1],
                                    "arrivals": [{"p": p, "edges": [edge]}]}))
        for cmd in (["validate", str(path)], ["round", "--exact", "--instance", str(path)]):
            r = run(*cmd)
            assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
            assert len(r.stderr.splitlines()) == 1
            assert r.stderr.startswith(f"validation failure: {field} must be a number")


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


def test_lowerbound_n_above_the_cap_is_rejected():
    for n in (bench.LB_MAX_N + 1, 10**9):
        r = run("lowerbound", "--n", str(n))
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert len(r.stderr.splitlines()) == 1 and f"cap {bench.LB_MAX_N}" in r.stderr, r.stderr


def test_round_n_runs_past_the_table_cap_is_refused(tmp_path):
    # an arrival with 17 positive edges: past the batch table cap, and past
    # the 16 bits of the replay's bid masks
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n_offline": 17, "capacities": [1] * 17, "arrivals": [
        {"edges": [{"i": i, "x": 1 / 17} for i in range(17)]}]}))
    for alg in ("warmup", "odrs", "odrs-b"):
        r = run("round", "--alg", alg, "--n-runs", "1000", "--instance", str(path))
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr, r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert f"batch table cap {bench.MAX_TABLE_ACTIVE}" in r.stderr, r.stderr


@pytest.mark.parametrize("declared,extra", [(10**30, []), (3, ["--delta-cap", str(10**30)])])
def test_color_delta_above_the_cap_is_refused_before_any_matcher(
        tmp_path, monkeypatch, capsys, declared, extra):
    import odrs_lab.cli as cli_mod
    from odrs_lab import apps, instances

    def no_matcher(n_offline):
        raise AssertionError("a fair matcher was allocated")

    path = tmp_path / "mg.json"
    path.write_text(json.dumps({"multigraph": {"left": 1, "right": 1, "delta": declared, "arrivals": [
        {"edges": [{"j": 0, "kappa": 3}]}]}}))
    monkeypatch.setattr(apps, "OnlineWarmup", no_matcher)
    monkeypatch.setattr(sys, "argv", ["odrs-lab", "color", "--instance", str(path), *extra])
    assert cli_mod.main() == 2
    err = capsys.readouterr().err
    # a declared delta beyond the integer bound is refused by the schema
    named = ("within ±(2**63 - 1)" if declared > instances.INT_BOUND
             else f"cap {apps.COLOR_MAX_DELTA}")
    assert len(err.splitlines()) == 1 and named in err, err


def test_bad_cover_instances_rejected(tmp_path):
    cov = {"k": 1, "stages": [{"costs": [1.0, 1.0]}],
           "edges": [{"verts": [0, 1], "demand": 1}], "xstar": [[0.5], [0.5]]}
    bad = {"edge-endpoint": {"edges": [{"verts": [0, 2], "demand": 1}]},
           "xstar-shape": {"xstar": [[0.5], []]},
           "bad-xstar": {"xstar": [[0.5], [float("nan")]]},
           "infeasible-xstar": {"xstar": [[0.25], [0.5]]},
           "xstar-above-cap at var 0 stage 0": {"xstar": [[1e19], [0.5]]}}
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


BAD_GENERATOR_OPTIONS = {
    "random-n0": ["--kind", "random", "--n", "0"],
    "random-max-b0": ["--kind", "random", "--max-b", "0"],
    "stochastic-n0": ["--kind", "stochastic", "--n", "0"],
    "cover-n1": ["--kind", "cover", "--n", "1"],
    "cover-n2": ["--kind", "cover", "--n", "2"],
    "multigraph-delta0": ["--kind", "multigraph", "--delta", "0"],
    "multigraph-n-1": ["--kind", "multigraph", "--n", "-1"],
}


@pytest.mark.parametrize("args", BAD_GENERATOR_OPTIONS.values(), ids=BAD_GENERATOR_OPTIONS)
def test_bad_generator_options_exit_2(tmp_path, args):
    out = tmp_path / "i.json"
    r = run("gen", *args, "--out", str(out))
    assert r.returncode == 2 and r.stdout == "" and not out.exists()
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: "), r.stderr


@pytest.mark.parametrize("c", ["0", "-3"])
def test_bad_color_budget_exits_2(tmp_path, c):
    mg = tmp_path / "mg.json"
    assert run("gen", "--kind", "multigraph", "--n", "4", "--delta", "3",
               "--out", str(mg)).returncode == 0
    r = run("color", "--instance", str(mg), "--c", c)
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and "at least 1" in r.stderr, r.stderr


IGNORED_OPTIONS = {
    "round-warmup-eps": (["round", "--alg", "warmup", "--eps", "0.3"], 2, "error: "),
    "round-warmup-delta": (["round", "--alg", "warmup", "--delta", "0.9"], 2, "error: "),
    "round-warmup-eps-delta": (["round", "--alg", "warmup", "--eps", "0.3", "--delta", "0.9"],
                               2, "error: "),
    "lowerbound-warmup-eps": (["lowerbound", "--alg", "warmup", "--eps", "0.3"], 2, "error: "),
    "lowerbound-warmup-delta": (["lowerbound", "--alg", "warmup", "--delta", "0.1"], 2,
                                "error: "),
    "round-exact-sample": (["round", "--exact", "--sample"], 1, "usage error: "),
    "round-stochastic-exact": (["round", "--alg", "stochastic", "--exact"], 1, "usage error: "),
    "round-exact-n-runs": (["round", "--exact", "--n-runs", "5"], 1, "usage error: "),
    "round-exact-n-runs-seed": (["round", "--exact", "--n-runs", "-7", "--seed", "5"], 1,
                                "usage error: "),
    "round-exact-default-n-runs": (["round", "--exact", "--n-runs", "100000"], 1, "usage error: "),
    "round-exact-seed": (["round", "--exact", "--seed", "5"], 1, "usage error: "),
    "round-sample-n-runs": (["round", "--sample", "--n-runs", "3"], 1, "usage error: "),
}


@pytest.mark.parametrize("args, code, prefix", IGNORED_OPTIONS.values(), ids=IGNORED_OPTIONS)
def test_options_the_chosen_path_ignores_are_rejected(tmp_path, args, code, prefix):
    star = tmp_path / "star.json"
    assert run("gen", "--kind", "star", "--n", "4", "--out", str(star)).returncode == 0
    if args[0] == "round":
        args = args + ["--instance", str(star)]
    r = run(*args)
    assert r.returncode == code and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith(prefix), r.stderr
