"""The names the benchmark's tracer wraps by import path still resolve in the
package, so a refactor that renames or moves one shows up here instead of as
a failed traced pass of `perfbench/run.py`."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_spans() -> dict:
    """`EXPECTED_SPANS` of `perfbench/run.py`, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no EXPECTED_SPANS")


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for name, module, path in tracing.SPANS:
        owner = importlib.import_module(f"odrs_lab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer replaces the attribute in the owner's own namespace
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{name}: odrs_lab.{module}.{path}")
    for module, attr in tracing.REQUIRED_BINDINGS:
        if not callable(getattr(importlib.import_module(f"odrs_lab.{module}"), attr, None)):
            missing.append(f"binding odrs_lab.{module}.{attr}")
    assert not missing, missing


def test_expected_spans_are_traced():
    spans = {name for name, _, _ in load_tracing().SPANS}
    expected = expected_spans()
    assert expected
    missing = sorted({name for names in expected.values() for name in names} - spans)
    assert not missing, missing


def test_small_many_spans_fire(tmp_path, monkeypatch):
    """A tiny run of each kind of small-many operation under the installed
    `Tracer` fires every span the workload's traced pass expects, so a call
    that stops going through a module global fails here, not in the
    benchmark's traced gate."""
    from odrs_lab import cli, exact_engine, instances, odrs

    tracing = load_tracing()
    mg = tmp_path / "mg.json"
    instances.save_json(instances.gen_random_multigraph(4, 4, 6, 0), str(mg))
    files = {}
    for alg, stochastic in (("warmup", False), ("odrs", False), ("stochastic", True)):
        files[alg] = tmp_path / f"{alg}.json"
        instances.save_json(instances.gen_random(4, 4, 0.7, 1, stochastic=stochastic),
                            str(files[alg]))
    argvs = [["color", "--csv", "--c", "2", "--seed", "0", "--instance", str(mg)]]
    argvs += [["round", "--alg", alg, "--sample", "--seed", "0", "--instance", str(path)]
              for alg, path in files.items()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.binding_errors() == []
        for argv in argvs:
            monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main() == 0, argv
        eps, delta, _ = odrs.optimize_params("matching")
        exact_engine.rounding_ratio_exact(instances.gen_random(5, 5, 0.7, 2),
                                          odrs.ScalingParams(eps, delta), "odrs")
    finally:
        tracer.uninstall()
    silent = [name for name in expected_spans()["small-many"]
              if name not in tracer.stats or tracer.stats[name].calls == 0]
    assert not silent, silent
    assert sum(st.errors for st in tracer.stats.values()) == 0


def test_exact_large_spans_fire(tmp_path, monkeypatch):
    """Tiny `round --exact` runs of each exact-large scheme under the
    installed `Tracer` fire every span the workload's traced pass expects, so
    a refactor of selector synthesis or the bid-law DP that bypasses a traced
    name fails here, not in the benchmark's traced gate."""
    from odrs_lab import cli, instances

    tracing = load_tracing()
    argvs = []
    for alg, max_b in (("odrs", 1), ("odrs-b", 3), ("warmup", 1)):
        path = tmp_path / f"{alg}.json"
        instances.save_json(instances.gen_random(5, 5, 0.7, 1, max_b=max_b), str(path))
        argvs.append(["round", "--alg", alg, "--exact", "--instance", str(path)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.binding_errors() == []
        for argv in argvs:
            monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main() == 0, argv
    finally:
        tracer.uninstall()
    silent = [name for name in expected_spans()["exact-large"]
              if name not in tracer.stats or tracer.stats[name].calls == 0]
    assert not silent, silent
    assert sum(st.errors for st in tracer.stats.values()) == 0


def test_mc_replay_spans_fire(tmp_path, monkeypatch):
    """Tiny runs of each kind of mc-replay operation (`lowerbound`, `round
    --n-runs` for every replayed scheme, `round --alg stochastic --n-runs`,
    `cover --trials`) under the installed `Tracer` fire every span the
    workload's traced pass expects, so a Monte Carlo kernel that stops going
    through a traced module global fails here, not in the benchmark's traced
    gate."""
    from odrs_lab import cli, instances

    tracing = load_tracing()
    argvs = [["lowerbound", "--n", "4", "--probe", "1000", "--eval", "1000", "--seed", "0"]]
    for alg, max_b, stochastic, runs in (("warmup", 1, False, "1000"), ("odrs", 1, False, "1000"),
                                          ("odrs-b", 3, False, "1000"),
                                          ("stochastic", 1, True, "10000")):
        path = tmp_path / f"{alg}.json"
        instances.save_json(instances.gen_random(5, 5, 0.7, 1, max_b=max_b,
                                                 stochastic=stochastic), str(path))
        argvs.append(["round", "--alg", alg, "--n-runs", runs, "--seed", "0",
                      "--instance", str(path)])
    cover = tmp_path / "cover.json"
    instances.save_json(instances.gen_random_cover(6, 7, 3, 2, 3, 0), str(cover))
    argvs.append(["cover", "--trials", "100", "--seed", "0", "--instance", str(cover)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.binding_errors() == []
        for argv in argvs:
            monkeypatch.setattr(sys, "argv", ["odrs-lab", *argv])
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main() == 0, argv
    finally:
        tracer.uninstall()
    silent = [name for name in expected_spans()["mc-replay"]
              if name not in tracer.stats or tracer.stats[name].calls == 0]
    assert not silent, silent
    assert sum(st.errors for st in tracer.stats.values()) == 0
