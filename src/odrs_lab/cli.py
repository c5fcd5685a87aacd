"""Command-line surface: odrs-lab.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 invariant
breach or any other unexpected error. Reports are JSON (CSV with --csv) and
byte-reproducible for a fixed seed; wall times go to stderr only.
"""

import os
import sys

if "ODRS_THREADS" in os.environ:  # must precede numpy's initialization
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, os.environ["ODRS_THREADS"])

import json  # noqa: E402
import time  # noqa: E402

import click  # noqa: E402

from . import apps, bench, instances, odrs, stochastic  # noqa: E402
from . import crs as crs_mod  # noqa: E402
from .errors import InvariantBreach, OdrsLabError, ValidationFailure  # noqa: E402


def _echo(text: str, err: bool = False):
    """click.echo to the current sys.stdout (or sys.stderr), named explicitly:
    with no `file`, click caches a wrapper per stream for the life of the
    process, which keeps every stream it has written to alive."""
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _read_json(path: str, what: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"{what} is not JSON: line {exc.lineno} col "
                                    f"{exc.colno}: {exc.msg}") from exc


def _emit(doc, csv: bool = False):
    _echo(_to_csv(doc) if csv else instances.dumps(doc))


def _to_csv(doc) -> str:
    rows = doc.get("edges") if isinstance(doc, dict) else None
    if rows is None:
        rows = [doc] if isinstance(doc, dict) else list(doc)
    if not rows:
        return ""
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(format(r[c], ".17g") if isinstance(r[c], float) else str(r[c])
                              for c in cols))
    return "\n".join(lines)


@click.group()
def cli():
    """Online dependent rounding workbench."""


@cli.command("validate")
@click.argument("path", type=click.Path(exists=True))
def validate_cmd(path):
    """Check an instance against the fractional b-matching constraints."""
    inst = instances.load_json(path)
    if not isinstance(inst, instances.MatchingInstance):
        _echo(instances.dumps({"valid": True, "kind": type(inst).__name__}))
        return
    rep = instances.validate(inst)
    _emit({"valid": rep.valid,
           "violations": [{"kind": v.kind, "where": v.where, "magnitude": v.magnitude}
                          for v in rep.violations]})
    if not rep.valid:
        raise ValidationFailure("instance invalid")


@cli.command("gen")
@click.option("--kind", type=click.Choice(["star", "lb", "random", "stochastic",
                                           "multigraph", "cover"]), required=True)
@click.option("--n", default=5, show_default=True)
@click.option("--t", "arrivals", default=5, show_default=True)
@click.option("--density", default=0.7, show_default=True)
@click.option("--max-b", default=1, show_default=True)
@click.option("--delta", "mg_delta", default=16, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def gen_cmd(kind, n, arrivals, density, max_b, mg_delta, seed, out):
    """Generate an instance and write it as JSON."""
    if kind == "star":
        inst = instances.gen_uniform_star(n)
    elif kind == "lb":
        inst = instances.gen_lb_prefix(n)
    elif kind == "random":
        inst = instances.gen_random(n, arrivals, density, seed, max_b=max_b)
    elif kind == "stochastic":
        inst = instances.gen_random(n, arrivals, density, seed, stochastic=True)
    elif kind == "multigraph":
        inst = instances.gen_random_multigraph(n, n, mg_delta, seed)
    else:
        inst = instances.gen_random_cover(n, max(3, n), 3, 2, 3, seed)
    instances.save_json(inst, out)
    _echo(f"wrote {kind} instance to {out}", err=True)


@cli.command("round")
@click.option("--alg", type=click.Choice(["warmup", "odrs", "odrs-b", "stochastic"]),
              default="odrs", show_default=True)
@click.option("--instance", "path", type=click.Path(exists=True), required=True)
@click.option("--eps", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--seed", default=0, show_default=True)
@click.option("--n-runs", default=100_000, show_default=True)
@click.option("--exact", is_flag=True)
@click.option("--sample", is_flag=True, help="Emit one sampled matching instead of probabilities.")
@click.option("--csv", is_flag=True)
def round_cmd(alg, path, eps, delta, seed, n_runs, exact, sample, csv):
    """Round an instance and report per-edge match probabilities."""
    inst = instances.load_json(path)
    if not isinstance(inst, instances.MatchingInstance):
        raise ValidationFailure("round expects a matching instance")
    instances.validate(inst).raise_if_invalid()
    t0 = time.time()
    if alg == "stochastic":  # rounds with the matching ODRS's parameters
        params = odrs.scheme_params("odrs", eps, delta)
        if sample:
            sol = stochastic.solve_lp(stochastic.build_lp(inst))
            m = stochastic.stochastic_round(inst, sol.x, params, seed=seed)
            _emit(m.to_json_list(), csv)
        else:
            _emit(stochastic.eval_vs_lp(inst, params, runs=n_runs, seed=seed), csv)
    else:
        name = alg.replace("-", "_")
        params = odrs.scheme_params(name, eps, delta)
        if sample:
            _emit(odrs.compile_scheme(name, inst, params).sample(seed).to_json_list(), csv)
        else:
            rep = bench.monte_carlo_edge_probs(name, inst, n_runs, seed,
                                               params=params, exact=exact)
            _emit(rep.to_json_dict(), csv)
    _echo(f"wall time {time.time() - t0:.2f}s", err=True)


@cli.command("optimize-params")
@click.option("--variant", type=click.Choice(["matching", "b-matching"]),
              default="matching", show_default=True)
def optimize_cmd(variant):
    """Numerically maximize the rounding-ratio bound."""
    eps, delta, alpha = odrs.optimize_params(variant.replace("-", "_"))
    _emit({"variant": variant, "eps": eps, "delta": delta, "alpha": alpha})


@cli.command("crs")
@click.option("--dist", "dist_path", type=click.Path(exists=True), required=True)
@click.option("--v", "v_path", type=click.Path(exists=True), required=True)
def crs_cmd(dist_path, v_path):
    """Balance ratio and exact selector marginals of a subset distribution."""
    doc = _read_json(dist_path, "--dist")
    v = _read_json(v_path, "--v")
    try:
        elements = tuple(doc["elements"])
        pos = {e: k for k, e in enumerate(elements)}
        atoms = {}
        for a in doc["atoms"]:
            mask = 0
            for e in a["set"]:
                if e not in pos:
                    raise ValidationFailure(f"atom set names {e!r}, which is not in elements")
                mask |= 1 << pos[e]
            atoms[mask] = atoms.get(mask, 0.0) + float(a["p"])
        v = [float(vv) for vv in v]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed --dist or --v JSON: {exc!r}") from exc
    dist = crs_mod.SupportDistribution(elements, tuple(atoms.items()))
    dist.check()
    alpha = crs_mod.balance_ratio(dist, v)
    rule = crs_mod.build_selector(dist, v)
    marg = crs_mod.exact_marginals(dist, rule)
    _emit({"alpha": alpha,
           "marginals": [{"element": e, "prob": float(m), "target": alpha * float(vv)}
                         for e, m, vv in zip(elements, marg, v)],
           "max_error": float(max(abs(float(m) - alpha * float(vv))
                                  for m, vv in zip(marg, v)))})


@cli.command("lowerbound")
@click.option("--n", default=30, show_default=True)
@click.option("--probe", default=200_000, show_default=True)
@click.option("--eval", "n_eval", default=1_000_000, show_default=True)
@click.option("--alg", type=click.Choice(["warmup", "odrs"]), default="odrs")
@click.option("--eps", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--seed", default=0, show_default=True)
def lowerbound_cmd(n, probe, n_eval, alg, eps, delta, seed):
    """Adversarial instance search for a low final-arrival edge ratio."""
    params = odrs.scheme_params(alg, eps, delta)
    doc = bench.lb_adversary(alg, n, probe, n_eval, seed, params=params)
    doc["root_residual"] = bench.lb_root_check()
    _emit(doc)


@cli.command("color")
@click.option("--instance", "path", type=click.Path(exists=True), required=True)
@click.option("--c", "c_colors", type=int, default=None)
@click.option("--delta-cap", type=int, default=None,
              help="Override the declared max degree.")
@click.option("--seed", default=0, show_default=True)
@click.option("--csv", is_flag=True)
def color_cmd(path, c_colors, delta_cap, seed, csv):
    """Edge-color a bipartite multigraph online; report properness."""
    mg = instances.load_json(path)
    if not isinstance(mg, instances.MultigraphInstance):
        raise ValidationFailure("color expects a multigraph instance")
    if delta_cap is not None:
        mg = instances.MultigraphInstance(mg.n_left, mg.n_right, delta_cap, mg.arrivals)
        instances.validate_multigraph(mg).raise_if_invalid()
    coloring = apps.edge_color_online(mg, C=c_colors, seed=seed)
    rep = apps.verify_coloring(mg, coloring)
    if not (rep.proper and rep.all_colored):
        raise InvariantBreach(f"improper coloring: {rep.violations[:3]}")
    if csv:
        lines = ["left,right,copy,color"]
        for (t, j, copy), c in sorted(coloring.colors.items()):
            lines.append(f"{t},{j},{copy},{c}")
        _echo("\n".join(lines))
    else:
        _emit({"proper": rep.proper, "all_colored": rep.all_colored,
               "colors_used": rep.colors_used, "delta": rep.delta,
               "ratio": rep.ratio})


@cli.command("cover")
@click.option("--instance", "path", type=click.Path(exists=True), required=True)
@click.option("--trials", default=0, show_default=True,
              help="Monte Carlo trials; 0 rounds once and verifies.")
@click.option("--seed", default=0, show_default=True)
def cover_cmd(path, trials, seed):
    """Round a multi-stage cover instance; verify coverage and cost."""
    cov = instances.load_json(path)
    if not isinstance(cov, instances.CoverInstance):
        raise ValidationFailure("cover expects a cover instance")
    if trials:
        _emit(apps.cover_trials(cov, trials, seed))
    else:
        sol = apps.round_multistage_cover(cov, seed)
        rep = apps.verify_cover(cov, sol)
        if not rep.covered:
            raise InvariantBreach(f"coverage violated: {rep.violations[:3]}")
        _emit({"covered": rep.covered, "cost": rep.cost, "cost_ratio": rep.cost_ratio,
               "alpha": apps.cover_alpha(cov),
               "y": [[int(v) for v in row] for row in sol.y]})


@cli.command("report")
@click.option("--infile", "path", type=click.Path(exists=True), required=True)
@click.option("--csv", is_flag=True, default=True, show_default=True)
def report_cmd(path, csv):
    """Re-emit a JSON report (CSV by default)."""
    doc = _read_json(path, "--infile")
    try:
        text = _to_csv(doc) if csv else instances.dumps(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"--infile is not a report: {exc!r}") from exc
    _echo(text)


def main():
    try:
        cli.main(standalone_mode=False)
        return 0
    except click.UsageError as exc:
        _echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ValidationFailure as exc:
        _echo(f"validation failure: {exc}", err=True)
        return 2
    except InvariantBreach as exc:
        _echo(f"invariant breach: {exc}", err=True)
        return 3
    except OdrsLabError as exc:
        _echo(f"error: {exc}", err=True)
        return 2
    except click.exceptions.Abort:
        return 1
    except Exception as exc:  # a bug, not an input: one line instead of a traceback
        _echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
