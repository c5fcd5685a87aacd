"""The scalar samplers' exact laws, enumerated over their uniforms by
`conftest.exact_law`, against the exact engines: agreement to 1e-12 or as
equal Fractions, instead of to a few standard errors."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import exact_law, mask_law, patched_law
from odrs_lab import apps, instances, odrs
from odrs_lab import stochastic as st


def test_exact_law_of_a_two_uniform_sampler():
    runs = []

    def toy(uniform):
        runs.append(1)
        u, v = uniform(), uniform()
        if u < 0.25:
            return "a"
        if 0.5 > v and u < 0.75:  # u is known to be at least 1/4 here
            return "b"
        return "c" if u < 2.0 else "never"  # no fork: every u is below 2

    law = exact_law(toy)
    assert law == {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 2)}
    assert sum(law.values()) == Fraction(1)
    # one run per path: a; b; c past 3/4; c on v >= 1/2
    assert len(runs) == 4
    assert exact_law(lambda uniform: "no draw") == {"no draw": 1}


@pytest.mark.parametrize("use", [float, lambda u: u * 2, lambda u: u >= 0.5],
                         ids=["float", "times-2", "at-least"])
def test_a_draw_that_is_not_only_compared_raises(use):
    with pytest.raises(TypeError):
        exact_law(lambda uniform: use(uniform()))


def test_a_sampler_that_computes_with_a_draw_fails_loudly(monkeypatch):
    # edge coloring picks a copy by `int(u * len(copies))`, so it cannot be
    # enumerated
    mg = instances.gen_random_multigraph(3, 3, 3, 0)
    with pytest.raises(TypeError):
        patched_law(monkeypatch, apps, lambda: apps.edge_color_online(mg, seed=0))


def _instances(**kw):
    return [instances.gen_random(4, 4, 0.7, seed, **kw) for seed in range(10)]


def test_online_warmup_law_equals_compiled_warmup(monkeypatch):
    for inst in _instances(max_b=2):
        comp = odrs.CompiledWarmup(inst)

        def online(uniform):
            warmup, rng = odrs.OnlineWarmup(inst.n_offline), SimpleNamespace(uniform=uniform)
            return tuple((i, t) for t, edges in enumerate(comp.edges)
                         for i in [warmup.arrive(edges, rng)] if i >= 0)

        law = exact_law(online)
        assert sum(law.values()) == 1
        assert law == patched_law(monkeypatch, odrs, lambda: tuple(comp.sample(0).pairs))


def test_stochastic_round_law_equals_stochastic_exact(monkeypatch):
    params = odrs.scheme_params("odrs")
    for inst in _instances(stochastic=True):
        xstar = st.solve_lp(st.build_lp(inst)).x
        law = patched_law(monkeypatch, st, lambda: sum(
            {1 << i for i, _ in st.stochastic_round(inst, xstar, params).pairs}))
        assert sum(law.values()) == 1
        *_, (_, final, _) = st.StochasticExact(inst, xstar, params).evolve()
        assert mask_law(inst.n_offline, law).tv_distance(final) < 1e-12
