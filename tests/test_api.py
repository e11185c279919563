import importlib
import pkgutil

import pytest

import surfrates

MODULES = sorted(m.name for m in pkgutil.iter_modules(surfrates.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"surfrates.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []


# every module but the stencil helpers (_fd) and the command line (cli)
REEXPORTED = sorted(set(MODULES) - {"_fd", "cli"})


def test_package_all_unique_and_resolves():
    exported = surfrates.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(surfrates, attr)]
    assert missing == []
    # one list of public names: the package exports exactly its modules'
    # __all__, each name as the module's own object
    modules = [importlib.import_module(f"surfrates.{name}") for name in REEXPORTED]
    assert set().union(*(mod.__all__ for mod in modules)) == set(exported)
    for mod in modules:
        assert [a for a in mod.__all__ if getattr(mod, a) is not getattr(surfrates, a)] == []


def _rejections():
    """(error, call) of each argument check that the public routes make."""
    from surfrates import (
        ConfigError,
        DerivKind,
        FieldClosure,
        FlowConfig,
        LdGParams,
        MissingSplitError,
        RankError,
        conforming_laplace,
        convected_dt,
        geometry_at,
        get_scenario,
        make_grid,
        material_dt,
        probe_conforming_q_field,
        probe_field,
        probe_q_field,
        probe_tangential,
        project,
        q_dt,
        run_flow,
        sample_events,
        split_tensor,
        surface_laplace,
        tangential_dt,
    )
    from surfrates.cli import run_converge_fd, run_converge_thinfilm, run_verify

    surface = get_scenario("torus-breathing-drift")
    ev = sample_events(surface, 1, 5)[0]
    geom = geometry_at(surface, ev)
    f1, f2 = probe_field(surface, 1), probe_field(surface, 2)
    rank3 = FieldClosure(3, f2.eval)
    tangential = probe_tangential(surface, 2)
    vec, mat = f1.eval(ev.t, ev.y1, ev.y2), f2.eval(ev.t, ev.y1, ev.y2)
    return {
        "split_tensor-rank3": (RankError, lambda: split_tensor(geom, mat, 3)),
        "project-rank1-Q": (RankError, lambda: project(geom, vec, "Q")),
        "project-name": (ConfigError, lambda: project(geom, mat, "Bogus")),
        "tangential_dt-rank3": (RankError, lambda: tangential_dt(surface, rank3, ev, "Upper")),
        "convected_dt-rank3": (RankError, lambda: convected_dt(surface, rank3, ev, "Upper")),
        "surface_laplace-path": (ConfigError, lambda: surface_laplace(surface, f2, ev, "Bogus")),
        "surface_laplace-rank1": (RankError, lambda: surface_laplace(surface, f1, ev, "Decomposed")),
        "conforming_laplace-path": (
            ConfigError,
            lambda: conforming_laplace(surface, probe_conforming_q_field(surface), ev, "Bogus"),
        ),
        "material_dt-path": (ConfigError, lambda: material_dt(surface, f2, ev, "Bogus")),
        "material_dt-rank3": (RankError, lambda: material_dt(surface, rank3, ev)),
        "tangential_dt-path": (
            ConfigError,
            lambda: tangential_dt(surface, tangential, ev, DerivKind.Upper, "Bogus"),
        ),
        "tangential_dt-conforming": (
            ConfigError,
            lambda: tangential_dt(surface, tangential, ev, DerivKind.ConformingMaterial),
        ),
        # a closure whose layout is not the one the route reads
        "q_dt-full-field": (MissingSplitError, lambda: q_dt(surface, f2, ev, "Material")),
        "material_dt-Decomposed-q-field": (
            MissingSplitError,
            lambda: material_dt(surface, probe_q_field(surface), ev, "Decomposed"),
        ),
        "conforming_laplace-full-field": (
            MissingSplitError,
            lambda: conforming_laplace(surface, f2, ev),
        ),
        "tangential_dt-full-field": (
            MissingSplitError,
            lambda: tangential_dt(surface, f2, ev, DerivKind.Upper),
        ),
        "convected_dt-conforming": (
            ConfigError,
            lambda: convected_dt(surface, f2, ev, DerivKind.ConformingMaterial),
        ),
        "run_verify-suite": (ConfigError, lambda: run_verify("torus-static", "bogus")),
        "FlowConfig-dt": (ConfigError, lambda: FlowConfig(dt=0.0)),
        "FlowConfig-steps": (ConfigError, lambda: FlowConfig(steps=-1)),
        "run_verify-n_events-float": (
            ConfigError,
            lambda: run_verify("torus-static", n_events=2.5),
        ),
        "sample_events-n-float": (ConfigError, lambda: sample_events(surface, 2.5, 5)),
        "run_verify-seed-float": (ConfigError, lambda: run_verify("torus-static", seed=1.5)),
        "run_converge_fd-seed-float": (
            ConfigError,
            lambda: run_converge_fd("torus-breathing", seed=1.5),
        ),
        "run_converge_thinfilm-seed-float": (
            ConfigError,
            lambda: run_converge_thinfilm("torus-breathing-drift", seed=1.5),
        ),
        "FlowConfig-n-float": (ConfigError, lambda: FlowConfig(n=16.5)),
        "FlowConfig-steps-float": (ConfigError, lambda: FlowConfig(steps=2.5)),
        "FlowConfig-seed-float": (ConfigError, lambda: FlowConfig(seed=1.5)),
        "FlowConfig-snapshot_every-float": (ConfigError, lambda: FlowConfig(snapshot_every=0.5)),
        "FlowConfig-crosscheck_every-float": (
            ConfigError,
            lambda: FlowConfig(crosscheck_every=0.5),
        ),
        "make_grid-n1-float": (ConfigError, lambda: make_grid(surface, 0.0, 16.5)),
        "make_grid-n2-float": (ConfigError, lambda: make_grid(surface, 0.0, 16, 16.5)),
        "run_flow-snapshot-without-out_dir": (
            ConfigError,
            lambda: run_flow(surface, LdGParams(), FlowConfig(n=16, steps=1, snapshot_every=1)),
        ),
    }


@pytest.mark.parametrize("case", sorted(_rejections()))
def test_bad_argument_raises_the_named_error(case):
    error, call = _rejections()[case]
    with pytest.raises(error):
        call()
