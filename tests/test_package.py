"""The package's export list matches what it exposes, and its options
are the listed ones."""

import dataclasses
import inspect
import types

import splitsamp

# Every parameter with a default, and every dataclass field with a
# default, of the exported callables and their public methods.  An
# option earns its place here by having a caller in the CLI, the README
# or the acceptance gate; adding one means editing this list.
PUBLIC_OPTIONS = (
    "BoundInputs.M",
    "BoundInputs.c",
    "BoundInputs.equal_probability",
    "DominanceRegime.eps_limit",
    "ExactDesignDistribution.pruned_mass",
    "ExperimentConfig.N",
    "ExperimentConfig.eps_count",
    "ExperimentConfig.n_list",
    "ExperimentConfig.seed",
    "ExperimentConfig.sigma_list",
    "StudyVector._pi",
    "StudyVector._y",
    "bernstein_bound.eps",
    "certify.two_sided",
    "cna_bound.eps",
    "cna_bound_Mc.eps",
    "dominance_regime.sup_y",
    "enumerate_design.N",
    "enumerate_design.max_branches",
    "enumerate_design.n",
    "enumerate_design.pi",
    "enumerate_design.x",
    "estimate_tail.N",
    "estimate_tail.master_seed",
    "estimate_tail.n",
    "estimate_tail.pi",
    "estimate_tail.x",
    "evaluate_bounds.eps",
    "evaluate_bounds.two_sided",
    "lipschitz_bound.eps",
    "make_sampler.N",
    "make_sampler.n",
    "make_sampler.pi",
    "make_sampler.x",
    "midzuno_complementarity_tv.max_branches",
    "run_experiment.config",
    "sample_brewer.trace",
    "solve_confidence_radius.two_sided",
    "solve_sample_size.two_sided",
)


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(splitsamp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(splitsamp.__all__) == sorted(public)


def defaults(func, prefix):
    return {
        f"{prefix}.{p.name}"
        for p in inspect.signature(func).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def public_options():
    found = set()
    for name in splitsamp.__all__:
        obj = getattr(splitsamp, name)
        if inspect.isfunction(obj):
            found |= defaults(obj, name)
        if not inspect.isclass(obj):
            continue
        if dataclasses.is_dataclass(obj):
            found |= {
                f"{name}.{f.name}"
                for f in dataclasses.fields(obj)
                if f.init
                and (
                    f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                )
            }
        for klass in obj.__mro__:
            if not klass.__module__.startswith("splitsamp"):
                continue
            for attr, value in vars(klass).items():
                # A dataclass's own __init__ is its fields, listed above.
                init = attr == "__init__" and not dataclasses.is_dataclass(klass)
                if attr.startswith("_") and not init:
                    continue
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    found |= defaults(value, f"{name}.{attr}")
    return found


def test_public_options_are_listed():
    found = public_options()
    listed = set(PUBLIC_OPTIONS)
    assert len(listed) == len(PUBLIC_OPTIONS)
    assert not found - listed, f"options not listed: {sorted(found - listed)}"
    assert not listed - found, f"listed options gone: {sorted(listed - found)}"
