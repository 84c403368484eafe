"""Where the tracer hooks into onestep, and the per-layer metrics of one
traced round.

Hooks replace the names a calling module imported (``onestep.cli.*``,
``onestep.sim.*``, ``onestep.cme.*``) plus ``Polynomial.evaluate``, so
the program itself is unchanged.  Layer times are self times.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from tracer import Tracer

SPAN, LEAF, COMPILE = "span", "leaf", "compile"


def _add_len(counter):
    def on_result(tr, args, result):
        tr.counters[counter] += len(result)
    return on_result


def _box_states(tr, args, result):
    tr.counters["cme.box_states"] = max(tr.counters["cme.box_states"],
                                        result.size)


def _generator_nnz(tr, args, result):
    tr.counters["cme.generator_nnz"] = max(tr.counters["cme.generator_nnz"],
                                           result.matrix.nnz)


def _evolve_counts(tr, args, result):
    # the step schedule of evolve_distribution: full steps plus a remainder
    span = args["t_final"] - args["dist"].time
    dt = args["dt"]
    steps = int(span / dt + 1e-9)
    if span - steps * dt > 1e-12 * max(dt, 1.0):
        steps += 1
    tr.counters["cme.rk4_steps"] += steps
    tr.counters["cme.nnz_steps"] += steps * args["gen"].matrix.nnz
    tr.counters["cme.leaked_mass"] = max(tr.counters["cme.leaked_mass"],
                                         result.leaked)


def _em_counts(tr, args, result):
    config = args["config"]
    steps = int(math.ceil(config.t_final / config.dt - 1e-9))
    tr.counters["sim.em.path_steps"] += steps * config.trajectories
    tr.counters["sim.em.clamp_events"] += int(result.clamp_events.sum())


def _ssa_counts(tr, args, result):
    scheme, config = args["scheme"], args["config"]
    tr.deferred.append(lambda: _add_ssa_events(tr, scheme, config, result))


def _add_ssa_events(tr, scheme, config, ensemble):
    """Computed, not counted: the sum over trajectories and grid
    intervals of the total channel rate at the interval's start times
    the interval length."""
    from onestep.cme import reaction_channels

    rates = {sym: float(v) for sym, v in config.rates.items()}
    states = ensemble.paths[:, :-1, :]
    total = np.zeros(states.shape[:2])
    for stoich, _, value in reaction_channels(scheme, rates):
        rate = np.full(states.shape[:2], value)
        for i, m in enumerate(stoich):
            for k in range(m):
                rate = rate * (states[:, :, i] - k)
        total += rate
    tr.counters["sim.ssa.events_est"] += float((total @ np.diff(ensemble.times)).sum())


# (module, attribute, span name, kind, on_result)
HOOKS = [
    ("onestep.cli", "parse_scheme", "scheme.parse", SPAN, None),
    ("onestep.cli", "build_sde_model", "derive.build_model", SPAN, None),
    ("onestep.cli", "transition_rates", "derive.transition_rates", SPAN, None),
    ("onestep.cli", "drift_vector", "derive.drift_vector", SPAN, None),
    ("onestep.cli", "diffusion_matrix", "derive.diffusion_matrix", SPAN, None),
    ("onestep.cli", "emit_latex", "codegen.emit", SPAN, _add_len("codegen.bytes")),
    ("onestep.cli", "emit_c_source", "codegen.emit", SPAN, _add_len("codegen.bytes")),
    ("onestep.cli", "emit_model_json", "codegen.emit", SPAN, _add_len("codegen.bytes")),
    ("onestep.cli", "default_box", "cme.default_box", SPAN, _box_states),
    ("onestep.cli", "jump_moments", "cme.jump_moments", LEAF, None),
    ("onestep.cli", "bind_values", "poly.bind", SPAN, None),
    ("onestep.cli", "as_function", "poly.compile", COMPILE, None),
    ("onestep.cli", "euler_maruyama", "sim.em", SPAN, _em_counts),
    ("onestep.cli", "gillespie_ssa", "sim.ssa", SPAN, _ssa_counts),
    ("onestep.cli", "compare_engines", "sim.compare", SPAN, None),
    ("onestep.cli", "ensemble_moments", "sim.moments", SPAN, None),
    ("onestep.cli", "trajectories_to_csv", "sim.csv", SPAN, _add_len("sim.csv_bytes")),
    ("onestep.cli", "moments_to_csv", "sim.csv", SPAN, _add_len("sim.csv_bytes")),
    ("onestep.cli", "mean_band_svg", "sim.svg", SPAN, None),
    ("onestep.sim", "bind_values", "poly.bind", SPAN, None),
    ("onestep.sim", "as_function", "poly.compile", COMPILE, None),
    ("onestep.sim", "transition_rates", "derive.transition_rates", SPAN, None),
    ("onestep.sim", "reaction_channels", "cme.reaction_channels", SPAN, None),
    ("onestep.sim", "matrix_sqrt_psd", "sim.matrix_sqrt", LEAF, None),
    ("onestep.sim", "euler_maruyama", "sim.em", SPAN, _em_counts),
    ("onestep.sim", "gillespie_ssa", "sim.ssa", SPAN, _ssa_counts),
    ("onestep.sim", "ensemble_moments", "sim.moments", SPAN, None),
    ("onestep.cme", "bind_values", "poly.bind", SPAN, None),
    ("onestep.cme", "as_function", "poly.compile", COMPILE, None),
    ("onestep.cme", "default_box", "cme.default_box", SPAN, _box_states),
    ("onestep.cme", "build_generator", "cme.build_generator", SPAN, _generator_nnz),
    ("onestep.cme", "point_mass", "cme.point_mass", SPAN, None),
    ("onestep.cme", "evolve_distribution", "cme.evolve", SPAN, _evolve_counts),
    ("onestep.cme", "distribution_moments", "cme.moments", SPAN, None),
    ("onestep.poly", "Polynomial.evaluate", "poly.exact_eval", LEAF, None),
]


def _bound_arguments(fn, on_result):
    """on_result with the call's arguments bound to their names."""
    signature = inspect.signature(fn)

    def call(tr, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        on_result(tr, bound.arguments, result)
    return call


def install(tr: Tracer) -> None:
    for module, attr, name, kind, on_result in HOOKS:
        if kind == LEAF:
            tr.install(module, attr, lambda fn, name=name: tr.leaf(name, fn))
        elif kind == COMPILE:
            def make(fn, name=name):
                def compile_and_wrap(*args, **kwargs):
                    return tr.leaf("poly.eval", fn(*args, **kwargs))
                return tr.spanned(name, compile_and_wrap)
            tr.install(module, attr, make)
        else:
            tr.install(module, attr, lambda fn, name=name, cb=on_result: tr.spanned(
                name, fn, cb and _bound_arguments(fn, cb)))


def layer_times(tr: Tracer, scale: float) -> dict[str, float]:
    """Rescaled self time of each span name and leaf in one traced op run."""
    out = {name: tr.self_time(name) * scale for name in {s.name for s in tr.spans}}
    out.update({name: t * scale for name, t in tr.leaf_time.items()})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def round_metrics(runs: dict, cli_ops) -> dict[str, float]:
    """Per-layer metrics of one traced round: op -> (tracer, scale), one
    traced run per op, whose root span is "op.<op>".  Times are rescaled
    by each op's speed scale and summed over the ops."""
    def st(name):
        return sum(tr.self_time(name) * k for tr, k in runs.values())

    def tot(name):
        return sum(tr.total_time(name) * k for tr, k in runs.values())

    def leaf_s(name):
        return sum(tr.leaf_time[name] * k for tr, k in runs.values())

    def calls(name):
        return sum(tr.calls(name) + tr.leaf_calls[name]
                   for tr, _ in runs.values())

    def count(name):
        return sum(tr.counters[name] for tr, _ in runs.values())

    def largest(name):
        return max(tr.counters[name] for tr, _ in runs.values())

    out = {
        "scheme.parse_s": st("scheme.parse"),
        "derive.build_model_s": st("derive.build_model"),
        "derive.build_model_calls": calls("derive.build_model"),
        "poly.compile_s": st("poly.bind") + st("poly.compile"),
        "poly.eval_calls": calls("poly.eval"),
        "poly.eval_s": leaf_s("poly.eval"),
        "poly.exact_eval_calls": calls("poly.exact_eval"),
        "poly.exact_eval_s": leaf_s("poly.exact_eval"),
        "codegen.emit_s": st("codegen.emit"),
        "codegen.bytes": count("codegen.bytes"),
        "cme.default_box_s": st("cme.default_box"),
        "cme.box_states": largest("cme.box_states"),
        "cme.build_generator_s": st("cme.build_generator"),
        "cme.generator_nnz": largest("cme.generator_nnz"),
        "cme.evolve_s": st("cme.evolve"),
        "cme.rk4_steps": count("cme.rk4_steps"),
        "cme.evolve.nnz_per_s": _ratio(4 * count("cme.nnz_steps"),
                                       tot("cme.evolve")),
        "cme.leaked_mass": largest("cme.leaked_mass"),
        "cme.jump_moments_calls": calls("cme.jump_moments"),
        "cme.jump_moments_s": leaf_s("cme.jump_moments"),
        "sim.em_s": st("sim.em"),
        "sim.em.path_steps_per_s": _ratio(count("sim.em.path_steps"),
                                          tot("sim.em")),
        "sim.em.clamp_events": count("sim.em.clamp_events"),
        "sim.matrix_sqrt_calls": calls("sim.matrix_sqrt"),
        "sim.matrix_sqrt_s": leaf_s("sim.matrix_sqrt"),
        "sim.ssa_s": st("sim.ssa"),
        "sim.ssa.events_est": count("sim.ssa.events_est"),
        "sim.ssa.events_per_s": _ratio(count("sim.ssa.events_est"),
                                       tot("sim.ssa")),
        "sim.moments_s": st("sim.moments"),
        "sim.svg_s": st("sim.svg"),
        "sim.csv_s": st("sim.csv"),
        "sim.csv_bytes": count("sim.csv_bytes"),
        "sim.csv.bytes_per_s": _ratio(count("sim.csv_bytes"), tot("sim.csv")),
        "cli.self_s": sum(st(f"op.{op}") for op in cli_ops),
    }
    for op, (tr, _) in runs.items():
        out[f"trace.coverage.{op}"] = 1.0 - _ratio(tr.self_time(f"op.{op}"),
                                                   tr.total_time(f"op.{op}"))
    roots = [f"op.{op}" for op in runs]
    out["trace.coverage"] = 1.0 - _ratio(sum(map(st, roots)),
                                         sum(map(tot, roots)))
    return out
