"""Run reports: JSON records that make every published number auditable.

A report embeds the command echo, the scenario, the seed, the headline
threshold, and the witness and dual certificate of that threshold. An
optimization report adds the best parameters and the per-restart log; its
witness and certificate are those of the certified solve at the best
parameters. verify_report rebuilds the correlation tensor, from the scenario
of a threshold report or from the best parameters of an optimization report,
and checks in exact arithmetic that the witness is a local model at the
reported threshold (so the optimum is no larger) and that the dual's
weak-duality bound lies within the certificate gap below it (so the optimum
is no smaller). That bracket needs no LP. Tampering with any numeric field is
detectable from the file alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .probabilities import CorrelationTensor, correlation_tensor
from .scenario import PhaseSettings, PureState
from .scenario_io import ScenarioFile, _schema_error, explicit_settings_spec, resolve_scenario
from .search import OptimizationConfig, OptimizationResult
from .simplex import SolverOptions
from .simplex import certified_lower_bound  # noqa: F401  unused; perfbench/spans.py patches it here
from .threshold import (
    CERTIFICATE_GAP_TOL,
    WITNESS_MARGINAL_TOL,
    ThresholdResult,
    build_threshold_lp,  # noqa: F401  unused; perfbench/spans.py patches it here
    exact_bracket,
    feasible_at,  # noqa: F401  unused; perfbench/spans.py patches it here
    threshold,  # noqa: F401  unused; perfbench/spans.py patches it here
)

REPORT_VERSION = 2
RECOMPUTE_TOL = 1e-6


class ReportError(ValueError):
    """Report file is unreadable or does not match the schema."""


def _scenario_block(sf: ScenarioFile) -> dict:
    block = {
        "parties": sf.scenario.parties,
        "dim": sf.scenario.dim,
        "settings_per_party": sf.scenario.settings_per_party,
        "state": sf.state_spec,
        "settings": sf.settings_spec,
    }
    if sf.noise is not None:
        block["noise"] = sf.noise
    return block


def _tolerance_block(options: SolverOptions) -> dict:
    return {
        "tol_feas": options.tol_feas,
        "tol_opt": options.tol_opt,
    }


def _report_options(report: dict) -> SolverOptions:
    """The solver options a report was written with, read from its tolerances block."""
    block = report.get("tolerances", {})
    return SolverOptions(**{k: float(block[k]) for k in _tolerance_block(SolverOptions())
                            if k in block})


def build_threshold_report(
    sf: ScenarioFile,
    result: ThresholdResult,
    command: list[str],
    wall_clock_s: float,
    options: SolverOptions | None = None,
) -> dict:
    options = options or SolverOptions()
    report = {
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "kind": "threshold",
        "command": list(command),
        "rng_seed": None,
        "wall_clock_s": wall_clock_s,
        "tolerances": _tolerance_block(options),
        "scenario": _scenario_block(sf),
        "f_thr": result.f_thr,
        "witness": {
            "weights": [float(w) for w in result.witness.weights],
            "noise_weight": result.f_thr,
        },
        "certificate": {
            "dual": [float(y) for y in result.certificate["dual"]],
            "lower_bound": float(result.certificate["lower_bound"]),
            "gap": float(result.certificate["gap"]),
            "marginal_residual": float(result.certificate["marginal_residual"]),
        },
        "solver": dict(result.solver_stats),
    }
    if sf.noise is not None:
        report["local_at_noise"] = _local_at_noise(sf.noise, result.f_thr, options)
    return report


def _local_at_noise(noise: float, f_thr: float, options: SolverOptions) -> bool:
    """Whether the noisy tensor at this noise fraction admits a local model.

    The local noise fractions form [f_thr, 1]: the set is convex and contains
    F = 1, so the certified threshold answers this without a second solve.
    """
    return float(noise) >= f_thr - options.tol_feas


def build_optimize_report(
    sf: ScenarioFile,
    result: OptimizationResult,
    config: OptimizationConfig,
    command: list[str],
    wall_clock_s: float,
    options: SolverOptions | None = None,
) -> dict:
    report = build_threshold_report(sf, result.certified, command, wall_clock_s, options)
    report.update(kind="optimize", rng_seed=config.rng_seed, optimizer={
        "config": asdict(config),
        "best_f_thr": result.best_f_thr,
        "best_settings": [
            [[float(a) for a in row] for row in party]
            for party in result.best_settings.table
        ],
        "best_settings_pretty": explicit_settings_spec(result.best_settings),
        "best_state": [float(c) for c in result.best_state.coeffs],
        "evals": result.evals,
        "per_restart_log": [[int(i), float(v)] for i, v in result.per_restart_log],
    })
    return report


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def _reject_constant(token: str):
    raise ReportError(f"not valid JSON: non-finite number {token}")


def load_report(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ReportError(f"cannot read {path}: {err}") from None
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise ReportError(f"not valid JSON: {err}") from None
    err = _schema_error(raw, "report.schema.json")
    if err is not None:
        where = ".".join(str(p) for p in err.absolute_path) or "<top level>"
        raise ReportError(f"field {where}: {err.message}")
    return raw


def _nonfinite_fields(report: dict, paths: tuple[str, ...], problems: list[str]) -> bool:
    """Name each dotted field that holds NaN or an infinity; True if any does.

    load_report rejects such tokens in files, but every check below has the
    form x > tol, which NaN passes, so an in-memory report is screened here.
    """
    bad = False
    for path in paths:
        value = report
        for key in path.split("."):
            value = value[key]
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            problems.append(f"field {path} holds a non-finite number")
            bad = True
    return bad


def _verify_certificate(report: dict, tensor: CorrelationTensor, problems: list[str]) -> None:
    """Check that the witness and the dual bracket f_thr for this tensor's threshold."""
    certificate = report["certificate"]
    numbers = ("f_thr", "witness.weights", "witness.noise_weight", "certificate.dual",
               "certificate.lower_bound", "certificate.gap")
    if "marginal_residual" in certificate:
        numbers += ("certificate.marginal_residual",)
    if _nonfinite_fields(report, numbers, problems):
        return
    sc = tensor.scenario
    f_rep = float(report["f_thr"])

    weights = np.asarray(report["witness"]["weights"], dtype=float)
    if weights.size != sc.joint_size:
        problems.append(
            f"witness has {weights.size} weights, scenario needs {sc.joint_size}"
        )
        return
    neg = np.flatnonzero(weights < -1e-9)
    if neg.size:
        i = int(neg[0])
        problems.append(
            f"witness weight {i} violates nonnegativity: {weights[i]:.6g}"
        )
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        problems.append(f"witness weights sum to {total:.12f}, expected 1")
    noise_weight = float(report["witness"]["noise_weight"])
    if abs(noise_weight - f_rep) > 1e-12:
        problems.append(f"witness noise_weight {noise_weight!r} differs from f_thr {f_rep!r}")

    options = _report_options(report)
    dual = np.asarray(certificate["dual"], dtype=float)
    if dual.size != sc.marginal_rows + 1:
        problems.append(f"dual has {dual.size} entries, LP has {sc.marginal_rows + 1} rows")
        return
    bound, marginal, norm = exact_bracket(tensor, dual, np.clip(weights, 0.0, None), f_rep)

    # the witness must reproduce the marginals of the noisy correlations at F,
    # which puts the optimum at or below F
    if 0.0 <= f_rep <= 1.0:
        if marginal > WITNESS_MARGINAL_TOL:
            problems.append(
                f"witness marginal residual {float(marginal):.3e} exceeds "
                f"{WITNESS_MARGINAL_TOL:.0e}"
            )
        claimed, own = certificate.get("marginal_residual"), float(max(marginal, norm))
        if claimed is not None and abs(float(claimed) - own) > WITNESS_MARGINAL_TOL:
            problems.append(
                f"certificate marginal_residual {float(claimed):.3e} differs from the "
                f"witness's own residual {own:.3e}"
            )
    else:
        problems.append(f"reported f_thr {f_rep} outside [0, 1]")

    # the dual's weak-duality bound puts the optimum at or above it
    gap = Fraction(f_rep) - bound
    if gap > CERTIFICATE_GAP_TOL:
        problems.append(
            f"f_thr mismatch: report says {f_rep:.9f}, its certificate bounds the "
            f"threshold only from {float(bound):.9f} (gap {float(gap):.3e})"
        )
    claimed_bound = float(certificate["lower_bound"])
    if abs(claimed_bound - float(bound)) > RECOMPUTE_TOL:
        problems.append(
            f"certificate lower_bound says {claimed_bound:.9f}, "
            f"its dual gives {float(bound):.9f}"
        )
    claimed_gap = float(certificate["gap"])
    if abs(claimed_gap - float(gap)) > RECOMPUTE_TOL:
        problems.append(
            f"certificate gap says {claimed_gap:.3e}, f_thr minus its dual's "
            f"bound is {float(gap):.3e}"
        )

    noise = report["scenario"].get("noise")
    if noise is not None and "local_at_noise" in report:
        actual = _local_at_noise(noise, f_rep, options)
        if bool(report["local_at_noise"]) != actual:
            problems.append(
                f"local_at_noise says {report['local_at_noise']}, "
                f"the reported threshold at F={noise} gives {actual}"
            )


def _best_point(report: dict, problems: list[str]) -> tuple[PureState, PhaseSettings] | None:
    """An optimize report's best parameters, after the checks only that kind needs."""
    # the best parameters meet the finiteness checks of PhaseSettings and PureState
    if _nonfinite_fields(report, ("f_thr", "optimizer.best_f_thr", "optimizer.per_restart_log"),
                         problems):
        return None
    sc, own_state, _ = resolve_scenario(report["scenario"])
    opt = report["optimizer"]
    f_rep = float(opt["best_f_thr"])
    if abs(float(report["f_thr"]) - f_rep) > 1e-12:
        problems.append("headline f_thr differs from optimizer best_f_thr")

    log = opt["per_restart_log"]
    if log:
        log_best = max(float(v) for _, v in log)
        if abs(log_best - f_rep) > RECOMPUTE_TOL:
            problems.append(
                f"per-restart log peaks at {log_best:.9f} but best_f_thr is {f_rep:.9f}"
            )
    try:
        state = PureState(sc, np.asarray(opt["best_state"], dtype=float))
        settings = PhaseSettings(sc, np.asarray(opt["best_settings"], dtype=float))
    except ValueError as err:
        problems.append(f"best parameters do not fit the scenario: {err}")
        return None
    # a phases-only search keeps the scenario's own state
    if (opt["config"].get("mode") == "phases_only"
            and np.max(np.abs(state.coeffs - own_state.coeffs)) > 1e-12):
        problems.append("phases_only report's best_state is not the scenario's state")
    return state, settings


def verify_report(report: dict) -> list[str]:
    """Replay a report's claims; returns the list of discrepancies (empty = clean)."""
    problems: list[str] = []
    kind = report.get("kind")
    if kind == "threshold":
        _, state, settings = resolve_scenario(report["scenario"])
    elif kind == "optimize":
        point = _best_point(report, problems)
        if point is None:
            return problems
        state, settings = point
    else:
        return [f"unknown report kind {kind!r}"]
    _verify_certificate(report, correlation_tensor(state, settings), problems)
    return problems
