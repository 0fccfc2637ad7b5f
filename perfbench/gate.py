"""Correctness gate, run after the timed window.

An operation fails when a CLI command exits nonzero or raises, when `verify`
does not print "ok", when the README anchor does not print 0.400000, or when
its certified threshold differs from scipy's HiGHS on the same LP
(build_threshold_lp) by more than 1e-7. Optimize reports are verified here,
outside the window. Every operation's threshold is written out in full
precision so that two commits can be diffed against the 1e-9 rule.

Import this module with the checkout's src/ on sys.path.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

import workloads
from lrthresh import (PhaseSettings, PureState, build_threshold_lp, correlation_tensor,
                      load_scenario_file)
from lrthresh.cli import main as cli_main

HIGHS_TOL = 1e-7


def highs_threshold(state, settings) -> float:
    """Optimum of the threshold LP (build_threshold_lp) by scipy's bundled HiGHS."""
    lp = build_threshold_lp(correlation_tensor(state, settings))
    res = linprog(lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the threshold LP: {res.message}")
    return float(res.fun)


class Gate:
    """Checks operation records; HiGHS results are cached per input file."""

    def __init__(self):
        self._highs_by_input: dict[str, float] = {}

    def _highs_for_input(self, scenario: str) -> float:
        if scenario not in self._highs_by_input:
            sf = load_scenario_file(scenario)
            self._highs_by_input[scenario] = highs_threshold(sf.state, sf.settings)
        return self._highs_by_input[scenario]

    @staticmethod
    def _highs_for_optimum(scenario: str, report: dict) -> float:
        sc = load_scenario_file(scenario).scenario
        opt = report["optimizer"]
        return highs_threshold(PureState(sc, np.asarray(opt["best_state"])),
                               PhaseSettings(sc, np.asarray(opt["best_settings"])))

    def check(self, record: dict) -> dict:
        """Gate one operation record from the worker; returns its threshold row."""
        certify = record["kind"] == "certify"
        row = {"op": record["op"], "label": record["label"], "report": record["report"],
               "f_thr": None, "highs": None}
        problems = []
        if record["error"]:
            problems.append("exception: " + record["error"].strip().splitlines()[-1])
        codes = record["codes"]
        if len(codes) != (2 if certify else 1) or any(c != 0 for c in codes):
            problems.append(f"exit codes {codes}")
        if not problems:
            with open(record["report"]) as fh:
                report = json.load(fh)
            row["f_thr"] = float(report["f_thr"])
            if certify:
                headline, verdict = record["stdout"]
                if verdict != "ok":
                    problems.append(f"verify printed {verdict!r}")
                if record["label"].endswith("anchor") and headline != workloads.ANCHOR_HEADLINE:
                    problems.append(f"anchor printed {headline!r}")
                row["highs"] = self._highs_for_input(record["scenario"])
            else:
                code, out = workloads.call_cli(cli_main, ["verify", record["report"]])
                if code != 0 or out.strip() != "ok":
                    problems.append(f"verify exit {code}: {out.strip()!r}")
                row["highs"] = self._highs_for_optimum(record["scenario"], report)
            if abs(row["f_thr"] - row["highs"]) > HIGHS_TOL:
                problems.append(f"f_thr {row['f_thr']!r} vs HiGHS {row['highs']!r}")
        row["problems"] = problems
        row["ok"] = not problems
        return row
