"""Spans and counters around udwsim's layers, installed from outside.

Tracer.install() reassigns module attributes (udwsim.response.panel_integrate,
udwsim.cli.transition_rate, ...) to wrappers, at the names through which the
package looks them up; uninstall() puts the originals back. Nothing under
src/ changes. Each wrapper records a span (name, start, end, parent span,
operation id) in memory and bumps counters; layer_metrics() derives self
times (a span's duration minus the durations of its direct children) and
ratios, and save() writes the spans out.

The wrappers must not change any value the package computes: traced and
untraced runs are compared bit for bit.
"""

from __future__ import annotations

import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import udwsim.cli
import udwsim.config
import udwsim.response
import udwsim.superposition

# windowed points whose panel_integrate calls are reported one by one
POINTS = ("single_ks005", "single_ks001", "thermal_kl1", "parallel_kl1", "differing_r05")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_names: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs on return."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def operation(self, name: str, fn, *args):
        """Run one benchmark operation under its own id and top-level span."""
        self.op_names.append(name)
        self._op = len(self.op_names) - 1
        try:
            return self.spanned("op", fn)(*args)
        finally:
            self._op = -1

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr: str, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        c = self.counts
        resp, cli, sup = udwsim.response, udwsim.cli, udwsim.superposition

        def count(key):
            def after(args, kwargs, result):
                c[key] += 1
            return after

        panel_nid = self._name_id("quadrature.panel")

        def correlator_after(args, kwargs, result):
            n = int(np.size(result))
            c["correlators.calls"] += 1
            c["correlators.evals"] += n
            c[("correlators.evals", self._op)] += n
            if self._stack and self.name[self._stack[-1]] == panel_nid:
                c["quadrature.panel_evals"] += n

        orig_corr = resp.scenario_correlator

        def scenario_correlator(scenario, i, j):
            return self.spanned("correlators.eval", orig_corr(scenario, i, j),
                                correlator_after)

        orig_factors = resp.denominator_factors

        def counted_factor(g):
            def factor(*args):
                c["correlators.factor_evals"] += 1
                return g(*args)
            return factor

        def denominator_factors(scenario, i, j):
            return [counted_factor(g) for g in orig_factors(scenario, i, j)]

        self._patch(resp, "scenario_correlator", scenario_correlator)
        self._patch(resp, "denominator_factors", denominator_factors)

        def panel_after(args, kwargs, result):
            c["quadrature.panel_calls"] += 1
            c["quadrature.panels"] += len(args[1]) - 1

        def roots_after(args, kwargs, result):
            c["quadrature.root_scans"] += 1
            c["quadrature.roots_found"] += len(result)
            c["quadrature.root_hits"] += bool(result)

        def mesh_after(args, kwargs, result):
            c["quadrature.mesh_calls"] += 1
            c["quadrature.mesh_edges"] += len(result)

        def refine_after(args, kwargs, result):
            c["quadrature.refine_rounds"] += kwargs.get(
                "rounds", args[1] if len(args) > 1 else 1)

        self._patch(resp, "panel_integrate",
                    self.spanned("quadrature.panel", resp.panel_integrate, panel_after))
        self._patch(resp, "sign_change_roots",
                    self.spanned("quadrature.roots", resp.sign_change_roots, roots_after))
        self._patch(resp, "cluster_mesh",
                    self.spanned("quadrature.mesh", resp.cluster_mesh, mesh_after))
        self._patch(resp, "refine_mesh",
                    self.spanned("quadrature.refine", resp.refine_mesh, refine_after))

        orig_extrap = resp.epsilon_extrapolate

        def epsilon_extrapolate(*args, **kwargs):
            # record the ladder warnings, then hand them on unchanged
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = orig_extrap(*args, **kwargs)
            c["quadrature.extrapolations"] += 1
            for w in caught:
                if "monotonically" in str(w.message):
                    c["quadrature.nonmonotone_warnings"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        self._patch(resp, "epsilon_extrapolate", epsilon_extrapolate)
        self._patch(sup, "epsilon_extrapolate", epsilon_extrapolate)

        def pair_after(args, kwargs, result):
            c["response.pair_integrals"] += 1
            if kwargs.get("level", 0) > 0:
                c["response.pair_restarts"] += 1
                c["quadrature.refine_rounds"] += 1

        rate = self.spanned("response.rate", cli.transition_rate,
                            count("response.rate_points"))
        prob = self.spanned("response.prob", resp.excitation_probability_quadrature,
                            count("response.prob_points"))
        self._patch(cli, "transition_rate", rate)
        self._patch(resp, "excitation_probability_quadrature", prob)
        self._patch(resp, "_halfplane_pair_integral",
                    self.spanned("response.pair", resp._halfplane_pair_integral, pair_after))
        rung = count("response.eps_rungs")
        self._patch(resp, "_rate_at_eps",
                    self.spanned("response.rate_rung", resp._rate_at_eps, rung))
        halfplane = self.spanned("response.prob_rung", resp.halfplane_integrals_at_eps, rung)
        self._patch(resp, "halfplane_integrals_at_eps", halfplane)
        self._patch(sup, "halfplane_integrals_at_eps", halfplane)

        self._patch(sup, "compute_wightman_integrals",
                    self.spanned("superposition.integrals", sup.compute_wightman_integrals,
                                 count("superposition.integral_sets")))
        self._patch(sup, "visibility_scan",
                    self.spanned("superposition.assemble", sup.visibility_scan))
        self._patch(sup, "conditional_density_matrix",
                    self.spanned("superposition.assemble", sup.conditional_density_matrix))

        closed = count("closed_form.calls")
        for attr in ("p_parallel", "p_antiparallel"):
            self._patch(cli, attr, self.spanned("closed_form.call", getattr(cli, attr), closed))

        validate = self.spanned("config.validate", udwsim.config.validate_config,
                                count("config.validations"))
        self._patch(cli, "validate_config", validate)
        self._patch(udwsim.config, "validate_config", validate)

        def write_after(args, kwargs, result):
            path, rows = Path(args[0]), args[2]
            c["cli.rows"] += len(rows)
            c["cli.invalid_rows"] += sum(1 for row in rows if row[-1] == 0)
            c["cli.bytes_written"] += path.stat().st_size
            if args[3]:
                c["cli.bytes_written"] += path.with_suffix(".json").stat().st_size

        self._patch(cli, "main", self.spanned("cli.main", cli.main))
        self._patch(cli, "_eval_point", self.spanned("cli.point", cli._eval_point))
        self._patch(cli, "_write_output",
                    self.spanned("cli.write", cli._write_output, write_after))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64), np.array(self.name, dtype=np.int64),
                np.array(self.op, dtype=np.int64))

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        start, end, parent, _, _ = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def layer_metrics(self, untraced_wall: float, traced_wall: float):
        """(metrics, table): the per-layer metrics that every workload
        reports, and a longer table that adds the timers of layers only some
        workloads use (they read 0 elsewhere)."""
        start, end, parent, name, op = self._arrays()
        self_t = self.self_times()
        nid = {n: i for i, n in enumerate(self.names)}

        def self_of(*names):
            ids = [nid[n] for n in names if n in nid]
            return float(self_t[np.isin(name, ids)].sum()) if ids else 0.0

        c = self.counts
        evals = c["correlators.evals"]
        panels = c["quadrature.panels"]
        scans = c["quadrature.root_scans"]
        pairs = c["response.pair_integrals"]
        results = (c["response.rate_points"] + c["response.prob_points"]
                   + c["superposition.integral_sets"])
        corr_self = self_of("correlators.eval")

        m = {
            "correlators.evals": evals,
            "correlators.calls": c["correlators.calls"],
            "correlators.factor_evals": c["correlators.factor_evals"],
            "correlators.self_s": corr_self,
            "correlators.ns_per_eval": 1e9 * corr_self / evals if evals else 0.0,
            "quadrature.panel_calls": c["quadrature.panel_calls"],
            "quadrature.panels": panels,
            "quadrature.panel_self_s": self_of("quadrature.panel"),
            # integrand nodes per panel: both rules of the paired estimate
            "quadrature.evals_per_panel": c["quadrature.panel_evals"] / panels if panels else 0.0,
            "quadrature.root_scans": scans,
            "quadrature.roots_found": c["quadrature.roots_found"],
            "quadrature.root_scan_hit_ratio": c["quadrature.root_hits"] / scans if scans else 0.0,
            "quadrature.root_self_s": self_of("quadrature.roots"),
            "quadrature.mesh_calls": c["quadrature.mesh_calls"],
            "quadrature.mesh_edges": c["quadrature.mesh_edges"],
            "quadrature.mesh_self_s": self_of("quadrature.mesh"),
            "quadrature.refine_rounds": c["quadrature.refine_rounds"],
            "quadrature.extrapolations": c["quadrature.extrapolations"],
            "quadrature.nonmonotone_warnings": c["quadrature.nonmonotone_warnings"],
            "response.rate_points": c["response.rate_points"],
            "response.prob_points": c["response.prob_points"],
            "response.pair_integrals": pairs,
            "response.pair_accept_ratio": (pairs - c["response.pair_restarts"]) / pairs if pairs else 0.0,
            "response.eps_rungs_per_result": c["response.eps_rungs"] / results if results else 0.0,
            "response.self_s": self_of("response.rate", "response.rate_rung", "response.prob",
                                       "response.prob_rung", "response.pair"),
            "superposition.integral_sets": c["superposition.integral_sets"],
            "closed_form.calls": c["closed_form.calls"],
            "config.validations": c["config.validations"],
            "config.validate_s": self_of("config.validate"),
            "cli.rows": c["cli.rows"],
            "cli.invalid_rows": c["cli.invalid_rows"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.spans": len(start),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        panel_id = nid.get("quadrature.panel", -1)
        for point in POINTS:
            k = self.op_names.index(point) if point in self.op_names else -1
            m[f"quadrature.panel_calls.{point}"] = (
                int(np.count_nonzero((op == k) & (name == panel_id))) if k >= 0 else 0)
            m[f"correlators.evals.{point}"] = c[("correlators.evals", k)] if k >= 0 else 0

        table = dict(m)
        table.update({
            "response.rate_self_s": self_of("response.rate", "response.rate_rung"),
            "superposition.integrals_s": self_of("superposition.integrals"),
            "superposition.assemble_s": self_of("superposition.assemble"),
            "closed_form.self_s": self_of("closed_form.call"),
            "cli.self_s": self_of("cli.main", "cli.point"),
            "cli.write_s": self_of("cli.write"),
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
        })
        top = np.flatnonzero(parent == -1)
        for k, point in enumerate(self.op_names):
            spans = top[(op[top] == k) & (name[top] == nid["op"])]
            table[f"response.point_s.{point}"] = float((end[spans] - start[spans]).sum())
        return m, table

    def save(self, path: Path):
        start, end, parent, name, op = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, start=start, end=end, parent=parent, name=name, op=op,
                            names=np.array(self.names), op_names=np.array(self.op_names))
