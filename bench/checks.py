"""Correctness checks and oracle errors for one run's outputs.

An operation is one CSV row (rate_sweep) or one windowed point. It fails if
its row has valid=0, if its library call raised, or if its output fails a
check. A failed check is also a wrong output, except where the program only
says that it cannot resolve the value: a valid=0 row, a raised call, or
(for seeds other than 0) an error_estimate that is not smaller than the
value. Those count as failed, not as wrong.

At seed 0 each output is compared with the value recorded from the seed
code in references.json: it is wrong if it is further from the reference
than the sum of the two error bars. Closed-form rows have no error bar and
are compared to 1e-9 (the CSV keeps 12 digits). A KMS ratio takes its bar
from the two rate rows it divides, at +omega and -omega. Other seeds have no
reference; there an output must be finite with an error_estimate smaller
than |value|. For compute_wightman_integrals, whose single error_estimate
bounds every entry, the check compares it with the largest entry.

Oracle points (single-branch rates and windowed probabilities, see
oracles.py) are not checks: they give max_rel_err_oracle and
err_bar_coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import oracles

# closed-form rows have no error bar; the CSV keeps 12 significant digits
_CLOSED_RTOL = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    oracle: list = field(default_factory=list)  # (relative error, within bar)

    def op(self, ok: bool = True, wrong: str | None = None):
        self.attempted += 1
        if wrong is not None:
            self.wrong.append(wrong)
            ok = False
        if not ok:
            self.failed += 1

    def add_oracle(self, value: float, error: float, exact: float):
        self.oracle.append((abs(value - exact) / abs(exact), abs(value - exact) <= error))


def parse_csv(text: str) -> list:
    return [[float(v) for v in line.split(",")]
            for line in text.splitlines() if line and not line.startswith("#")]


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _near(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _grid_key(w: float, tau: float) -> tuple:
    return round(w, 9), round(tau, 9)


def _rate_bar(rates: dict, w: float, tau: float) -> float:
    """Relative error bar of rate(w)/rate(-w) at tau, from rate_map rows
    indexed by _grid_key."""
    bar = 0.0
    for target in (w, -w):
        row = rates.get(_grid_key(target, tau))
        if row is None or row[4] == 0 or row[2] == 0:
            return math.inf
        bar += row[3] / abs(row[2])
    return bar


def check_rate_sweep(spec: dict, outputs: list, refs: list | None, tally: Tally):
    expected = {"cli_parallel_kl1": ("kms.csv", "prob.csv", "rate.csv"),
                "cli_single": ("rate.csv",)}
    grid_rows = 400
    for k, (op, out) in enumerate(zip(spec["ops"], outputs)):
        files = out["files"]
        for fname in expected[op["name"]]:
            if out["exit"] != 0 or fname not in files:
                for _ in range(grid_rows):
                    tally.op(wrong=f"{op['name']}/{fname}: not written")
                continue
            rows = parse_csv(files[fname])
            ref_rows = parse_csv(refs[k]["files"][fname]) if refs else None
            where = f"{op['name']}/{fname}"
            if len(rows) != grid_rows or (ref_rows and len(ref_rows) != grid_rows):
                tally.wrong.append(f"{where}: {len(rows)} rows, expected {grid_rows}")
                ref_rows = None
            if fname == "rate.csv":
                _check_rates(rows, ref_rows, op.get("planck_kappa"), where, tally)
            elif fname == "kms.csv":
                rates = {_grid_key(r[0], r[1]): r
                         for r in parse_csv(files.get("rate.csv", ""))}
                ref_rates = {_grid_key(r[0], r[1]): r
                             for r in parse_csv(refs[k]["files"]["rate.csv"])} if refs else None
                _check_kms(rows, ref_rows, rates, ref_rates, where, tally)
            else:
                _check_closed(rows, ref_rows, where, tally)


def _check_rates(rows, ref_rows, planck_kappa, where, tally):
    for n, (w, tau, rate, err, valid) in enumerate(rows):
        at = f"{where} omega/kappa={w:.4g} kappa tau={tau:.4g}"
        if valid == 0:
            tally.op(ok=False)
            continue
        if not _finite(rate, err):
            tally.op(wrong=f"{at}: non-finite value in a valid row")
            continue
        if ref_rows is not None:
            rw, rt, rrate, rerr, _ = ref_rows[n]
            if not (_near(w, rw) and _near(tau, rt)):
                tally.op(wrong=f"{at}: grid differs from the reference")
            elif abs(rate - rrate) > err + rerr:
                tally.op(wrong=f"{at}: {rate:.6g} vs reference {rrate:.6g} (+- {err + rerr:.2g})")
            else:
                tally.op()
        else:
            tally.op(ok=err < abs(rate))
        if planck_kappa is not None:
            tally.add_oracle(rate, err, oracles.planck_rate(planck_kappa, w * planck_kappa))


def _check_kms(rows, ref_rows, rates, ref_rates, where, tally):
    for n, (w, tau, ratio, expected, deviation, _, valid) in enumerate(rows):
        at = f"{where} omega/kappa={w:.4g} kappa tau={tau:.4g}"
        if valid == 0:
            tally.op(ok=False)
            continue
        if not _finite(ratio, expected, deviation):
            tally.op(wrong=f"{at}: non-finite value in a valid row")
            continue
        if not (_near(expected, math.exp(-2.0 * math.pi * w), 1e-9)
                and _near(deviation, abs(ratio / expected - 1.0), 1e-9)):
            tally.op(wrong=f"{at}: expected or deviation column inconsistent")
            continue
        if ref_rows is None:
            tally.op()
            continue
        ref = ref_rows[n]
        if ref[6] == 0:
            tally.op()  # the reference row was unresolved; nothing to compare
            continue
        bar = (abs(ratio) * _rate_bar(rates, w, tau)
               + abs(ref[2]) * _rate_bar(ref_rates, ref[0], ref[1]))
        if abs(ratio - ref[2]) > bar:
            tally.op(wrong=f"{at}: ratio {ratio:.6g} vs reference {ref[2]:.6g} (+- {bar:.2g})")
        else:
            tally.op()


def _check_closed(rows, ref_rows, where, tally):
    for n, (a, b, p, valid) in enumerate(rows):
        at = f"{where} L/sigma={a:.4g} beta={b:.4g}"
        if valid == 0:
            tally.op(ok=False)
        elif not (_finite(p) and p > 0):
            tally.op(wrong=f"{at}: probability {p!r} not positive and finite")
        elif ref_rows is not None and not _near(p, ref_rows[n][2], _CLOSED_RTOL):
            tally.op(wrong=f"{at}: {p:.12g} vs reference {ref_rows[n][2]:.12g}")
        else:
            tally.op()


def check_points(spec: dict, outputs: list, refs: list | None, tally: Tally):
    sigma, omega = spec["sigma"], spec["omega"]
    for k, (op, out) in enumerate(zip(spec["ops"], outputs)):
        name = op["name"]
        if "raised" in out:
            tally.op(ok=False)
            continue
        ref = refs[k] if refs else None
        exact = [oracles.single_branch_probability(kappa, sigma, omega)
                 for kappa in op.get("oracle_kappas", ())]
        if op["kind"] == "probability":
            _check_probability(name, out, ref, tally)
            for e in exact:
                tally.add_oracle(out["value"], out["error"], e)
        else:
            _check_integrals(name, out, ref, tally)
            for branch, e in enumerate(exact, start=1):
                tally.add_oracle(out["full_grid"][f"{branch},{branch}"][0], out["error"], e)


def _check_probability(name, out, ref, tally):
    value, err = out["value"], out["error"]
    if not _finite(value, err):
        tally.op(wrong=f"{name}: non-finite result")
    elif ref is not None:
        if abs(value - ref["value"]) > err + ref["error"]:
            tally.op(wrong=f"{name}: {value:.6g} vs reference {ref['value']:.6g} "
                           f"(+- {err + ref['error']:.2g})")
        else:
            tally.op()
    else:
        tally.op(ok=err < abs(value))


def _check_integrals(name, out, ref, tally):
    err = out["error"]
    entries = list(out["full_grid"].values()) + list(out["time_ordered"].values())
    flat = [x for z in entries for x in z] + [err, out["p_excited_conditional"]]
    grid = out["full_grid"]
    if not _finite(*flat):
        tally.op(wrong=f"{name}: non-finite result")
        return
    i12, i21 = grid["1,2"], grid["2,1"]
    if abs(complex(*i12) - complex(*i21).conjugate()) > err:
        tally.op(wrong=f"{name}: full grid is not hermitian within its error bar")
        return
    if ref is None:
        tally.op(ok=err < max(abs(complex(*z)) for z in entries))
        return
    bar = err + ref["error"]
    for key, z in grid.items():
        if abs(complex(*z) - complex(*ref["full_grid"][key])) > bar:
            tally.op(wrong=f"{name}: I_{key} {z} vs reference {ref['full_grid'][key]}")
            return
    # at unit coupling the conditional excitation moves by at most the bar
    if abs(out["p_excited_conditional"] - ref["p_excited_conditional"]) > bar:
        tally.op(wrong=f"{name}: equal-phase conditional excitation "
                       f"{out['p_excited_conditional']:.6g} vs reference "
                       f"{ref['p_excited_conditional']:.6g}")
        return
    tally.op()


def check(spec: dict, outputs: list, refs: list | None) -> Tally:
    tally = Tally()
    if spec["workload"].startswith("rate_sweep"):
        check_rate_sweep(spec, outputs, refs, tally)
    else:
        check_points(spec, outputs, refs, tally)
    return tally
