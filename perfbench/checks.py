"""Output checks that do not rely on the code under test.

Every operation must exit with status 0 and pass all of its
``invariant_checks``. On top of that:

* exact feasibility verdicts are recomputed here from Fine's facets
  (pairwise positivity plus the 8 CHSH facets), and a feasible witness must
  be a distribution that reproduces the inputs within 1e-8;
* tolerance-band verdicts: a feasible witness must satisfy the bands, and an
  infeasible verdict is checked against an independent float LP
  (``scipy.optimize.linprog``); points within 1e-9 of a band edge are
  counted and skipped;
* analytic laws, CHSH values and free-will measures are compared with their
  closed forms;
* transcripts must carry the fixed header, one row per trial, and empty
  sigma/tau cells exactly where the detector did not fire.

Seeded Monte Carlo output bytes are deliberately not pinned: sampler changes
are allowed to move the streams.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

WITNESS_TOL = 1e-8
EDGE_TOL = 1e-9
VALUE_TOL = 1e-8

# Written out rather than imported, so a changed writer cannot pass by
# changing the constant it is compared with.
CSV_HEADER = "trial_index,model,c,d,u_dot_a,u_dot_b,sigma,tau,detA,detB,bitsAB,bitsBA"

# Outcome quadruples (sigma, tau, sigma2, tau2) and the report key of each.
QUADS = tuple(itertools.product((1, -1), repeat=4))
QUAD_KEYS = tuple(f"q({s:+d},{t:+d},{s2:+d},{t2:+d})" for s, t, s2, t2 in QUADS)

# Correlator order C(a,b), C(a2,b), C(a,b2), C(a2,b2); marginal order
# m_a, m_a2, m_b, m_b2; pair i uses marginals PAIRS[i].
PAIRS = ((0, 2), (1, 2), (0, 3), (1, 3))
PAIR_NAMES = ("ab", "a2b", "ab2", "a2b2")


class Stats:
    """Counts the checker keeps besides failures."""

    def __init__(self):
        self.band_edge_skipped = 0
        self.band_lp_checked = 0


def base_failures(rc, report) -> list:
    fails = []
    if rc != 0:
        fails.append(f"exit status {rc}")
    if report is not None:
        for check in report.get("invariant_checks", []):
            if not check.get("passed"):
                fails.append(f"invariant {check.get('name')} failed: {check.get('detail')}")
    return fails


# ---------------------------------------------------------------------------
# Master-probability geometry


def atom_moments(q):
    """Correlators and marginals induced by 16 atom weights."""
    corr = [0, 0, 0, 0]
    marg = [0, 0, 0, 0]
    for (s, t, s2, t2), w in zip(QUADS, q):
        corr[0] += s * t * w
        corr[1] += s2 * t * w
        corr[2] += s * t2 * w
        corr[3] += s2 * t2 * w
        marg[0] += s * w
        marg[1] += s2 * w
        marg[2] += t * w
        marg[3] += t2 * w
    return corr, marg


def facet_values(C, M) -> dict:
    """Every facet of the local polytope as name -> slack (>= 0 inside)."""
    out = {}
    for i, (ia, ib) in enumerate(PAIRS):
        for s in (1, -1):
            for t in (1, -1):
                out[f"pair[{PAIR_NAMES[i]}]({s:+d},{t:+d})"] = (
                    1 + s * M[ia] + t * M[ib] + s * t * C[i])
    for signs in itertools.product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            name = "CHSH[" + "".join("+" if x > 0 else "-" for x in signs) + "]"
            out[name] = 2 - sum(x * c for x, c in zip(signs, C))
    return out


def _witness_failures(witness, C, M, tol) -> list:
    if witness is None:
        return ["feasible verdict without a witness"]
    q = [witness[key] for key in QUAD_KEYS]
    fails = []
    if min(q) < 0:
        fails.append("witness has a negative weight")
    if abs(sum(q) - 1.0) > WITNESS_TOL:
        fails.append(f"witness sums to {sum(q)!r}")
    corr, marg = atom_moments(q)
    for i in range(4):
        if abs(corr[i] - float(C[i])) > float(tol[i]) + WITNESS_TOL:
            fails.append(f"witness correlator {i} is {corr[i]!r}, want {float(C[i])!r}")
        if abs(marg[i] - float(M[i])) > WITNESS_TOL:
            fails.append(f"witness marginal {i} is {marg[i]!r}, want {float(M[i])!r}")
    return fails


def band_margin(C, tol) -> float:
    """Smallest s such that some distribution with zero marginals has every
    correlator within tol + s of C, by a float LP independent of lhvlab."""
    from scipy.optimize import linprog

    n = len(QUADS)
    rows_c = [[s * t, s2 * t, s * t2, s2 * t2] for s, t, s2, t2 in QUADS]
    rows_m = [[s, s2, t, t2] for s, t, s2, t2 in QUADS]
    A_ub, b_ub = [], []
    for i in range(4):
        row = [rows_c[k][i] for k in range(n)]
        A_ub.append(row + [-1.0])
        b_ub.append(float(C[i]) + float(tol[i]))
        A_ub.append([-x for x in row] + [-1.0])
        b_ub.append(float(tol[i]) - float(C[i]))
    A_eq = [[1.0] * n + [0.0]] + [[rows_m[k][i] for k in range(n)] + [0.0] for i in range(4)]
    b_eq = [1.0, 0.0, 0.0, 0.0, 0.0]
    res = linprog([0.0] * n + [1.0], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"float LP did not solve: {res.message}")
    return float(res.fun)


def check_feasibility(op, report, stats: Stats) -> list:
    res = report["results"]
    C = [Fraction(x) for x in op.params["correlators"]]
    M = [Fraction(x) for x in op.params["marginals"]]
    if op.params["tol"] is None:
        slack = facet_values(C, M)
        want = min(slack.values()) >= 0
        if res["feasible"] != want:
            return [f"verdict {res['feasible']}, facets say {want}"]
        if want:
            return _witness_failures(res["witness"], C, M, [0] * 4)
        name = res.get("facet_violated")
        if name not in slack or slack[name] >= 0:
            return [f"reported facet {name!r} is not violated"]
        return []
    tol = [Fraction(x) for x in op.params["tol"]]
    if res["feasible"]:
        return _witness_failures(res["witness"], C, M, tol)
    margin = band_margin(C, tol)
    stats.band_lp_checked += 1
    if abs(margin) <= EDGE_TOL:
        stats.band_edge_skipped += 1
        return []
    if margin < 0:
        return [f"band verdict infeasible, float LP finds slack {-margin!r}"]
    return []


def check_from_model(op, report, stats) -> list:
    # Correlators of one frozen sample are those of its empirical
    # distribution, so they always admit a master probability.
    return [] if report["results"]["feasible"] else ["frozen-sample correlators judged infeasible"]


# ---------------------------------------------------------------------------
# Closed forms


def _planar_dot(x_deg: float, y_deg: float) -> float:
    x, y = math.radians(x_deg), math.radians(y_deg)
    return math.cos(x) * math.cos(y) + math.sin(x) * math.sin(y)


def model_correlators(model: str, t: float, p) -> list:
    """E[sigma*tau] of the analytic law at overlap t = a.b. The mixture's
    sign is ambiguous at t = 0 within roundoff, so both values are
    returned there."""
    if model in ("singlet", "pinned", "hall", "tb", "tb-freewill"):
        return [-t]
    if model == "uniform":
        return [0.0]
    if model == "tb-ext1":
        return [-(2 * p - 1) * t]
    if model == "tb-ext2":
        return [-p * t]
    if model == "mixed":
        if abs(t) < 1e-12:
            return [-1.0, 1.0]
        return [-1.0 if t >= 0 else 1.0]
    raise KeyError(model)


def _law_failures(law: dict, corr: float) -> list:
    fails = []
    for s in (1, -1):
        for t in (1, -1):
            want = (1 + s * t * corr) / 4
            got = law[f"p({s:+d},{t:+d})"]
            if abs(got - want) > VALUE_TOL:
                fails.append(f"p({s:+d},{t:+d}) = {got!r}, closed form {want!r}")
    return fails


def check_law(op, report, stats, key="law") -> list:
    prm = op.params
    options = model_correlators(prm["model"], _planar_dot(prm["a"], prm["b"]), prm.get("p"))
    attempts = [_law_failures(report["results"][key], c) for c in options]
    return min(attempts, key=len)


def check_simulate(op, report, stats) -> list:
    return check_law(op, report, stats, key="analytic_law")


def check_chsh(op, report, stats) -> list:
    prm = op.params
    values = []
    for x, y in (("a", "b"), ("a2", "b"), ("a", "b2"), ("a2", "b2")):
        values.append(model_correlators(prm["model"], _planar_dot(prm[x], prm[y]), prm.get("p")))
    candidates = [abs(c1 + c2 + c3 - c4) for c1, c2, c3, c4 in itertools.product(*values)]
    got = report["results"]["E"]
    if min(abs(got - e) for e in candidates) > VALUE_TOL:
        return [f"E = {got!r}, closed form {candidates[0]!r}"]
    return []


def check_freewill(op, report, stats) -> list:
    n = op.params["n"]
    i_max = 2 * math.log2(n)
    want = {"pinned": (2.0, i_max / 2), "independent": (0.0, 0.0),
            "dictated": (2.0, i_max)}[op.params["model"]]
    res = report["results"]
    got = (res["M"], res["I_bits"])
    if any(abs(g - w) > 1e-9 for g, w in zip(got, want)) or abs(res["I_max_bits"] - i_max) > 1e-9:
        return [f"(M, I, I_max) = {got + (res['I_max_bits'],)}, want {want + (i_max,)}"]
    return []


def check_mp16(op, report, stats) -> list:
    """Each draw must be a distribution whose CHSH value, recomputed here in
    floats from the atom weights, matches the exact one and obeys Boole's
    bound of 2."""
    fails = []
    for value, atoms in zip(report["chsh"], report["atoms"]):
        exact = Fraction(value)
        q = [atoms[key] for key in QUAD_KEYS]
        corr, _ = atom_moments(q)
        recomputed = abs(corr[0] + corr[1] + corr[2] - corr[3])
        if min(q) < 0 or abs(sum(q) - 1) > 1e-9:
            fails.append("draw is not a distribution")
        if abs(recomputed - float(exact)) > 1e-9:
            fails.append(f"chsh_value {value} but atoms give {recomputed!r}")
        if exact > 2:
            fails.append(f"chsh_value {value} exceeds Boole's bound")
    if len(report["chsh"]) != op.params["count"]:
        fails.append("batch size differs")
    return fails


# ---------------------------------------------------------------------------
# Transcripts


def check_transcript(path, rows: int):
    """Stream the CSV once; return (failures, sha256 of its bytes)."""
    digest = hashlib.sha256()
    fails = []
    count = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        if header.decode().rstrip("\n") != CSV_HEADER:
            fails.append(f"header {header[:80]!r}")
        for raw in fh:
            digest.update(raw)
            index = count
            count += 1
            if len(fails) > 5:
                continue
            f = raw.decode().rstrip("\n").split(",")
            if len(f) != 12 or f[0] != str(index):
                fails.append(f"row {index} malformed: {raw[:80]!r}")
                continue
            for cell, det in ((f[6], f[8]), (f[7], f[9])):
                if det not in ("0", "1") or (cell == "") != (det == "0"):
                    fails.append(f"row {index}: outcome {cell!r} with detector {det!r}")
                elif cell and cell not in ("1", "-1"):
                    fails.append(f"row {index}: outcome {cell!r}")
    if count != rows:
        fails.append(f"{count} rows for {rows} trials")
    return fails, digest.hexdigest()


KIND_CHECKS = {
    "feasibility/exact": check_feasibility,
    "feasibility/marginals": check_feasibility,
    "feasibility/band": check_feasibility,
    "law/analytic": check_law,
    "chsh/analytic": check_chsh,
    "freewill/pinned": check_freewill,
    "freewill/independent": check_freewill,
    "freewill/dictated": check_freewill,
    "mp16/boole": check_mp16,
    "feasibility/from-pinned": check_from_model,
    "feasibility/from-hall": check_from_model,
    "feasibility/from-tb-freewill": check_from_model,
}
for _model in ("pinned", "hall", "tb", "tb-freewill", "mixed", "tb-ext1", "tb-ext2"):
    KIND_CHECKS[f"simulate/{_model}"] = check_simulate


def check_op(op, rc, report, stats: Stats) -> list:
    """All failures of one operation's report (transcripts are separate)."""
    fails = base_failures(rc, report)
    if report is None:
        return fails or ["no report"]
    extra = KIND_CHECKS.get(op.kind)
    if extra is not None:
        try:
            fails += extra(op, report, stats)
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(f"report unreadable by the checker: {exc!r}")
    return fails
