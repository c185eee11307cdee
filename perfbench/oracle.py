"""Output oracle: checks each job's output against values the benchmark
derives itself from the job's generated input.

The references are independent of `entdist`: closed forms recomputed from
their formulas, the p.p.t. class from the eigenvalues of the Choi matrix
partially transposed on B_in (x) B_out, the entanglement of formation at
K = 2 from Wootters's formula, rates in exact fractions, and the compiler's
failure probability from a first-failure sum over a sequential binomial
decomposition, which never forms 1 - x.  Bytes are never compared
with an earlier commit's output, so a fix that changes printed digits
within the stated tolerances still passes.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Callable

import numpy as np

from workloads import Job

TOL_CLOSED = 1e-12  # closed form printed by the CLI vs the benchmark's own
TOL_SIM = 1e-9  # simulated fidelity vs closed form
TOL_BOUND = 1e-12  # simulated fidelity vs the guaranteed bound
TOL_TWIRL_MC = 1e-2  # Monte Carlo twirl deviation at 10^4 samples
TOL_REL = 1e-12  # relative, for rates and compiler rates
TOL_FAILURE = 1e-9  # compiler failure probability vs the exact reference
TOL_EF_LOWER = 1e-6  # the verify suite's tolerances on the EF estimate
TOL_EF_UPPER = 1e-4
TOL_OP = 1e-9  # completeness sum vs identity; Choi eigenvalue floor
MASS_FLOOR = 1e-20  # DP states lighter than this are dropped
TAIL_SIGMAS = 10.0  # binomial window half-width, in standard deviations
STATE_BLOCK = 64


def _close(a: Any, b: float, rel: float = TOL_REL) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _subspace_fidelity(k: int, kp: int, f: float) -> float:
    tail = (k - kp) * ((1 - f) * kp * (kp + k) + k * k - 1) / (kp * kp * k * (k * k - 1))
    return (kp / k) * f + tail


def _factor_fidelity(k: int, kp: int, f: float) -> float:
    return f + (1 - f) * (k * k - kp * kp) / ((k * k - 1) * kp * kp)


def _simulate_reference(protocol: str, k: int, kp: int, f: float) -> tuple[float, float]:
    """(closed-form output fidelity, guaranteed lower bound) on isotropic input."""
    if protocol == "1":
        return _subspace_fidelity(k, kp, f), (kp / k) * f
    if protocol == "2":
        return _factor_fidelity(k, kp, f), f
    mid_dim = kp * (k // kp)
    mid = _subspace_fidelity(k, mid_dim, f)
    closed = mid if mid_dim == kp else _factor_fidelity(mid_dim, kp, mid)
    return closed, (kp / k) * (k // kp) * f


def check_simulate(spec: dict, out: str) -> list[str]:
    rows = json.loads(out)
    if len(rows) != len(spec["grid"]):
        return [f"{len(rows)} rows for {len(spec['grid'])} grid points"]
    problems = []
    for row, f in zip(rows, spec["grid"]):
        where = f"F={f}"
        k, kp, f_in = row["K"], row["Kprime"], row["F_in"]
        if (k, kp) != (spec["K"], spec["Kprime"]) or abs(f_in - f) > TOL_CLOSED:
            problems.append(f"{where}: row is for K={k} Kprime={kp} F={f_in}")
            continue
        closed, sim, bound = row["F_closed_form"], row["F_simulated"], row["bound"]
        if spec["protocol"] == "twirl":
            # the twirled state is drawn inside the CLI; its fidelity is the closed form
            if not 0 <= closed <= 1 or abs(sim - closed) > TOL_CLOSED:
                problems.append(f"{where}: twirl fidelity {sim} vs {closed}")
            if bound is None or not 0 < bound <= TOL_TWIRL_MC:
                problems.append(f"{where}: Monte Carlo deviation {bound}")
        else:
            ref, ref_bound = _simulate_reference(spec["protocol"], spec["K"], spec["Kprime"], f)
            if abs(closed - ref) > TOL_CLOSED:
                problems.append(f"{where}: closed form {closed} vs reference {ref}")
            if abs(sim - ref) > TOL_SIM:
                problems.append(f"{where}: simulated {sim} vs reference {ref}")
            if bound is None or abs(bound - ref_bound) > TOL_CLOSED or sim < ref_bound - TOL_BOUND:
                problems.append(f"{where}: bound {bound} vs reference {ref_bound}, simulated {sim}")
        if row["pass"] is not True:
            problems.append(f"{where}: pass={row['pass']}")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:\s]+):", re.M)
_TOTAL_LINE = re.compile(r"^TOTAL: (\d+) suites, (\d+) passed, (\d+) failed", re.M)


def check_verify(spec: dict, out: str) -> list[str]:
    status = dict((name, word) for word, name in _SUITE_LINE.findall(out))
    problems = [
        f"suite {s}: {status.get(s, 'missing')}" for s in spec["suites"] if status.get(s) != "PASS"
    ]
    total = _TOTAL_LINE.search(out)
    n = len(spec["suites"])
    if total is None or total.groups() != (str(n), str(n), "0"):
        problems.append(f"total line {total.group(0) if total else 'missing'}")
    return problems


# ---------------------------------------------------------------------------
# ef: one call of the entanglement-of-formation oracle on a K = 2 isotropic state
# ---------------------------------------------------------------------------


def ef_reference(spec: dict) -> tuple[float, float]:
    """The range an upper estimate of E_f must fall in: never below the exact
    value (Wootters's formula; an isotropic state at K = 2 is a Werner state
    with concurrence max(0, 2F - 1)), and within the verify suite's own
    tolerance of the isotropic upper bound."""
    k, f = spec["K"], spec["F"]
    if k != 2:
        raise ValueError(f"the EF reference is for K = 2, got K={k}")
    c = max(0.0, 2 * f - 1)
    exact = _binary_entropy((1 + math.sqrt(1 - c * c)) / 2)
    lower, upper = _formation_bounds(k, f)
    return max(lower, exact) - TOL_EF_LOWER, upper + TOL_EF_UPPER


def check_ef(expect: tuple[float, float], out: str) -> list[str]:
    est = float(out)
    lo, hi = expect
    return [] if lo <= est <= hi else [f"estimate {est!r} outside [{lo!r}, {hi!r}]"]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _matrix(doc: list) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _choi(kraus: list[np.ndarray]) -> np.ndarray:
    """sum_ab |a><b| (x) S(|a><b|), input index major."""
    vecs = np.stack([k.T.reshape(-1) for k in kraus])
    return vecs.T @ vecs.conj()


def _ppt_min_eigenvalue(in_dims: list[int], out_dims: list[int], kraus: list[np.ndarray]) -> float:
    """Smallest eigenvalue of the Choi matrix partially transposed on
    B_in (x) B_out; the branch preserves p.p.t. iff it is >= 0."""
    shape = (*in_dims, *out_dims)
    d = math.prod(shape)
    t = _choi(kraus).reshape(shape + shape)
    t = t.transpose(0, 5, 2, 7, 4, 1, 6, 3).reshape(d, d)
    return float(np.linalg.eigvalsh((t + t.conj().T) / 2)[0])


def classify_reference(spec: dict) -> dict:
    doc = spec["descriptor"]
    in_dims = doc["input"]
    d_in = math.prod(in_dims)
    branches = [(sub["output"], [_matrix(k) for k in sub["kraus"]]) for sub in doc["subops"]]
    completeness = sum(k.conj().T @ k for _, kraus in branches for k in kraus)
    if np.max(np.abs(completeness - np.eye(d_in))) > TOL_OP:
        raise ValueError("generated operation is not trace preserving")
    ppt = all(_ppt_min_eigenvalue(in_dims, out, kraus) >= -TOL_OP for out, kraus in branches)
    if spec["local"] and not ppt:
        raise ValueError("a local operation failed the p.p.t. reference")
    return {"tp": True, "cp": True, "ppt": ppt, "separable_verified": spec["separable"]}


def check_classify(expect: dict, out: str) -> list[str]:
    got = json.loads(out)
    return [
        f"{key}: {got.get(key)!r} expected {value!r}"
        for key, value in expect.items()
        if got.get(key) != value
    ]


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _log2_dim(k: int) -> int:
    if k & (k - 1):
        raise ValueError(f"benchmark traces use powers of two, got K={k}")
    return k.bit_length() - 1


def _binary_entropy(f: float) -> float:
    return -sum(x * math.log2(x) for x in (f, 1 - f) if x > 0)


def _formation_bounds(k: int, f: float) -> tuple[float, float]:
    if k == 1:
        return 0.0, 0.0
    log2k = math.log2(k)
    lower = max(0.0, f * log2k - _binary_entropy(f))
    upper = 0.0 if f <= 1 / k else min(f * log2k, (f * k - 1) / (k - 1) * log2k)
    return lower, upper


def rates_reference(spec: dict) -> dict:
    per_step = []
    for step in spec["trace"]["steps"]:
        n, bs = step["n"], step["branches"]
        lo = sum(float(b["p"]) * _formation_bounds(b["K"], float(b["F"]))[0] for b in bs)
        hi = sum(float(b["p"]) * _formation_bounds(b["K"], float(b["F"]))[1] for b in bs)
        per_step.append({
            "n": n,
            "rate": float(sum(b["p"] * _log2_dim(b["K"]) for b in bs) / n),
            "residual": float(sum(b["p"] * (1 - b["F"]) * _log2_dim(b["K"]) for b in bs) / n),
            "formation_lower": lo / n,
            "formation_upper": hi / n,
            "min_fidelity": float(min(b["F"] for b in bs)),
        })
    last = per_step[-1]
    return {
        "per_step": per_step,
        "rate": last["rate"],
        "residual": last["residual"],
        "formation_interval": [last["formation_lower"], last["formation_upper"]],
        "min_fidelity": last["min_fidelity"],
        "all_power_of_two": True,
        "single_branch_rate": None,  # every trace has a failure branch or several branches
    }


def check_rates(expect: dict, out: str) -> list[str]:
    got = json.loads(out)
    problems = []
    for key in ("rate", "residual", "min_fidelity"):
        if not _close(got.get(key), expect[key]):
            problems.append(f"{key}: {got.get(key)} expected {expect[key]}")
    interval = got.get("formation_interval") or [None, None]
    if not all(_close(a, b) for a, b in zip(interval, expect["formation_interval"])):
        problems.append(f"formation_interval: {interval} expected {expect['formation_interval']}")
    for key in ("all_power_of_two", "single_branch_rate"):
        if got.get(key) != expect[key]:
            problems.append(f"{key}: {got.get(key)!r} expected {expect[key]!r}")
    steps = got.get("per_step", [])
    if len(steps) != len(expect["per_step"]):
        return problems + [f"{len(steps)} steps, expected {len(expect['per_step'])}"]
    for i, (g, e) in enumerate(zip(steps, expect["per_step"])):
        bad = [key for key, value in e.items() if not _close(g.get(key), value)]
        if bad:
            problems.append(f"step {i}: {', '.join(bad)} differ from the reference")
    return problems


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def failure_reference(k: int, probs: list[float], floors: list[int]) -> float:
    """P(N_j < m_j for some j), N ~ multinomial(k, probs + rest).

    Summed over the first branch that misses its floor: branch j is drawn as
    a binomial of the trials left by branches 1..j-1, conditioned on those
    having met their floors, so every term is a positive probability.  Each
    binomial is evaluated on a window of TAIL_SIGMAS standard deviations
    around its mean and states lighter than MASS_FLOOR are dropped; both cut
    off less than 1e-15 in total.
    """
    log_fact = np.array([math.lgamma(i + 1) for i in range(k + 1)])
    mass = np.zeros(k + 1)  # trials consumed so far, all floors met
    mass[0] = 1.0
    remaining = 1.0
    failure = 0.0
    for p, m in zip(probs, floors):
        cond = min(1.0, p / remaining)
        used = np.flatnonzero(mass > MASS_FLOOR)
        avail = k - used
        if cond >= 1.0:  # every remaining trial lands in this branch
            failure += math.fsum(mass[used[avail < m]])
            nxt = np.zeros(k + 1)
            nxt[k] = mass[used[avail >= m]].sum()
        else:
            width = TAIL_SIGMAS * math.sqrt(avail.max() * cond * (1 - cond)) + 1
            lo = max(0, math.floor(avail.min() * cond - width))
            hi = min(int(avail.max()), math.ceil(avail.max() * cond + width))
            c = np.arange(lo, hi + 1)
            keep = c >= m
            nxt = np.zeros(k + 1)
            # blocks of states bound the oracle's memory, which peak_rss_mb includes
            for first in range(0, used.size, STATE_BLOCK):
                u = used[first:first + STATE_BLOCK, None]
                n = k - u
                nc = np.maximum(n - c, 0)
                log_pmf = (log_fact[n] - log_fact[c] - log_fact[nc]
                           + c * math.log(cond) + nc * math.log1p(-cond))
                weight = np.where(c <= n, np.exp(log_pmf), 0.0) * mass[u]
                failure += math.fsum(weight[:, ~keep].ravel())
                target = (u + c[keep]).ravel()
                # targets past k carry zero weight (counts above the trials left)
                nxt += np.bincount(
                    target, weights=weight[:, keep].ravel(), minlength=k + 1
                )[: k + 1]
        mass = nxt
        remaining -= p
    return failure


def compile_reference(spec: dict) -> list[dict]:
    (step,) = spec["trace"]["steps"]
    constrained = [b for b in step["branches"] if b["K"] > 1]
    probs = [float(b["p"]) for b in constrained]
    hashing = sum(b["p"] * (2 * b["F"] - 1) * _log2_dim(b["K"]) for b in step["branches"])
    bound = (hashing - 1) / step["n"]
    out = []
    for k in spec["k_list"]:
        floors, log2_dim = [], 0.0
        for b in constrained:
            p_prime = spec["p_fraction"] * b["p"]
            rate_prime = spec["rate_fraction"] * ((2 * b["F"] - 1) * _log2_dim(b["K"]) - 1)
            floors.append(math.floor(p_prime * k))
            # log2 floor(2^e) = e up to 2^-e, far below TOL_REL at these sizes
            log2_dim += float(rate_prime * p_prime * k)
        out.append({
            "k": k,
            "achieved_rate": log2_dim / (step["n"] * k),
            "rate_bound": float(bound),
            "failure_probability": failure_reference(k, probs, floors),
        })
    return out


def check_compile(expect: list[dict], out: str) -> list[str]:
    got = json.loads(out)
    if [g.get("k") for g in got] != [e["k"] for e in expect]:
        return [f"k values {[g.get('k') for g in got]}"]
    problems = []
    for g, e in zip(got, expect):
        where = f"k={e['k']}"
        for key in ("achieved_rate", "rate_bound"):
            if not _close(g.get(key), e[key]):
                problems.append(f"{where}: {key} {g.get(key)} expected {e[key]}")
        fp, ref = g.get("failure_probability"), e["failure_probability"]
        if not isinstance(fp, (int, float)) or not 0 <= fp <= 1:
            problems.append(f"{where}: failure_probability {fp} outside [0, 1]")
        elif g.get("failure_method") == "exact" and abs(fp - ref) > TOL_FAILURE:
            problems.append(f"{where}: exact failure_probability {fp} vs reference {ref}")
        elif fp < ref - TOL_FAILURE:
            problems.append(f"{where}: failure bound {fp} below the exact value {ref}")
    return problems


# ---------------------------------------------------------------------------
# Dispatch, and the self-check that a wrong result is caught.
# ---------------------------------------------------------------------------

_REFERENCES: dict[str, Callable[[dict], Any]] = {
    "simulate": lambda spec: spec,
    "verify": lambda spec: spec,
    "ef": ef_reference,
    "classify": classify_reference,
    "rates": rates_reference,
    "compile": compile_reference,
}
_CHECKS: dict[str, Callable[[Any, str], list[str]]] = {
    "simulate": check_simulate,
    "verify": check_verify,
    "ef": check_ef,
    "classify": check_classify,
    "rates": check_rates,
    "compile": check_compile,
}


def reference(job: Job) -> Any:
    """What the oracle compares the job's output with; compute once per job."""
    return _REFERENCES[job.kind](job.spec)


def check(job: Job, expect: Any, exit_code: int, out: str) -> list[str]:
    """Problems with one job's result; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKS[job.kind](expect, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _plant_simulate(out: str) -> str:
    rows = json.loads(out)
    rows[0]["pass"] = False
    return json.dumps(rows)


def _plant_classify(out: str) -> str:
    doc = json.loads(out)
    doc["ppt"] = not doc["ppt"]
    return json.dumps(doc)


def _plant_rates(out: str) -> str:
    doc = json.loads(out)
    doc["rate"] += 0.5
    return json.dumps(doc)


def _plant_compile(out: str) -> str:
    docs = json.loads(out)
    docs[0]["failure_probability"] = 1.5
    return json.dumps(docs)


PLANTS: dict[str, Callable[[str], str]] = {
    "simulate": _plant_simulate,
    "verify": lambda out: out.replace("[PASS]", "[FAIL]", 1),
    "ef": lambda out: repr(float(out) + 0.5),
    "classify": _plant_classify,
    "rates": _plant_rates,
    "compile": _plant_compile,
}


def assert_catches_planted(job: Job, expect: Any, out: str) -> None:
    """Raise unless the oracle rejects a planted wrong result and a non-zero exit."""
    if not check(job, expect, 1, out):
        raise RuntimeError(f"oracle accepted a non-zero exit of {' '.join(job.argv)}")
    if not check(job, expect, 0, PLANTS[job.kind](out)):
        raise RuntimeError(f"oracle accepted a planted wrong result of {' '.join(job.argv)}")
