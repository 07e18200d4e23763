"""Independent output checks, one per call.

Every reference here is the benchmark's own numpy code built from the
generated inputs; nothing calls lindbladff.  ``check(call, stdout, inputs)``
returns a :class:`Verdict`: whether the output is right, why not, and for the
approximate evolutions (ff, dilated, choi-ff) the error ratio
``trace distance / eps``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from workloads import pauli_matrix

EXACT_TOL = 1e-8          # exact-route evolutions, pass/fail only
VALUE_TOL = 1e-9          # recomputed closed forms (sums, tails, amplitudes)
REPLAY_TOL = 1e-8         # angle-schedule replay, l2 (the project's acceptance criterion 11b)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    err_ratio: float | None = None


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Parsing and linear algebra
# ---------------------------------------------------------------------------

def parse_output(stdout: str) -> tuple[list, list]:
    """Split CLI output into JSON records and text lines."""
    records, text = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            records.append(json.loads(line))
        elif line:
            text.append(line)
    return records, text


def parse_dense(text: str) -> np.ndarray:
    rows = [np.array(line.replace(",", " ").split(), dtype=float).view(complex)
            for line in text.splitlines() if line.strip()]
    return np.array(rows)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def state_vector(spec: str, dim: int, inputs) -> np.ndarray:
    if spec == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if spec.startswith("basis:"):
        v = np.zeros(dim, dtype=complex)
        v[int(spec.split(":", 1)[1])] = 1.0
        return v
    v = inputs.states[spec.split(":", 1)[1]]
    return v / np.linalg.norm(v)


class _Spectra:
    """Cached ``eigh`` of each generated matrix."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._cache = {}

    def __call__(self, name: str):
        if name not in self._cache:
            self._cache[name] = np.linalg.eigh(self.inputs.matrices[name])
        return self._cache[name]


def spectrum_map(w: np.ndarray) -> tuple[float, float]:
    """(scale, shift) of the program's normalization: a spectrum inside [0, 1]
    is kept, any other is mapped onto it; original = scale * h + shift."""
    if w[0] >= 0.0 and w[-1] <= 1.0:
        return 1.0, 0.0
    return float(w[-1] - w[0]), float(w[0])


def dephasing_channel(w, v, rho0, t, shift, scale) -> np.ndarray:
    """V (exp(-t Delta^2 / 2) o V^dag rho V) V^dag on the normalized spectrum."""
    h = (w - shift) / scale
    k = np.exp(-0.5 * t * (h[:, None] - h[None, :]) ** 2)
    return v @ (k * (v.conj().T @ rho0 @ v)) @ v.conj().T


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def _single_record(records) -> dict:
    _require(len(records) == 1, f"expected one record, got {len(records)}")
    return records[0]["outputs"]


def _check_evolve(call, records, text, inputs, spectra) -> float | None:
    out = _single_record(records)
    info = call.info
    w, v = spectra(info["ham"])
    psi = state_vector(info["state"], w.size, inputs)
    rho0 = np.outer(psi, psi.conj())
    smap = out["spectrum_map"]
    ref = dephasing_channel(w, v, rho0, info["t"], smap["shift"], smap["scale"])
    td = trace_distance(parse_dense(out["rho_out"]), ref)
    if info["method"] == "exact":
        _require(td <= EXACT_TOL, f"exact route off by {td:.3e} > {EXACT_TOL:.0e}")
        return None
    _require(td <= info["eps"], f"trace distance {td:.3e} exceeds eps {info['eps']}")
    return td / info["eps"]


def _check_choi(call, records, text, inputs, spectra) -> float:
    out = _single_record(records)
    info = call.info
    entries = inputs.jump_lists[info["jumps"]]
    dim = 1 << len(entries[0][0])
    psi = state_vector(info["state"], dim, inputs)
    rho = np.outer(psi, psi.conj())
    for string, rate in entries:
        p = pauli_matrix([(1.0, string)])
        a = math.exp(-2.0 * rate * info["t"])
        rho = 0.5 * (1.0 + a) * rho + 0.5 * (1.0 - a) * (p @ rho @ p)
    td = trace_distance(parse_dense(out["rho_out"]), rho)
    _require(out["choi_commuting"] is True, "Pauli jumps reported as non-commuting")
    _require(td <= info["eps"], f"trace distance {td:.3e} exceeds eps {info['eps']}")
    return td / info["eps"]


def _circular(x: np.ndarray) -> np.ndarray:
    x = np.mod(x, 1.0)
    return np.minimum(x, 1.0 - x)


def _check_qpe(call, records, text, inputs, spectra):
    out = _single_record(records)
    info = call.info
    w, v = spectra(info["ham"])
    scale, shift = spectrum_map(w)
    h = (w - shift) / scale
    psi = state_vector(info["state"], w.size, inputs)
    weights = np.abs(v.conj().T @ psi) ** 2
    if "distribution" in out:
        total = float(np.sum(out["distribution"]))
        _require(abs(total - 1.0) <= VALUE_TOL, f"distribution sums to {total!r}")
    est = float(out["estimate_normalized"])
    _require(abs(out["estimate"] - (scale * est + shift)) <= VALUE_TOL * max(1.0, scale),
             "estimate disagrees with its normalized value under the spectrum map")
    present = h[weights > 1e-3]
    if info["route"] == "standard":
        # phases are read mod 1; the most likely outcome is the nearest register step
        ok = np.min(_circular(present - est)) <= 2.0 ** -info["d"]
    elif info["mode"] == "exact":
        # the most likely count lies within two of N sin^2(sqrt(t/N) h)
        t, n = info["t"], info["n"]
        counts = n * np.sin(math.sqrt(t / n) * present) ** 2
        lo = np.clip(np.floor(counts) - 2, 0, n)
        hi = np.clip(np.ceil(counts) + 2, 0, n)
        ok = np.any((_counting_estimate(lo, t, n) <= est + 1e-12) & (est <= _counting_estimate(hi, t, n) + 1e-12))
    else:
        # one draw of an estimate with standard deviation 1/(2 sqrt(t)) at every level;
        # allow five, since a sample-mode median is one of the draws
        ok = np.min(np.abs(present - est)) <= 2.5 / math.sqrt(info["t"])
    _require(bool(ok), f"estimate {est:.6f} is out of the route's resolution of every populated level")


def _counting_estimate(m, t, n):
    return math.sqrt(n / t) * np.arcsin(np.sqrt(m / n))


def _check_prepare(call, records, text, inputs, spectra):
    out = _single_record(records)
    info = call.info
    _require(out["overlap"] >= out["overlap_bound"],
             f"overlap {out['overlap']!r} below its bound {out['overlap_bound']!r}")
    w, v = spectra(info["ham"])
    target = v[:, info["eigen"]]
    state = parse_dense(out["state"]).reshape(-1)
    ours = float(abs(np.vdot(target, state)) ** 2 / np.vdot(state, state).real)
    _require(abs(ours - out["overlap"]) <= 1e-8,
             f"reported overlap {out['overlap']!r} vs recomputed {ours!r}")


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    wr, vr = np.linalg.eigh(rho)
    root = (vr * np.sqrt(np.clip(wr, 0.0, None))) @ vr.conj().T
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(root @ sigma @ root), 0.0, None))) ** 2)


def _check_gibbs(call, records, text, inputs, spectra):
    info = call.info
    _require(len(records) == len(info["betas"]), f"expected {len(info['betas'])} records")
    w, v = spectra(info["ham"])
    n_sys = w.size
    for rec, beta in zip(records, info["betas"]):
        out = rec["outputs"]
        boltz = np.exp(-beta * w)
        z = float(np.sum(boltz))
        gibbs = (v * (boltz / z)) @ v.conj().T
        _require(abs(out["partition_exact"] - z) <= VALUE_TOL * z, "exact partition function differs")
        fid = _fidelity(parse_dense(out["reduced_state"]), gibbs)
        _require(abs(fid - out["fidelity"]) <= 1e-8, f"fidelity {out['fidelity']!r} vs recomputed {fid!r}")
        # a channel within trace distance eps moves the ancilla block vector by at most
        # 2 eps; the block norm is sqrt(Z / 2^n) / 2
        eps = info["eps"]
        block = math.sqrt(z / n_sys) / 2.0
        _require(abs(math.sqrt(out["partition_estimate"]) - math.sqrt(z)) <= 4.0 * eps * math.sqrt(n_sys),
                 f"partition estimate {out['partition_estimate']!r} vs exact {z!r} at eps {eps}")
        _require(fid >= max(0.0, 1.0 - 8.0 * eps ** 2 / block ** 2) ** 2,
                 f"fidelity {fid!r} below the eps bound at beta {beta}")


def _check_ae(call, records, text, inputs, spectra):
    """The demo's target is 95% correct decisions; reject a run count that a
    95% decider would produce with probability below 1e-3."""
    out = _single_record(records)
    runs = call.info["runs"]
    _require(len(out["runs"]) == runs, "wrong number of runs")
    correct = sum(bool(r["correct"]) for r in out["runs"])
    _require(abs(out["accuracy"] - correct / runs) <= VALUE_TOL, "accuracy disagrees with its runs")
    p_low = math.fsum(math.comb(runs, k) * 0.95 ** k * 0.05 ** (runs - k) for k in range(correct + 1))
    _require(p_low >= 1e-3, f"{correct}/{runs} correct decisions is implausible at 95% (p={p_low:.1e})")


def _gaussian_amplitudes(n: int, mu: float, sigma: float) -> np.ndarray:
    m = np.arange(n, dtype=float)
    reach = int(math.ceil((abs(mu) + 40.0 * sigma) / n)) + 1
    total = sum(np.exp(-((m + l * n - mu) ** 2) / (2.0 * sigma ** 2)) for l in range(-reach, reach + 1))
    return np.sqrt(total / total.sum())


def _binomial_amplitudes(n: int) -> np.ndarray:
    return np.array([math.sqrt(math.comb(n, m) / 2.0 ** n) for m in range(n + 1)])


def _argv_value(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_stateprep(call, records, text, inputs, spectra):
    what = call.info["what"]
    argv = call.argv
    n = int(_argv_value(argv, "--N", 16))
    mu = float(_argv_value(argv, "--mu", 8.0))
    sigma = float(_argv_value(argv, "--sigma", 2.0))
    rows = [line.split(",") for line in text[1:]]
    if what == "angles":
        depth = int(round(math.log2(n)))
        angles = {(int(level), int(path)): float(angle) for level, path, angle in rows}
        _require(len(angles) == 2 ** depth - 1, f"expected {2 ** depth - 1} angles")
        m = np.arange(n)
        got = np.ones(n)
        for level in range(depth):
            a = np.array([angles[(level, int(p))] for p in m & ((1 << level) - 1)])
            got *= np.where((m >> level) & 1, np.sin(a), np.cos(a))
        gap = float(np.linalg.norm(got - _gaussian_amplitudes(n, mu, sigma)))
        _require(gap <= REPLAY_TOL, f"angle replay l2 gap {gap:.3e} > {REPLAY_TOL:.0e}")
        return
    got = np.array([float(r[1]) for r in rows])
    want = _binomial_amplitudes(n) if what == "binomial" else _gaussian_amplitudes(n, mu, sigma)
    _require(got.shape == want.shape, f"table has {got.size} rows, expected {want.size}")
    err = float(np.max(np.abs(got - want)))
    _require(err <= VALUE_TOL, f"{what} table off by {err:.3e}")


def _check_bounds(call, records, text, inputs, spectra):
    _require(text[0].startswith("N,p,c,"), "missing header")
    violations = 0
    for line in text[1:-1]:
        n_s, p_s, c_s, tail_s, bern_s, hoef_s, ok_b, ok_h = line.split(",")
        n, p, c = int(n_s), float(p_s), float(c_s)
        tail = math.fsum(math.comb(n, m) * p ** m * (1.0 - p) ** (n - m)
                         for m in range(n + 1) if abs(m - n * p) >= c * n)
        bern = 2.0 * math.exp(-n * c ** 2 / (0.5 * p * (1.0 - p) + 2.0 * c / 3.0))
        hoef = 2.0 * math.exp(-2.0 * c ** 2 * n)
        _require(abs(float(tail_s) - tail) <= VALUE_TOL, f"tail at N={n}, p={p}, c={c}")
        _require(abs(float(bern_s) - bern) <= VALUE_TOL * bern, "Bernstein value")
        _require(abs(float(hoef_s) - hoef) <= VALUE_TOL * hoef, "Hoeffding value")
        violations += (ok_b == "False") + (ok_h == "False" and p == 0.5)
    _require(text[-1] == f"# violations={violations}", "violation count mismatch")


def _check_bench(call, records, text, inputs, spectra):
    _require(len(records) == 2, f"expected two slope records, got {len(records)}")
    for rec in records:
        out = rec["outputs"]
        _require(out["pass"] is True, f"{out['suite']} {out['series']} slope {out['slope']!r} misses its target")
    if call.info["suite"] == "ff-vs-dilated":
        for line in text[1:]:
            distance = float(line.split(",")[-1])
            _require(distance <= call.info["eps"], f"row {line!r} exceeds eps")


_CHECKS = {
    "evolve": _check_evolve,
    "choi": _check_choi,
    "qpe": _check_qpe,
    "prepare": _check_prepare,
    "gibbs": _check_gibbs,
    "ae": _check_ae,
    "stateprep": _check_stateprep,
    "bounds": _check_bounds,
    "bench": _check_bench,
}


def canonical_output(stdout: str) -> str:
    """Output with the one timing field blanked, so identical runs compare equal."""
    return re.sub(r'"wall_time_s":[^,}]*', '"wall_time_s":0', stdout)


class Checker:
    """Checks calls of one workload against its generated inputs.

    Repeated calls print identical outputs; an output equal to one already
    checked for the same call shares its verdict.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self._spectra = _Spectra(inputs)
        self._verdicts = {}

    def check(self, call, stdout: str) -> Verdict:
        key = (call.label, canonical_output(stdout))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(call, stdout)
        return self._verdicts[key]

    def _check(self, call, stdout: str) -> Verdict:
        try:
            records, text = parse_output(stdout)
            ratio = _CHECKS[call.kind](call, records, text, self.inputs, self._spectra)
        except CheckFailed as exc:
            return Verdict(False, str(exc))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Verdict(False, f"unparsable output: {type(exc).__name__}: {exc}")
        return Verdict(True, "", ratio)
