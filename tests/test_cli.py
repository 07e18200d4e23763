import argparse
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import contextlib
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lindbladff
from lindbladff import FFPlan, choi, cli, lindblad_spec, model, qpe
from lindbladff.cli import run
from lindbladff.model import parse_dense_matrix
from lindbladff.numkernel import trace_distance

from conftest import dilated_step
from oracles import (dense_circuit_reference, eigen_oracle, exact_gibbs, ff_prepare_numbers,
                     gibbs_numbers, kravchuk_readout, kron_pauli_sum, lindblad_exact_general,
                     line_by_line_jump_list, sampled_median, slow_rms_error, uhlmann_fidelity)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lindbladff.__file__)))
DATA = os.path.join(os.path.dirname(__file__), "data")
HAM = os.path.join(DATA, "h_two_level.pauli")
SHIFTED6 = os.path.join(DATA, "jumps_shifted6.txt")


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    return rc, buf.getvalue()


def strip_wall_time(text):
    out = []
    for line in text.splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            rec.pop("wall_time_s", None)
            out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        else:
            out.append(line)
    return "\n".join(out) + "\n"


# Every record-emitting subcommand on tiny inputs (dim <= 4, so BLAS threading
# cannot reorder a sum), run from the repo root: the command is in the record.
# tests/data/golden_<case>.jsonl holds all that each call writes but wall_time_s.
H1 = "tests/data/h_two_level.pauli"
H2 = "tests/data/h_two_qubit.pauli"
GOLDEN = {
    "evolve": ["evolve", "--method", "ff", "--ham", H1, "--t", "1",
               "--eps", "0.5", "--N", "16", "--state", "plus"],
    "evolve_dilated": ["evolve", "--method", "dilated", "--ham", H2,
                       "--t", "1", "--eps", "0.2"],
    "evolve_exact": ["evolve", "--method", "exact", "--ham", H2, "--t", "2",
                     "--state", "basis:1"],
    "evolve_choi_ff": ["evolve", "--method", "choi-ff", "--jumps",
                       "tests/data/jumps.txt", "--t", "1", "--eps", "0.05"],
    "qpe_standard": ["qpe", "--route", "standard", "--ham", H2, "--d", "4"],
    "qpe_slow": ["qpe", "--route", "slow", "--ham", H2, "--t", "4", "--N", "64"],
    "qpe_fast_sample": ["qpe", "--route", "fast", "--ham", H2, "--t", "4",
                        "--N", "64", "--eps", "1e-3", "--mode", "sample",
                        "--repeats", "5", "--seed", "3"],
    "prepare_standard": ["qpe", "prepare", "--route", "standard", "--ham", H2,
                         "--eigen", "1", "--d", "4"],
    "prepare_slow": ["qpe", "prepare", "--route", "slow", "--ham", H2,
                     "--eigen", "1", "--t", "16", "--N", "256"],
    "prepare_fast": ["qpe", "prepare", "--route", "fast", "--ham", H2,
                     "--eigen", "1", "--t", "4", "--N", "64"],
    "gibbs": ["gibbs", "--ham", H2, "--beta", "1,2", "--eps", "0.05"],
    "ae_demo": ["ae-demo", "--n", "3", "--witnesses", "1", "--runs", "3",
                "--N", "256", "--seed", "5"],
    "bench_gibbs_beta": ["bench", "gibbs-beta", "--beta", "1,2,4",
                         "--eps", "0.05"],
    "bench_qpe_error": ["bench", "qpe-error"],
}


class TestRecords:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_record(self, monkeypatch, case):
        monkeypatch.chdir(ROOT)
        rc, out = invoke(GOLDEN[case])
        assert rc == 0
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            want = fh.read()
        assert strip_wall_time(out) == want

    def test_determinism_byte_identical(self):
        argv = ["qpe", "--route", "slow", "--ham", HAM, "--t", "4", "--N", "100",
                "--mode", "sample", "--seed", "7"]
        _, a = invoke(argv)
        _, b = invoke(argv)
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_record_round_trips(self):
        rc, out = invoke(["evolve", "--method", "exact", "--ham", HAM, "--t", "2"])
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["outputs"]["method"] == "exact"
        assert "rho_out" in rec["outputs"]
        assert rec["command"][0] == "evolve"

    def test_out_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        rc, out = invoke(["--out", str(path), "evolve", "--method", "exact",
                          "--ham", HAM, "--t", "1"])
        assert rc == 0 and out == ""
        assert path.read_text().startswith("{")

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        # a relative --out lands in LINDBLADFF_OUT_DIR; an absolute one wins over it
        base = tmp_path / "base"
        base.mkdir()
        monkeypatch.setenv("LINDBLADFF_OUT_DIR", str(base))
        for out_arg, path in (("rel.jsonl", base / "rel.jsonl"),
                              (str(tmp_path / "abs.jsonl"), tmp_path / "abs.jsonl")):
            rc, out = invoke(["--out", out_arg, "evolve", "--method", "exact",
                              "--ham", HAM, "--t", "1"])
            assert rc == 0 and out == ""
            assert path.read_text().startswith("{")
        assert os.listdir(base) == ["rel.jsonl"]

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failing_call_writes_nothing(self, tmp_path, capsys, to_file):
        # beta = 1 yields its record before beta = -1 raises: no line may escape
        path = tmp_path / "records.jsonl"
        out_args = ["--out", str(path)] if to_file else []
        rc, out = invoke([*out_args, "gibbs", "--ham", os.path.join(DATA, "h_two_qubit.pauli"),
                          "--beta", "1,-1"])
        assert rc == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()


U = 2.0 ** -53  # unit roundoff


def _pauli_file(path):
    """The dense Pauli sum of a file, built by Kronecker products."""
    with open(os.path.join(ROOT, path)) as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return kron_pauli_sum([(float(c), p) for c, p in rows])


def _ff_formulas(t, eps, n=None):
    """The fast-forwarding plan's N, c, d and d' by the paper's formulas."""
    if n is None:
        n = math.ceil(t ** 3 / eps ** 2)
    n += n % 2
    c = math.sqrt(math.log(2.0 / eps) / 2.0) / math.sqrt(n)
    d = max(1, math.ceil(math.log2(n + 1)))
    return n, c, d, min(math.ceil(math.log2(c * n)) + 1, d)


class TestEvolveGoldensAgainstOracles:
    """The four ``evolve`` golden files against oracles that take another route:
    the vectorized propagator, the literal fast-forwarding circuit, the literal
    dilated steps and the exact two-jump channel.

    Error model of a single-jump record, u = 2^-53, d the dimension, ||H|| <= 1
    (each jump's spectrum map is the identity): every law is a mixture of the
    conjugations by e^(-i H theta) over its phase law, so reading H as H + E
    moves the output by at most 2 E|theta| ||E|| in trace norm, a bound on every
    entry, and eigh is backward stable with ||E|| <= 2 d u ||H|| (as in
    ``standard_route_oracle``); its eigenvectors are unitary within d u, and the
    four d-term products of the eigenbasis multiplier err by d u an entry each,
    8 d u in all; a kernel from k rounded steps, each of size at most 1 in all,
    errs by k u.  Each oracle's budget is stated where it is read.  The three
    single-jump budgets stay below 2e-13, so moving any of their numbers by
    1e-12 fails."""

    @staticmethod
    def golden(case):
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            rec = json.loads(fh.readline())
        opts = dict(zip(rec["command"][1::2], rec["command"][2::2]))
        return rec, opts, parse_dense_matrix(rec["outputs"]["rho_out"])

    @staticmethod
    def record_budget(d, mean_abs_theta, kernel_steps):
        return (4.0 * mean_abs_theta * d + 8.0 * d + kernel_steps) * U

    def test_exact_against_the_vectorized_propagator(self):
        rec, opts, got = self.golden("evolve_exact")
        h, t = _pauli_file(opts["--ham"]), float(opts["--t"])
        psi = np.eye(len(h))[int(opts["--state"].split(":")[1])]
        want = lindblad_exact_general(lindblad_spec([h]), np.outer(psi, psi), t)
        # expm of A = t L, Hermitian, negative semidefinite and of norm t max(gap)^2 / 2,
        # is backward stable to d^2 u ||A||, plus 4 u ||A|| building L, and a contraction;
        # the kernel exp(-t gap^2 / 2) rounds its argument by 3u relative, its value by u;
        # E|theta| = sqrt(2 t / pi) for theta ~ N(0, t)
        norm_a = t * float(np.ptp(np.linalg.eigvalsh(h))) ** 2 / 2.0
        oracle = (len(h) ** 2 + 4) * U * (1.0 + norm_a)
        bound = self.record_budget(len(h), math.sqrt(2.0 * t / math.pi), 1.5 * t + 1.0) + oracle
        assert bound < 2e-13 and np.max(np.abs(got - want)) <= bound
        assert rec["outputs"]["spectrum_map"] == {"scale": 1.0, "shift": 0.0}
        assert rec["cost"] == {"hamiltonian_time": 0.0, "step_count": 0, "ancilla_count": 0}

    def test_ff_against_the_literal_circuit(self):
        rec, opts, got = self.golden("evolve")
        h, t, eps = _pauli_file(opts["--ham"]), float(opts["--t"]), float(opts["--eps"])
        p, edge = _ff_plan(t, eps, int(opts["--N"]))
        assert rec["outputs"]["plan"] == {
            "N": p.n, "c": p.c, "d": p.d, "dprime": p.dprime, "tau": t / p.n,
            "window": list(p.window), "full_window": p.full_window, "mod_convention": "2^d",
            "note": ""}
        assert rec["cost"] == {"hamiltonian_time": edge, "step_count": p.dprime + 1,
                               "ancilla_count": p.d}
        psi = np.full(len(h), 1.0 / math.sqrt(len(h)), dtype=complex)
        want = dense_circuit_reference(h, psi, p)
        # the circuit's amplitudes exp((log N! - log m! - log (N-m)! - N log 2) / 2) carry
        # 2 (log N! + N log 2) u + u relative, twice in rho; each of its d' + 1 expm
        # factors (|theta| <= edge) and their row products err by (2 dim + 2)(1 + edge) u,
        # twice in rho; the trace over 2^d rows sums terms of at most 1 in all.  The
        # kernel is allowed N + P/2 + d' + 3 roundings of size at most 1, more than
        # the closed form's at most P/2 pairs of terms take
        amp = 2.0 * (math.lgamma(p.n + 1) + p.n * math.log(2.0)) + 1.0
        oracle = (2 * amp + 2 * (p.dprime + 1) * (2 * len(h) + 2) * (1 + edge) + (1 << p.d)) * U
        bound = self.record_budget(len(h), edge, p.n + p.period // 2 + p.dprime + 3) + oracle
        assert bound < 2e-13 and np.max(np.abs(got - want)) <= bound
        assert rec["outputs"]["spectrum_map"] == {"scale": 1.0, "shift": 0.0}

    def test_dilated_against_the_literal_steps(self):
        rec, opts, got = self.golden("evolve_dilated")
        h, t, eps = _pauli_file(opts["--ham"]), float(opts["--t"]), float(opts["--eps"])
        n = math.ceil(t ** 3 / eps ** 2)
        assert n == 25 and "--state" not in opts     # the plus state
        assert rec["cost"] == {"hamiltonian_time": n * math.sqrt(t / n), "step_count": n,
                               "ancilla_count": n}
        psi = np.full(len(h), 1.0 / math.sqrt(len(h)), dtype=complex)
        want = np.outer(psi, psi.conj())
        for _ in range(n):
            want = dilated_step(h, want, t / n)
        # each literal step, a contraction, errs as one eigenbasis evolution of the
        # 2d-dimensional dilation for sqrt(t / N): 2 sqrt(t / N) 2 (2d) u + 6 (2d) u + u
        # (its partial trace); the law is theta = sqrt(t / N) times a +-1 walk of N
        # steps, E|theta| <= sqrt(t), and its kernel's N log1p(-sin^2) or cos^N errs
        # by at most 5 N u + 2u
        step = (8.0 * math.sqrt(t / n) * len(h) + 12.0 * len(h) + 1.0) * U
        bound = self.record_budget(len(h), math.sqrt(t), 5.0 * n + 2.0) + n * step
        assert bound < 2e-13 and np.max(np.abs(got - want)) <= bound
        assert rec["outputs"]["spectrum_map"] == {"scale": 1.0, "shift": 0.0}

    def test_choi_ff_within_eps_of_the_exact_two_jump_channel(self):
        rec, opts, got = self.golden("evolve_choi_ff")
        t, eps = float(opts["--t"]), float(opts["--eps"])
        with open(os.path.join(ROOT, opts["--jumps"])) as fh:
            listed = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        base = os.path.dirname(opts["--jumps"])
        jumps = [math.sqrt(float(rate)) * _pauli_file(os.path.join(base, name))
                 for name, rate in listed]
        psi = np.full(len(jumps[0]), 1.0 / math.sqrt(len(jumps[0])), dtype=complex)
        want = lindblad_exact_general(lindblad_spec(jumps), np.outer(psi, psi.conj()), t)
        assert trace_distance(got, want) <= eps
        assert rec["outputs"]["max_commutator"] == 0.0 and rec["outputs"]["choi_commuting"]
        # each jump sqrt(rate) P, P a Pauli string of spectrum {-1, 1}, runs its unit-width
        # form for (2 sqrt(rate))^2 t on eps / K
        cost = [0.0, 0, 0]
        for _, rate in listed:
            time = (2.0 * math.sqrt(float(rate))) ** 2 * t
            n, _, d, dprime = _ff_formulas(time, eps / len(listed))
            cost = [cost[0] + (1 << dprime) * math.sqrt(time / n), cost[1] + dprime + 1,
                    cost[2] + d]
        assert rec["cost"] == dict(zip(("hamiltonian_time", "step_count", "ancilla_count"),
                                       cost))


def _float_budget(edge, dim):
    """Rounding allowed for a number x computed after the eigendecomposition
    from ``ff`` kernel entries: each entry errs by at most (16 + 2 B) u, 16 ulp
    of 1 and the rounding of phases up to the plan's Hamiltonian time B (as in
    tests/test_readout_identities.py), and each number sums at most dim
    products of two entries and a dim-term eigenvector product each, so 8 dim
    times that, relative to 1 + |x|."""
    return lambda x: 8 * dim * (16 + 2 * edge) * U * (1 + abs(x))


def _check_numbers(got, want, bound):
    """Every number of ``got`` within its bound of ``want``, each bound below 1e-12."""
    assert sorted(got) == sorted(want), (sorted(got), sorted(want))
    for name in got:
        assert len(got[name]) == len(want[name]), name
        for i, (g, w, b) in enumerate(zip(got[name], want[name], bound[name])):
            assert b < 1e-12 and abs(g - w) <= b, (name, i, g, w, b)


def _ff_plan(t, eps, n=None):
    """The ``FFPlan`` of ``_ff_formulas`` and its Hamiltonian time P sqrt(t / N)."""
    n, c, d, dprime = _ff_formulas(t, eps, n)
    half = 1 << (dprime - 1)
    window = (n // 2 - half, n // 2 + half - 1)
    p = FFPlan(t, eps, n, c, d, dprime, window, window[0] <= 0 and window[1] >= n)
    return p, (1 << dprime) * math.sqrt(t / n)


def _matrix_numbers(text):
    return [x for z in parse_dense_matrix(text).ravel() for x in (z.real, z.imag)]


def _gibbs_oracle(mat, beta, eps):
    p, edge = _ff_plan(beta, eps)
    numbers = lambda lam, vecs: gibbs_numbers(lam, vecs, beta, p)
    want, bound = eigen_oracle(mat, numbers, _float_budget(edge, len(mat)))
    # the oracle's own numbers against the float Gibbs oracles: exact_gibbs'
    # spectral Z, and scipy's square roots for the Uhlmann fidelity, which
    # assumes nothing about the two states commuting
    rho = np.array(want["reduced_state"]).view(complex).reshape(mat.shape)
    gibbs, z = exact_gibbs(mat, beta)
    assert abs(z - want["partition_exact"][0]) <= 8 * len(mat) * (1 + beta) * U * z
    assert abs(uhlmann_fidelity(rho, gibbs) - want["fidelity"][0]) <= 1e-13
    return p, edge, want, bound


def check_gibbs_golden(text):
    """Every number of a ``gibbs`` golden text against ``gibbs_numbers`` on
    mpmath's eigendecomposition, within ``eigen_oracle``'s first-order bound:
    each record's outputs and cost, and each CSV row as its record's numbers."""
    lines = text.splitlines()
    records = [json.loads(line) for line in lines if line.startswith("{")]
    rows = [line for line in lines if not line.startswith("{")]
    assert rows[0] == "beta,hamiltonian_time,fidelity,partition_estimate,partition_exact"
    assert len(rows) == len(records) + 1
    opts = dict(zip(records[0]["command"][1::2], records[0]["command"][2::2]))
    mat, eps = _pauli_file(opts["--ham"]), float(opts["--eps"])
    betas = [float(b) for b in opts["--beta"].split(",")]
    assert len(records) == len(betas)
    for rec, row, beta in zip(records, rows[1:], betas):
        out = rec["outputs"]
        assert out["beta"] == beta and rec["seed"] is None
        p, edge, want, bound = _gibbs_oracle(mat, beta, eps)
        assert rec["cost"] == {"hamiltonian_time": edge, "step_count": p.dprime + 1,
                               "ancilla_count": p.d}
        got = {name: [out[name]] for name in want if name != "reduced_state"}
        got["reduced_state"] = _matrix_numbers(out["reduced_state"])
        _check_numbers(got, want, bound)
        assert row == (f"{beta},{edge},{out['fidelity']},{out['partition_estimate']},"
                       f"{out['partition_exact']}")


def check_prepare_fast_golden(text):
    """Every number of a ``qpe prepare --route fast`` golden text against
    ``ff_prepare_numbers`` on mpmath's eigendecomposition, within
    ``eigen_oracle``'s first-order bound, and its cost by the plan's formulas."""
    rec = json.loads(text)
    opts = dict(zip(rec["command"][2::2], rec["command"][3::2]))
    assert rec["command"][:2] == ["qpe", "prepare"] and opts["--route"] == "fast"
    assert "--eps" not in opts and "--state" not in opts      # the default eps, the plus state
    args = cli._build_parser().parse_args(rec["command"])
    cli._check_modes(args)
    eps = args.eps
    mat, t, beta = _pauli_file(opts["--ham"]), float(opts["--t"]), int(opts["--eigen"])
    p, edge = _ff_plan(t, eps, int(opts["--N"]))
    assert rec["cost"] == {"hamiltonian_time": edge, "step_count": p.dprime + 1,
                           "ancilla_count": p.d}
    psi = np.full(len(mat), 1.0 / math.sqrt(len(mat)), dtype=complex)
    want, bound = eigen_oracle(mat, lambda lam, comps: ff_prepare_numbers(lam, comps, beta, p),
                               _float_budget(edge, len(mat)), psi)
    # the overlap bound's branch is read away from its edge
    assert abs(want.pop("dilated_margin")[0]) > 1e-6 + bound.pop("dilated_margin")[0]
    out = rec["outputs"]
    assert out["route"] == "fast" and rec["seed"] is None
    got = {name: [out[name]] for name in want if name != "state"}
    got["state"] = _matrix_numbers(out["state"])
    _check_numbers(got, want, bound)


def _refit_slope(xs, ys):
    """The least-squares slope of log ys against log xs, at 40 digits."""
    with mpmath.workdps(40):
        xs, ys = [mpmath.log(x) for x in xs], [mpmath.log(y) for y in ys]
        x0, y0 = sum(xs) / len(xs), sum(ys) / len(ys)
        return float(mpmath.fsum((x - x0) * (y - y0) for x, y in zip(xs, ys))
                     / mpmath.fsum((x - x0) ** 2 for x in xs))


def check_bench_gibbs_beta_golden(text):
    """A ``bench gibbs-beta`` golden text: each row's cost by the plan's
    formulas and its fidelity against ``gibbs_numbers`` on diag(0, 1); the
    slope refitted from the rows' own costs at 40 digits, within 64 u."""
    lines = text.splitlines()
    rec = json.loads(lines[-1])
    assert lines[0] == "beta,hamiltonian_time,fidelity"
    opts = dict(zip(rec["command"][2::2], rec["command"][3::2]))
    betas = [float(b) for b in opts["--beta"].split(",")]
    eps = float(opts["--eps"])
    mat = np.diag([0.0, 1.0]).astype(complex)
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    assert [row[0] for row in rows] == betas
    for beta, edge, fidelity in rows:
        p, want_edge, want, bound = _gibbs_oracle(mat, beta, eps)
        assert edge == want_edge
        _check_numbers({"fidelity": [fidelity]}, {"fidelity": want["fidelity"]},
                       {"fidelity": bound["fidelity"]})
    out = rec["outputs"]
    assert abs(out["slope"] - _refit_slope([b for b, _, _ in rows], [e for _, e, _ in rows])
               ) <= 64 * U
    assert {k: v for k, v in out.items() if k != "slope"} == {
        "suite": "gibbs-beta", "target": 0.5, "tolerance": 0.1,
        "pass": abs(out["slope"] - 0.5) <= 0.1}
    assert (rec["cost"], rec["ham_digest"], rec["seed"]) == (None, None, None)


class TestFastGoldensAgainstOracles:
    """The three golden files the ``ff`` kernel writes through a column at 0
    (``gibbs``, ``qpe prepare --route fast`` and ``bench gibbs-beta``), number
    by number against explicit residue sums on mpmath's eigendecomposition,
    with the binomial weights summed exactly (``oracles.residue_weights``)."""

    @pytest.mark.parametrize("case, check", [("gibbs", check_gibbs_golden),
                                             ("prepare_fast", check_prepare_fast_golden),
                                             ("bench_gibbs_beta", check_bench_gibbs_beta_golden)])
    def test_golden_matches_the_residue_sum_oracle(self, monkeypatch, case, check):
        monkeypatch.chdir(ROOT)
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            check(fh.read())


def _readout_budget(p, edge, levels):
    """Rounding allowed for a fast-readout count probability, u = 2^-53.  Per
    level, its weight taken out: the P readout coefficients c_k err in 2-norm
    by at most (2 B + 10 log2 P + 16) u relative (the phase table's d' + 1
    factors of phase up to B, or the Dirichlet terms, an FFT's log2 P stages,
    the shift and alpha phases); sum_k |c_k|^2 = 1 / P (Parseval) and sum_k
    pmf_k(x) <= P, so by Cauchy-Schwarz a row entry g[x] = sum_k sqrt(pmf_k(x))
    c_k moves by at most that, by (3 N + 16) u through the amplitudes' running
    ratios, and by (P / 2 + 2) u through its P / 2 + 1 accumulated pairs, whose
    magnitudes sum to at most 1.  |g[x]| <= 1, so |g[x]|^2 moves by twice that,
    and the sum over the levels adds (levels + 2) u."""
    terms = 2 * edge + 10 * math.log2(p.period) + 16 + 3 * p.n + 16 + p.period // 2 + 2
    return (2 * terms + levels + 2) * U


def check_qpe_fast_sample_golden(text):
    """Every number of a ``qpe --route fast --mode sample`` golden text: the
    distribution against ``kravchuk_readout`` on mpmath's eigendecomposition,
    within ``eigen_oracle``'s first-order bound plus ``_readout_budget``; the
    picked count as the sampled median replayed on that distribution, the
    estimate read from it, and the cost by the plan's formulas."""
    rec = json.loads(text)
    args = cli._build_parser().parse_args(rec["command"])
    cli._check_modes(args)
    assert (args.route, args.dist_mode, args.state) == ("fast", "sample", "plus")
    mat = _pauli_file(args.ham)
    p, edge = _ff_plan(args.t, args.eps, args.N)
    assert rec["cost"] == {"hamiltonian_time": edge, "step_count": p.dprime + 1,
                           "ancilla_count": p.d}

    def numbers(lam, comps):  # the spectrum map of normalize_spectrum, then the readout
        lo, hi = lam[0], lam[-1]
        scale, shift = (1, 0) if lo >= 0 and hi <= 1 else (hi - lo, lo)
        return {"distribution": kravchuk_readout(p, [(x - shift) / scale for x in lam],
                                                 [sum(abs(z) ** 2 for z in c) for c in comps]),
                "spectrum_map": [scale, shift]}

    psi = np.full(len(mat), 1.0 / math.sqrt(len(mat)), dtype=complex)
    want, bound = eigen_oracle(mat, numbers, lambda x: _readout_budget(p, edge, len(mat)), psi)
    out = rec["outputs"]
    assert sorted(out) == ["distribution", "estimate", "estimate_normalized", "raw_outcome",
                           "route", "saturated"]
    assert out["route"] == "fast" and rec["seed"] == args.seed
    _check_numbers({"distribution": out["distribution"]}, {"distribution": want["distribution"]},
                   {"distribution": bound["distribution"]})
    # the float cumulative sum moves by the bounds' total, its normalization and N + 1 roundings
    margin = 2 * sum(bound["distribution"]) + (p.n + 8) * U
    y = sampled_median(want["distribution"], args.seed, args.repeats, margin)
    assert (out["raw_outcome"], out["saturated"]) == (y, y >= p.n)
    est = math.sqrt(p.n / args.t) * math.asin(math.sqrt(y / p.n))
    assert abs(out["estimate_normalized"] - est) <= 8 * U * est
    (scale, shift), (d_scale, d_shift) = want["spectrum_map"], bound["spectrum_map"]
    assert abs(out["estimate"] - (scale * est + shift)) <= d_scale * est + d_shift + 16 * U * (
        scale * est + abs(shift))


def check_bench_qpe_error_golden(text):
    """A ``bench qpe-error`` golden text: each slow row's rms error against
    ``slow_rms_error`` (the exact pmf at 40 digits) within its first-order
    bound, each fast row's cost by the plan's formulas, and each series' slope
    refitted from the rows' own numbers at 40 digits, within 64 u."""
    lines = text.splitlines()
    records = [json.loads(line) for line in lines[-2:]]
    args = cli._build_parser().parse_args(records[0]["command"])
    ts = [float(t) for t in args.t.split(",")]
    assert lines[0] == "t,route,cost,rms_error" and len(lines) == 2 * len(ts) + 3
    series = {"slow": ([], []), "fast": ([], [])}
    for t, slow, fast in zip(ts, lines[1:-2:2], lines[2:-2:2]):
        row = slow.split(",")
        assert (float(row[0]), row[1], float(row[2])) == (t, "slow", t)
        want, bound = slow_rms_error(t, args.N_slow, 1.0)
        assert bound < 1e-12 and abs(float(row[3]) - want) <= bound, (t, row[3], want, bound)
        series["slow"][0].append(t)
        series["slow"][1].append(float(row[3]))
        row = fast.split(",")
        _, edge = _ff_plan(t, args.eps, args.N_fast)
        assert (float(row[0]), row[1], float(row[2])) == (t, "fast", edge)
        series["fast"][0].append(edge)
        series["fast"][1].append(float(row[3]))
    for rec, (name, target, tol) in zip(records, (("slow", -0.5, 0.1), ("fast", -1.0, 0.15))):
        out = rec["outputs"]
        assert abs(out["slope"] - _refit_slope(*series[name])) <= 64 * U, name
        assert {k: v for k, v in out.items() if k != "slope"} == {
            "suite": "qpe-error", "series": name, "target": target, "tolerance": tol,
            "pass": abs(out["slope"] - target) <= tol}
        assert (rec["cost"], rec["ham_digest"], rec["seed"]) == (None, None, None)


class TestReadoutGoldensAgainstOracles:
    """The two golden files the counting readouts write (``qpe --route fast
    --mode sample`` and ``bench qpe-error``), number by number against explicit
    sums: the Kravchuk sum over every address on mpmath's eigendecomposition,
    and the exact binomial pmf of each slow row."""

    @pytest.mark.parametrize("case, check", [("qpe_fast_sample", check_qpe_fast_sample_golden),
                                             ("bench_qpe_error", check_bench_qpe_error_golden)])
    def test_golden_matches_the_readout_oracle(self, monkeypatch, case, check):
        monkeypatch.chdir(ROOT)
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            check(fh.read())


class TestPlansOnceBeyondMemory:
    """Plans whose residue weights once needed more memory than the machine
    holds (268 GiB at eps = 1e-9, a count no array can index at 1e-150, 9.5e3
    GiB at t = 1024, eps = 1e-6): the closed-form kernel reads about
    sqrt(log(1/eps)) terms at any register count, so each call runs."""

    @pytest.mark.parametrize("t, eps", [("1024", "1e-6"), ("1", "1e-9"), ("1", "1e-150")])
    def test_ff_evolve_is_within_eps_of_the_exact_channel(self, monkeypatch, t, eps):
        # within eps, or within the kernel's rounding where eps is below it
        monkeypatch.chdir(ROOT)
        rc, out = invoke(["evolve", "--method", "ff", "--ham", H1, "--t", t, "--eps", eps,
                          "--state", "plus"])
        assert rc == 0
        outputs = json.loads(out)["outputs"]
        # the record's N is the plan's to the last digit: 1073741824000000000000 at t = 1024
        assert outputs["plan"]["N"] == lindbladff.plan(float(t), float(eps)).n
        got = parse_dense_matrix(outputs["rho_out"])
        want = lindblad_exact_general(lindblad_spec([_pauli_file(H1)]), np.full((2, 2), 0.5),
                                      float(t))
        assert trace_distance(got, want) <= max(float(eps), 16 * 2.0 ** -52)

    def test_gibbs_at_a_tiny_eps_runs(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        rc, out = invoke(["gibbs", "--ham", H2, "--beta", "1", "--eps", "1e-12"])
        assert rc == 0
        assert 1.0 - json.loads(out.splitlines()[0])["outputs"]["fidelity"] <= 1e-12


RECORD_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -4e-320,
                     1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True))
RECORD_ARRAYS = st.integers(1, 5).flatmap(lambda n: st.sampled_from([(n,), (1, n), (n, 1), (n, 2)])).flatmap(
    lambda shape: hnp.arrays(float, (*shape[:-1], 2 * shape[-1]), elements=RECORD_ENTRY)
).map(lambda re_im: re_im.view(complex))


class TestRecordSplice:
    @settings(max_examples=200, deadline=None, database=None)
    @given(arrays=st.dictionaries(st.sampled_from(["a", "reduced_state", "rho_out", "state"]),
                                  RECORD_ARRAYS, min_size=1),
           argv=st.lists(st.text(), max_size=3))
    def test_record_is_json_dumps_of_its_text(self, arrays, argv):
        # each array's text spliced in is json.dumps' own escape of it, whatever the
        # argv holds ("\0" and escapes among it) and wherever the keys sort
        argv = [*argv, "\0", '"\\u0000"']
        outputs = {"method": "exact", "note": "a\nb", **arrays, "z": [1.5, "\\u0000"]}
        line = b"".join(cli._record(argv, 0.0, outputs, "ab" * 32, 7))
        want = json.dumps({
            "artifact_version": lindbladff.__version__, "command": argv, "cost": None,
            "ham_digest": "ab" * 32, "seed": 7, "wall_time_s": json.loads(line)["wall_time_s"],
            "outputs": {k: model.format_dense_matrix(np.atleast_2d(v)).decode("ascii")
                        if isinstance(v, np.ndarray) else v for k, v in outputs.items()},
        }, sort_keys=True, separators=(",", ":"))
        assert line == want.encode()

    @pytest.mark.parametrize("argv", [
        ["qpe", "prepare", "--route", "fast", "--ham", H2, "--eigen", "1", "--t", "4", "--N", "64"],
        ["gibbs", "--ham", H2, "--beta", "1,2", "--eps", "0.05"],
        ["evolve", "--method", "choi-ff", "--jumps", "tests/data/jumps.txt", "--t", "1"],
    ])
    def test_result_arrays_splice_as_json_dumps(self, monkeypatch, argv):
        monkeypatch.chdir(ROOT)
        rc, out = invoke(argv)
        assert rc == 0
        records = [line for line in out.splitlines() if line.startswith("{")]
        assert records
        for line in records:
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


# ``python -m lindbladff.cli`` where scipy, a test extra only, cannot be imported:
# numpy is the one runtime dependency, so no route may need it
NUMPY_ONLY = ("import runpy, sys; sys.modules['scipy'] = None; "
              "runpy.run_module('lindbladff.cli', run_name='__main__', alter_sys=True)")


def main_process(argv):
    """``python -m lindbladff.cli argv``, scipy unimportable, in a fresh interpreter
    from the repo root, with stdout block-buffered into its pipe as in a plain shell."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", NUMPY_ONLY, *argv], cwd=ROOT,
                          env=dict(env, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)


def cut_fields(text, command=False):
    """The text with each record's wall_time_s (its last key) cut out, and its
    command too if asked; every other byte is kept."""
    text = re.sub(r',"wall_time_s":[-+.0-9e]+}$', "}", text, flags=re.M)
    return re.sub(r'"command":\[[^\]]*\],', "", text) if command else text


class TestMainProcess:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_record(self, case):
        done = main_process(GOLDEN[case])
        assert done.returncode == 0, done.stderr
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            assert cut_fields(done.stdout) == fh.read()

    @pytest.mark.parametrize("case", ["evolve_choi_ff", "qpe_fast_sample"])
    def test_out_file(self, tmp_path, case):
        path = tmp_path / "records.jsonl"
        done = main_process(["--out", str(path), *GOLDEN[case]])
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""
        with open(os.path.join(DATA, f"golden_{case}.jsonl")) as fh:
            want = fh.read()
        assert cut_fields(path.read_text(), command=True) == cut_fields(want, command=True)

    def test_missing_ham(self):
        done = main_process(["evolve", "--method", "ff", "--t", "1"])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: --ham FILE is required\n"

    @pytest.mark.parametrize("n", ["16", "20000"])
    def test_table_reaches_the_pipe_whole(self, n):
        # main() ends in os._exit, so it flushes stdout itself: the 342-byte
        # table waits in the buffer, the 282 KB one (past a pipe buffer) is
        # written through it
        argv = ["stateprep", "--what", "binomial", "--N", n]
        done = main_process(argv)
        assert done.returncode == 0, done.stderr
        rc, want = invoke(argv)
        assert rc == 0 and want.count("\n") == int(n) + 2
        assert done.stdout == want


class TestRealStream:
    def test_pipe_and_out_file_hold_the_redirected_bytes(self, tmp_path, monkeypatch, rng):
        # run() writing to a real stdout pipe and to a real file gives the bytes
        # it writes to a redirected sys.stdout: a 64-level dense Hamiltonian's
        # exact record, 100 KB, past a pipe buffer
        h = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        (tmp_path / "h64.dense").write_bytes(model.format_dense_matrix(h + h.conj().T))
        argv = ["evolve", "--method", "exact", "--ham", "h64.dense", "--t", "0.5",
                "--state", "basis:3"]
        # the children inherit this process's BLAS thread settings, so all three agree
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=SRC)
        piped = subprocess.run([sys.executable, "-m", "lindbladff.cli", *argv], cwd=tmp_path,
                               env=env, capture_output=True, timeout=120)
        filed = subprocess.run([sys.executable, "-m", "lindbladff.cli", "--out", "r.jsonl", *argv],
                               cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert (piped.returncode, piped.stderr, filed.returncode, filed.stdout) == (0, b"", 0, b"")
        monkeypatch.chdir(tmp_path)
        rc, redirected = invoke(argv)
        assert rc == 0 and len(redirected) > 100_000
        assert cut_fields(piped.stdout.decode("ascii")) == cut_fields(redirected)
        filed_text = (tmp_path / "r.jsonl").read_bytes().decode("ascii")
        assert cut_fields(filed_text, command=True) == cut_fields(redirected, command=True)


# A value for each option the generated refusal cases set; every path names no file
DECLARED_VALUES = {"--ham": "{tmp}/absent", "--jumps": "{tmp}/absent", "--oracle": "{tmp}/absent",
                   "--t": "4", "--N": "16", "--steps": "8", "--d": "3", "--eps": "0.001",
                   "--zeta": "0.1", "--eigen": "0", "--mode": "sample", "--repeats": "3",
                   "--seed": "2", "--mu": "8", "--sigma": "2", "--n": "3", "--witnesses": "1"}


def declared_cases():
    """(subcommand, option, mode, argv, refusal) for each option that a
    subcommand declares mode-specific (``cli._declare``), read from the
    parser: for each rule of the option, each value of the option that picks
    the mode, unset too.  The option's other rules are met, and so are those
    of each declared picker that is given.  ``refusal`` is the message the
    option must be refused with, or None where the mode reads it."""
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in subparsers.items():
        declared = parser.get_default("declared") or []
        rules_of = {dest: rules for dest, _, rules, _ in declared}
        filled = {dest: default for dest, _, _, default in declared}
        actions = {a.dest: a for a in parser._actions}
        for _, flag, rules, _ in declared:
            for picker, modes, _ in rules:
                action = actions[picker]
                shown = action.option_strings[0] if action.option_strings else name
                if isinstance(modes, str):  # read only while the picker is unset
                    values, refusal = [None, "given"], f"{flag} applies only without {shown}, {modes}"
                else:
                    values = [None] * (not action.required) + action.choices
                    refusal = f"{flag} applies only to {shown} {', '.join(modes)}"
                for value in values:
                    setting = {picker: value}
                    needs = [r for r in rules if r[0] != picker] + rules_of.get(picker, []) * bool(value)
                    while needs:
                        other, other_modes, _ = needs.pop()
                        if other not in setting:
                            setting[other] = None if isinstance(other_modes, str) else other_modes[0]
                            needs += rules_of.get(other, []) * bool(setting[other])
                    read = (value is None if isinstance(modes, str) else
                            (filled.get(picker, action.default) if value is None else value) in modes)
                    argv = [name]
                    for a in parser._actions:
                        given = setting.get(a.dest)
                        if given is None and a.required:  # --route, --what, --t, qpe's --ham
                            given = a.choices[0] if a.choices else "given"
                        if given == "given":
                            given = DECLARED_VALUES[a.option_strings[0]]
                        if given is not None:
                            argv += [*a.option_strings[:1], given]
                    yield (name, flag, f"{shown} {value or 'unset'}",
                           [*argv, flag, DECLARED_VALUES[flag]], None if read else refusal)


DECLARED_CASES = list(declared_cases())


class TestExitCodes:
    def test_unknown_subcommand(self):
        rc, _ = invoke(["frobnicate"])
        assert rc == 1

    def test_validation_error(self, capsys):
        rc, _ = invoke(["evolve", "--method", "ff", "--ham", HAM, "--t", "-1"])
        assert rc == 1

    def test_missing_ham(self, capsys):
        rc, _ = invoke(["evolve", "--method", "ff", "--t", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --ham FILE is required\n"

    def test_invariant_error_is_one_line_exit_2(self, monkeypatch, capsys):
        # a reported gap far above the true one makes the overlap bound unreachable
        monkeypatch.setattr(qpe, "spectral_gap", lambda ham, beta: 10.0)
        rc, out = invoke(["qpe", "prepare", "--route", "slow", "--ham", HAM, "--state", "plus",
                          "--eigen", "0", "--t", "1", "--N", "100"])
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert err.startswith("error: overlap") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("route", ("standard", "slow", "fast"))
    def test_zero_target_weight_is_exit_1(self, tmp_path, capsys, route):
        # basis:0 is |00>, the top eigenvector; eigenspace 0 is |11>
        ham = tmp_path / "h.pauli"
        ham.write_text("0.0 II\n1.0 ZI\n0.5 IZ\n")
        size = [] if route == "standard" else ["--t", "4", "--N", "64"]  # read by slow, fast
        rc, out = invoke(["qpe", "prepare", "--route", route, "--ham", str(ham),
                          "--state", "basis:0", "--eigen", "0", *size])
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == "error: state has no weight on eigenspace 0\n"

    @pytest.mark.parametrize("mode", ["estimate", "prepare"])
    def test_slow_route_without_n_is_exit_1(self, capsys, mode):
        rc, out = invoke(["qpe", mode, "--route", "slow", "--ham", HAM])
        err = capsys.readouterr().err
        assert rc == 1 and out == ""
        assert err == "error: --N is required for the slow route\n"

    @pytest.mark.parametrize("route, size", [("standard", ["--d", "40"]),
                                             ("slow", ["--N", str(10**12)]),
                                             ("fast", [])], ids=["standard", "slow", "fast"])
    def test_route_beyond_physical_memory_is_exit_1(self, capsys, route, size):
        # 8 bytes per outcome: 8 TiB at d = 40 and 7.3 TiB at N = 1e12; the fast
        # defaults t 16, eps 1e-4 plan N = 4.1e11: 16 bytes per count and level
        ham = os.path.join(DATA, "h_two_qubit.pauli")
        rc, out = invoke(["qpe", "--route", route, "--ham", ham, *size])
        err = capsys.readouterr().err
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {route} route needs") and err.count("\n") == 1
        assert "Traceback" not in err

    # Each case names a missing file, a file in a missing directory or a
    # malformed value; {tmp} is the test's own directory.
    EVOLVE = ["evolve", "--t", "1", "--method"]
    H2Q = os.path.join(DATA, "h_two_qubit.pauli")
    SAMPLE = ["qpe", "--route", "slow", "--ham", H2Q, "--N", "64", "--mode", "sample",
              "--repeats"]
    PREPARE = ["qpe", "prepare", "--route", "standard", "--ham", H2Q]
    MALFORMED = {
        "missing_ham": [*EVOLVE, "exact", "--ham", "{tmp}/missing.pauli"],
        "missing_jumps": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/missing.txt"],
        "missing_listed_jump": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/absent.txt"],
        "missing_state_file": [*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/missing"],
        "missing_oracle": ["ae-demo", "--oracle", "{tmp}/missing.txt"],
        "out_in_missing_dir": [*EVOLVE, "exact", "--ham", HAM],
        "basis_not_an_integer": [*EVOLVE, "exact", "--ham", HAM, "--state", "basis:x"],
        "rate_not_a_number": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/bad_rate.txt"],
        "rate_negative": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/negative_rate.txt"],
        "rate_not_finite": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/nan_rate.txt"],
        "oracle_not_digits": ["ae-demo", "--oracle", "{tmp}/bad_oracle.txt"],
        "oracle_empty": ["ae-demo", "--oracle", "{tmp}/empty_oracle.txt"],
        "oracle_value_not_0_or_1": ["ae-demo", "--oracle", "{tmp}/two_oracle.txt"],
        # the first n whose one-witness levels cluster with level 0
        "ae_n_beyond_cap": ["ae-demo", "--n", "59", "--witnesses", "1"],
        "ae_n_negative": ["ae-demo", "--n", "-1"],
        "witnesses_negative": ["ae-demo", "--n", "2", "--witnesses", "-1"],
        "witnesses_beyond_oracle": ["ae-demo", "--n", "2", "--witnesses", "9"],
        "runs_zero": ["ae-demo", "--runs", "0"],
        "eps_zero": [*EVOLVE, "dilated", "--ham", HAM, "--eps", "0"],
        "eps_nan": [*EVOLVE, "dilated", "--ham", HAM, "--eps", "nan"],
        "eps_negative": [*EVOLVE, "dilated", "--ham", HAM, "--eps", "-0.1"],
        "eps_squared_underflows": [*EVOLVE, "ff", "--ham", HAM, "--eps", "1e-200"],
        # one eps range for every method, whether or not it reads eps
        "eps_above_one_exact": [*EVOLVE, "exact", "--ham", HAM, "--eps", "1.5"],
        "eps_above_one_dilated": [*EVOLVE, "dilated", "--ham", HAM, "--eps", "1.5"],
        "eps_above_one_choi_ff": [*EVOLVE, "choi-ff", "--jumps", os.path.join(DATA, "jumps.txt"),
                                  "--eps", "1.5"],
        "sigma_nan": ["stateprep", "--what", "gaussian", "--sigma", "nan"],
        "mu_not_finite": ["stateprep", "--what", "gaussian", "--mu", "inf"],
        # one width rule: sigma^2 past any float used to end in an OverflowError
        "sigma_square_overflows_angles": ["stateprep", "--what", "angles", "--sigma", "1e200"],
        "sigma_square_overflows_gaussian": ["stateprep", "--what", "gaussian", "--sigma", "1e300"],
        # f(8.5, 1e-3) underflows to 0; the amplitudes used to print nan
        "lattice_sum_underflows": ["stateprep", "--what", "gaussian", "--N", "16", "--mu", "8.5",
                                   "--sigma", "1e-3"],
        "angles_n_not_a_power_of_two": ["stateprep", "--what", "angles", "--N", "48"],
        "repeats_beyond_memory": [*SAMPLE, "100000000000"],
        "repeats_zero": [*SAMPLE, "0"],
        "prepare_d_negative": [*PREPARE, "--d", "-1"],
        "prepare_d_zero": [*PREPARE, "--d", "0"],
        # past d = 51 the register's phases are noise, in estimation and preparation alike
        "standard_d_past_any_float": ["qpe", "--route", "standard", "--ham", H2Q, "--d", "2000"],
        "prepare_d_past_any_float": [*PREPARE, "--d", "2000"],
        "prepare_d_past_phase_rounding": [*PREPARE, "--d", "52"],
        "zeta_negative": ["qpe", "prepare", "--route", "fast", "--ham", H2Q, "--zeta", "-1"],
        # --zeta reads the target's weight, so the target is checked first
        "zeta_target_past_the_levels": ["qpe", "prepare", "--route", "fast", "--ham", H2Q,
                                        "--zeta", "0.1", "--eigen", "9"],
        "zeta_target_negative": ["qpe", "prepare", "--route", "fast", "--ham", H2Q,
                                 "--zeta", "0.1", "--eigen", "-1"],
        # inputs rejected where they are read: a 2^40 x 2^40 matrix, non-finite
        # numbers, a third jump-list column, and state files with no unit vector
        "pauli_too_wide": [*EVOLVE, "exact", "--ham", "{tmp}/wide.pauli"],
        # 16 4^600 bytes is past any float: the size is printed through Decimal
        "pauli_past_any_float": [*EVOLVE, "exact", "--ham", "{tmp}/wide600.pauli"],
        "coefficient_nan": [*EVOLVE, "exact", "--ham", "{tmp}/nan.pauli"],
        "coefficient_inf": [*EVOLVE, "exact", "--ham", "{tmp}/inf.pauli"],
        "rate_inf": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/inf_rate.txt"],
        "jump_line_extra_column": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/extra_column.txt"],
        "state_all_zero": [*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/zero.state"],
        "state_nan": [*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/nan.state"],
        "state_not_a_vector": [*EVOLVE, "exact", "--ham", H2Q, "--state", "file:{tmp}/matrix.state"],
        # comma lists, read by model.parse_number_list: finite numbers, integers for --N-grid
        "beta_not_a_number": ["gibbs", "--ham", H2Q, "--beta", "1,abc"],
        "n_grid_not_an_integer": ["bounds", "--N-grid", "1e3"],
        "n_grid_nan": ["bounds", "--N-grid", "nan"],
        "n_grid_inf": ["bounds", "--N-grid", "inf"],
        "c_grid_nan": ["bounds", "--c-grid", "nan"],
        "c_grid_inf": ["bounds", "--c-grid", "inf"],
        "n_grid_negative": ["bounds", "--N-grid", "-3"],
        # register-sized arrays past the physical memory (745 GiB and more)
        "n_grid_beyond_memory": ["bounds", "--N-grid", "100000000000"],
        "binomial_beyond_memory": ["stateprep", "--what", "binomial", "--N", "100000000000"],
        "gaussian_beyond_memory": ["stateprep", "--what", "gaussian", "--N", "100000000000"],
        "distance_beyond_memory": ["stateprep", "--what", "distance", "--N", "100000000000"],
        "angles_beyond_memory": ["stateprep", "--what", "angles", "--N", str(2 ** 40)],
        # bench slopes with fewer than two distinct positive points
        "qpe_error_eps_zero": ["bench", "qpe-error", "--eps", "0"],
        "qpe_error_eps_negative": ["bench", "qpe-error", "--eps", "-1"],
        "qpe_error_eps_nan": ["bench", "qpe-error", "--eps", "nan"],
        "qpe_error_eps_inf": ["bench", "qpe-error", "--eps", "inf"],
        "qpe_error_n_fast_zero": ["bench", "qpe-error", "--N-fast", "0"],
        "qpe_error_n_fast_negative": ["bench", "qpe-error", "--N-fast", "-1"],
        "gibbs_beta_zero": ["bench", "gibbs-beta", "--beta", "0"],
        "gibbs_beta_one_distinct": ["bench", "gibbs-beta", "--beta", "2,2"],
        "ff_vs_dilated_one_time": ["bench", "ff-vs-dilated", "--t", "4"],
        "steps_zero": [*EVOLVE, "dilated", "--ham", HAM, "--steps", "0"],
        # --N is read by ff alone and --steps by dilated alone
        "steps_with_exact": [*EVOLVE, "exact", "--ham", HAM, "--steps", "-5"],
        "steps_with_ff": [*EVOLVE, "ff", "--ham", HAM, "--steps", "0"],
        "steps_with_choi_ff": [*EVOLVE, "choi-ff", "--jumps", os.path.join(DATA, "jumps.txt"),
                               "--steps", "8"],
        "n_with_dilated": [*EVOLVE, "dilated", "--ham", HAM, "--N", "3"],
        "n_with_exact": [*EVOLVE, "exact", "--ham", HAM, "--N", "16"],
        "n_with_choi_ff": [*EVOLVE, "choi-ff", "--jumps", os.path.join(DATA, "jumps.txt"),
                           "--N", "16"],
        # one time rule, 0 < t < inf, for every method
        "t_zero_exact": ["evolve", "--t", "0", "--method", "exact", "--ham", HAM],
        "t_zero_dilated": ["evolve", "--t", "0", "--method", "dilated", "--ham", HAM],
        "t_zero_ff": ["evolve", "--t", "0", "--method", "ff", "--ham", HAM],
        "t_zero_choi_ff": ["evolve", "--t", "0", "--method", "choi-ff", "--jumps",
                           os.path.join(DATA, "jumps.txt")],
        "qpe_seed_negative": [*SAMPLE, "3", "--seed", "-1"],
        "ae_seed_negative": ["ae-demo", "--seed", "-1"],
        # refusals of a spec, a shape or a size that no other case reaches
        "state_unknown_spec": [*EVOLVE, "exact", "--ham", HAM, "--state", "bogus"],
        "choi_ff_without_jumps": [*EVOLVE, "choi-ff"],
        "slow_n_below_estimator_range": ["qpe", "--route", "slow", "--ham", HAM, "--t", "16",
                                         "--N", "1"],
        "oracle_not_a_power_of_two": ["ae-demo", "--oracle", "{tmp}/three_oracle.txt"],
        # an oracle file sets --n and --witnesses; binomial and distance read no --mu, --sigma
        "n_with_oracle": ["ae-demo", "--oracle", "{tmp}/oracle.txt", "--n", "2"],
        "witnesses_with_oracle": ["ae-demo", "--oracle", "{tmp}/oracle.txt", "--witnesses", "1"],
        "mu_with_binomial": ["stateprep", "--what", "binomial", "--N", "4", "--mu", "99"],
        "sigma_with_binomial": ["stateprep", "--what", "binomial", "--sigma", "2"],
        "mu_with_distance": ["stateprep", "--what", "distance", "--mu", "8"],
        "sigma_with_distance": ["stateprep", "--what", "distance", "--N", "4", "--sigma", "1"],
        # each qpe route refuses the options only the others read
        "t_with_standard": ["qpe", "--route", "standard", "--ham", H2Q, "--t", "99"],
        "n_with_standard": ["qpe", "--route", "standard", "--ham", H2Q, "--N", "7"],
        "eps_with_standard": ["qpe", "--route", "standard", "--ham", H2Q, "--eps", "1e-3"],
        "zeta_with_standard": [*PREPARE, "--zeta", "0.1"],
        "d_with_slow": ["qpe", "--route", "slow", "--ham", H2Q, "--t", "4", "--N", "64", "--d", "3"],
        "d_with_fast": ["qpe", "--route", "fast", "--ham", H2Q, "--N", "64", "--d", "3"],
        "eps_with_slow": ["qpe", "--route", "slow", "--ham", H2Q, "--N", "64", "--eps", "1e-3"],
        "zeta_with_slow": ["qpe", "prepare", "--route", "slow", "--ham", H2Q, "--N", "64",
                           "--zeta", "0.1"],
        "gibbs_dim_not_a_power_of_two": ["gibbs", "--ham", "{tmp}/three.dense"],
        # an empty path is given, like any other, and names no file
        "oracle_path_empty": ["ae-demo", "--oracle", ""],
        "out_path_empty": ["--out", "", "stateprep", "--what", "binomial", "--N", "4"],
        "jumps_of_mixed_dims": [*EVOLVE, "choi-ff", "--jumps", "{tmp}/mixed_dims.txt"],
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_exit_1(self, tmp_path, capsys, case):
        (tmp_path / "z.pauli").write_text("1.0 Z\n")
        (tmp_path / "absent.txt").write_text("absent.pauli 0.5\n")
        (tmp_path / "bad_rate.txt").write_text("z.pauli abc\n")
        (tmp_path / "negative_rate.txt").write_text("z.pauli -0.5\n")
        (tmp_path / "nan_rate.txt").write_text("z.pauli nan\n")
        (tmp_path / "bad_oracle.txt").write_text("0 1 x 1\n")
        (tmp_path / "empty_oracle.txt").write_text("")
        (tmp_path / "two_oracle.txt").write_text("2 0 0 0\n")
        (tmp_path / "wide.pauli").write_text("1.0 " + "Z" * 40 + "\n")
        (tmp_path / "wide600.pauli").write_text("1.0 " + "Z" * 600 + "\n")
        (tmp_path / "nan.pauli").write_text("nan Z\n")
        (tmp_path / "inf.pauli").write_text("inf XZ\n1 ZZ\n")
        (tmp_path / "inf_rate.txt").write_text("z.pauli inf\n")
        (tmp_path / "extra_column.txt").write_text("z.pauli 0.5 extra\n")
        (tmp_path / "zero.state").write_text("0,0 0,0\n")
        (tmp_path / "nan.state").write_text("nan,0 0,0\n")
        (tmp_path / "matrix.state").write_text("1,0 0,0\n0,0 0,0\n")
        (tmp_path / "three_oracle.txt").write_text("0 1 0\n")
        (tmp_path / "oracle.txt").write_text("0 1 0 0\n")
        (tmp_path / "three.dense").write_text("1,0 0,0 0,0\n0,0 2,0 0,0\n0,0 0,0 3,0\n")
        (tmp_path / "zz.pauli").write_text("1.0 ZZ\n")
        (tmp_path / "mixed_dims.txt").write_text("z.pauli 0.5\nzz.pauli 0.5\n")
        inputs = sorted(os.listdir(tmp_path))
        out = "{tmp}/no/out.jsonl" if case == "out_in_missing_dir" else "{tmp}/out.jsonl"
        argv = ["--out", out, *self.MALFORMED[case]]
        rc, stdout = invoke([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 1 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("case", ("zeta_target_past_the_levels", "zeta_target_negative"))
    def test_zeta_target_out_of_range_is_named(self, capsys, case):
        # unchecked, --eigen 9 ended in an IndexError where --zeta read its weight
        rc, stdout = invoke(self.MALFORMED[case])
        eigen = self.MALFORMED[case][-1]
        assert (rc, stdout) == (1, "")
        assert capsys.readouterr().err == f"error: eigenspace index {eigen} out of range\n"

    def test_pauli_size_past_any_float_is_printed(self, tmp_path, capsys):
        # the machine's memory ends the line, so the size alone is pinned
        (tmp_path / "wide600.pauli").write_text("1.0 " + "Z" * 600 + "\n")
        rc, stdout = invoke([arg.replace("{tmp}", str(tmp_path))
                             for arg in self.MALFORMED["pauli_past_any_float"]])
        assert (rc, stdout) == (1, "")
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'wide600.pauli'}: Pauli sum needs 2.57e+353 GiB of dense matrix "
            f"at 600 qubits, more than the ")

    @pytest.mark.parametrize("argv, message", [
        (["ae-demo", "--oracle", "{tmp}", "--n", "2"],
         "--n applies only without --oracle, whose file sets it"),
        (["ae-demo", "--witnesses", "0", "--oracle", "{tmp}"],
         "--witnesses applies only without --oracle, whose file sets it"),
        (["stateprep", "--what", "binomial", "--N", "4", "--mu", "99"],
         "--mu applies only to --what gaussian, angles"),
        (["stateprep", "--what", "distance", "--sigma", "2"],
         "--sigma applies only to --what gaussian, angles"),
        (["qpe", "--route", "standard", "--ham", HAM, "--d", "3", "--t", "99", "--N", "7"],
         "--t applies only to --route slow, fast"),
        (["qpe", "--route", "standard", "--ham", HAM, "--N", "7"],
         "--N applies only to --route slow, fast"),
        (["qpe", "--route", "slow", "--ham", HAM, "--d", "3", "--t", "4", "--N", "64"],
         "--d applies only to --route standard"),
        (["qpe", "--route", "slow", "--ham", HAM, "--N", "64", "--eps", "1e-3"],
         "--eps applies only to --route fast"),
        (["qpe", "prepare", "--route", "slow", "--ham", HAM, "--N", "64", "--zeta", "0.1"],
         "--zeta applies only to --route fast"),
    ])
    def test_option_its_mode_does_not_read_is_refused(self, tmp_path, capsys, argv, message):
        oracle = tmp_path / "oracle.txt"
        oracle.write_text("0 1 0 0\n")
        rc, out = invoke([str(oracle) if arg == "{tmp}" else arg for arg in argv])
        assert (rc, out, capsys.readouterr().err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, default", [
        (["ae-demo", "--oracle", "{tmp}", "--runs", "2"], ["ae-demo", "--n", "2", "--witnesses", "1",
                                                          "--runs", "2"]),
        (["ae-demo", "--runs", "2"], ["ae-demo", "--n", "4", "--witnesses", "0", "--runs", "2"]),
        (["stateprep", "--what", "angles"], ["stateprep", "--what", "angles", "--mu", "8",
                                             "--sigma", "2"]),
        (["stateprep", "--what", "gaussian"], ["stateprep", "--what", "gaussian", "--mu", "8",
                                               "--sigma", "2"]),
        (["qpe", "--route", "standard", "--ham", HAM], ["qpe", "--route", "standard", "--ham", HAM,
                                                        "--d", "8"]),
        (["qpe", "--route", "slow", "--ham", HAM, "--N", "64"],
         ["qpe", "--route", "slow", "--ham", HAM, "--N", "64", "--t", "16"]),
        (["qpe", "--route", "fast", "--ham", HAM, "--N", "64"],
         ["qpe", "--route", "fast", "--ham", HAM, "--N", "64", "--t", "16", "--eps", "1e-4"]),
        (["qpe", "prepare", "--route", "standard", "--ham", HAM],
         ["qpe", "prepare", "--route", "standard", "--ham", HAM, "--eigen", "0", "--d", "8"]),
        (["qpe", "--route", "standard", "--ham", HAM, "--d", "3"],
         ["qpe", "--route", "standard", "--ham", HAM, "--d", "3", "--mode", "exact"]),
        (["qpe", "--route", "slow", "--ham", HAM, "--N", "64", "--mode", "sample", "--seed", "1"],
         ["qpe", "--route", "slow", "--ham", HAM, "--N", "64", "--mode", "sample", "--seed", "1",
          "--repeats", "1"]),
    ])
    def test_unset_option_takes_its_default(self, tmp_path, argv, default):
        oracle = tmp_path / "oracle.txt"
        oracle.write_text("0 1 0 0\n")
        rc, out = invoke([str(oracle) if arg == "{tmp}" else arg for arg in argv])
        assert rc == 0
        want = invoke(default)[1]
        # the records differ in their command and wall time alone
        assert cut_fields(out, command=True) == cut_fields(want, command=True)

    @pytest.mark.parametrize("argv, refusal", [case[3:] for case in DECLARED_CASES],
                             ids=[f"{name} {flag} {mode}" for name, flag, mode, *_ in DECLARED_CASES])
    def test_option_is_refused_where_its_mode_does_not_read_it(self, tmp_path, capsys, argv,
                                                               refusal):
        # every file path names no file: a refused option is refused before any is opened
        rc, out = invoke([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        err = capsys.readouterr().err
        if refusal is None:
            assert "applies only" not in err, err
        else:
            assert (rc, out, err) == (1, "", f"error: {refusal}\n")

    def test_every_declared_option_is_read_and_refused(self):
        # 17 declared: 4 in evolve, 9 in qpe, 2 in ae-demo and 2 in stateprep
        cases = {(name, flag, refusal is None) for name, flag, _, _, refusal in DECLARED_CASES}
        declared = {(name, flag) for name, flag, *_ in DECLARED_CASES}
        assert len(declared) == 17 and len(cases) == 2 * len(declared), sorted(cases)

    @pytest.mark.parametrize("method", ["exact", "dilated", "ff", "choi-ff"])
    def test_every_evolve_method_refuses_eps_alike(self, capsys, method):
        source = (["--jumps", os.path.join(DATA, "jumps.txt")] if method == "choi-ff"
                  else ["--ham", HAM])
        rc, out = invoke([*self.EVOLVE, method, *source, "--eps", "1.5"])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == "error: --eps must lie in (0, 1), got 1.5\n"

    @pytest.mark.parametrize("method", ["exact", "dilated", "ff", "choi-ff"])
    @pytest.mark.parametrize("flag, reader", [("--N", "ff"), ("--steps", "dilated")])
    def test_count_flag_names_the_method_that_reads_it(self, capsys, method, flag, reader):
        source = (["--jumps", os.path.join(DATA, "jumps.txt")] if method == "choi-ff"
                  else ["--ham", HAM])
        rc, out = invoke([*self.EVOLVE, method, *source, flag, "16"])
        if method == reader:
            assert rc == 0 and json.loads(out)["cost"]["hamiltonian_time"] > 0
        else:
            assert (rc, out) == (1, "")
            assert capsys.readouterr().err == f"error: {flag} applies only to --method {reader}\n"

    @pytest.mark.parametrize("method", ["exact", "dilated", "ff", "choi-ff"])
    def test_file_flag_names_the_methods_that_read_it(self, tmp_path, capsys, method):
        # the flag is refused before its file is opened: none exists at that path
        flag, readers = (("--ham", "exact, dilated, ff") if method == "choi-ff"
                         else ("--jumps", "choi-ff"))
        source = (["--jumps", os.path.join(DATA, "jumps.txt")] if method == "choi-ff"
                  else ["--ham", HAM])
        rc, out = invoke([*self.EVOLVE, method, *source, flag, str(tmp_path / "absent")])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == f"error: {flag} applies only to --method {readers}\n"

    # A malformed file for each reader, and the file its error must name.
    NAMED = {
        "ham": ([*EVOLVE, "exact", "--ham", "{tmp}/bad.pauli"], "bad.pauli"),
        "jump_list": ([*EVOLVE, "choi-ff", "--jumps", "{tmp}/bad_rate.txt"], "bad_rate.txt"),
        "listed_jump": ([*EVOLVE, "choi-ff", "--jumps", "{tmp}/jbad.txt"], "bad.pauli"),
        "state": ([*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/bad.state"],
                  "bad.state"),
        "oracle": (["ae-demo", "--oracle", "{tmp}/bad.oracle"], "bad.oracle"),
    }

    @pytest.mark.parametrize("case", sorted(NAMED))
    def test_parse_error_names_its_file(self, tmp_path, capsys, case):
        (tmp_path / "z.pauli").write_text("1.0 Z\n")
        (tmp_path / "bad.pauli").write_text("# a letter that is no Pauli\n1.0 Q\n")
        (tmp_path / "bad_rate.txt").write_text("z.pauli 0.5\nz.pauli abc\n")
        (tmp_path / "jbad.txt").write_text("z.pauli 0.5\nbad.pauli 0.5\n")
        (tmp_path / "bad.state").write_text("# amplitudes\n1,0 x\n")
        (tmp_path / "bad.oracle").write_text("0 1\n1 x\n")
        argv, name = self.NAMED[case]
        rc, out = invoke([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {tmp_path / name}: line 2: ") and err.count("\n") == 1, err

    # A file with a byte that is not UTF-8 for each reader, the file its error
    # must name and the offset of that byte.
    NOT_UTF8 = {
        "dense_ham": ([*EVOLVE, "exact", "--ham", "{tmp}/bad.dense"], "bad.dense", 24),
        "pauli_ham": ([*EVOLVE, "exact", "--ham", "{tmp}/bad.pauli"], "bad.pauli", 5),
        "jump_list": ([*EVOLVE, "choi-ff", "--jumps", "{tmp}/bad.txt"], "bad.txt", 12),
        "listed_jump": ([*EVOLVE, "choi-ff", "--jumps", "{tmp}/jbad.txt"], "bad.pauli", 5),
        "state": ([*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/bad.state"],
                  "bad.state", 4),
        "oracle": (["ae-demo", "--oracle", "{tmp}/bad.oracle"], "bad.oracle", 2),
    }

    @pytest.mark.parametrize("case", sorted(NOT_UTF8))
    def test_file_that_is_not_utf8_names_its_byte(self, tmp_path, capsys, case):
        (tmp_path / "z.pauli").write_text("1.0 Z\n")
        (tmp_path / "bad.dense").write_bytes(b"1.0,0.0 0.0,0.0\n0.0,0.0 \xff1.0,0.0\n")
        (tmp_path / "bad.pauli").write_bytes(b"1.0 Z\xe9\n")
        (tmp_path / "bad.txt").write_bytes(b"z.pauli 0.5\n\xfez.pauli\n")
        (tmp_path / "jbad.txt").write_text("z.pauli 0.5\nbad.pauli 0.5\n")
        (tmp_path / "bad.state").write_bytes(b"0.6,\xc00 0,0.8\n")
        (tmp_path / "bad.oracle").write_bytes(b"0 \x801\n")
        argv, name, offset = self.NOT_UTF8[case]
        rc, out = invoke([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert (rc, out) == (1, "")
        assert capsys.readouterr().err == f"error: {tmp_path / name}: byte {offset}: not UTF-8 text\n"

    # A check made after a parse, and the file and message its error must name.
    CHECKED = {
        "state_size": ([*EVOLVE, "exact", "--ham", HAM, "--state", "file:{tmp}/three.state"],
                       "three.state", "state file has 3 amplitudes, expected 2"),
        "empty_jump_list": ([*EVOLVE, "choi-ff", "--jumps", "{tmp}/ej.txt"], "ej.txt",
                            "empty jump list"),
    }

    @pytest.mark.parametrize("case", sorted(CHECKED))
    def test_check_after_parse_names_its_file(self, tmp_path, capsys, case):
        (tmp_path / "three.state").write_text("1,0 0,0 0,0\n")
        (tmp_path / "ej.txt").write_text("# no jump listed\n")
        argv, name, message = self.CHECKED[case]
        rc, out = invoke([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert rc == 1 and out == ""
        assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"

    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["exact", "dilated", "ff", "choi-ff"])
    def test_non_finite_time_is_exit_1(self, capsys, method, t):
        source = (["--jumps", os.path.join(DATA, "jumps.txt")] if method == "choi-ff"
                  else ["--ham", HAM])
        rc, out = invoke(["evolve", "--method", method, *source, "--t", t])
        err = capsys.readouterr().err
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_large_default_step_count_runs(self):
        # default steps 64^3 / 0.1^2 = 2.6e7; the closed-form composition
        # costs the same at any step count
        argv = ["evolve", "--method", "dilated", "--ham", HAM, "--t", "64", "--eps", "0.1"]
        rc, out = invoke(argv)
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["cost"]["step_count"] == 26_214_400
        rho = parse_dense_matrix(rec["outputs"]["rho_out"])
        rc, out = invoke(["evolve", "--method", "exact", "--ham", HAM, "--t", "64"])
        exact = parse_dense_matrix(json.loads(out.splitlines()[0])["outputs"]["rho_out"])
        assert trace_distance(rho, exact) <= 0.1


class _CallTooSlow(BaseException):
    """Raised by the sweep's timer; a BaseException, so ``run`` lets it through."""


def _too_slow(signum, frame):
    raise _CallTooSlow


class TestNumericOptionSweep:
    """Every numeric option of one base call per call shape, set to 0, -1, nan
    and inf: each call exits 0 or 1, prints no traceback or warning, and a
    call that succeeds prints no nan."""

    H2Q = os.path.join(DATA, "h_two_qubit.pauli")
    EVOLVE = ["evolve", "--ham", HAM, "--t", "1", "--method"]
    ESTIMATE = ["qpe", "--ham", H2Q, "--mode", "sample", "--seed", "1", "--route"]
    PREPARE = ["qpe", "prepare", "--ham", H2Q, "--eigen", "1", "--route"]
    SHAPES = {
        "evolve_ff": ([*EVOLVE, "ff"], "--t --eps --N"),
        "evolve_dilated": ([*EVOLVE, "dilated"], "--t --eps --steps"),
        "evolve_exact": ([*EVOLVE, "exact"], "--t"),
        "evolve_choi_ff": (["evolve", "--method", "choi-ff", "--jumps",
                            os.path.join(DATA, "jumps.txt"), "--t", "1"], "--t --eps"),
        "estimate_standard": ([*ESTIMATE, "standard", "--d", "4"], "--d --repeats --seed"),
        "estimate_slow": ([*ESTIMATE, "slow", "--t", "4", "--N", "64"], "--t --N --repeats"),
        "estimate_fast": ([*ESTIMATE, "fast", "--t", "4", "--N", "64"],
                          "--t --N --eps --repeats"),
        "prepare_standard": ([*PREPARE, "standard", "--d", "4"], "--d --eigen"),
        "prepare_slow": ([*PREPARE, "slow", "--t", "16", "--N", "256"], "--t --N --eigen"),
        "prepare_fast": ([*PREPARE, "fast", "--t", "4", "--N", "64"],
                         "--t --N --eps --eigen --zeta"),
        "gibbs": (["gibbs", "--ham", H2Q, "--beta", "1,2"], "--beta --eps"),
        "ae_demo": (["ae-demo", "--n", "3", "--witnesses", "1", "--N", "256"],
                    "--n --witnesses --runs --t --N --eps --seed"),
        "stateprep_binomial": (["stateprep", "--what", "binomial"], "--N"),
        "stateprep_gaussian": (["stateprep", "--what", "gaussian"], "--N --mu --sigma"),
        "stateprep_angles": (["stateprep", "--what", "angles"], "--N --mu --sigma"),
        "stateprep_distance": (["stateprep", "--what", "distance"], "--N"),
        "bounds": (["bounds"], "--N-grid --p-grid --c-grid"),
        "bench_ff_vs_dilated": (["bench", "ff-vs-dilated", "--t", "1,2,4"], "--t --eps"),
        "bench_qpe_error": (["bench", "qpe-error", "--t", "16,32", "--N-slow", "10000"],
                            "--t --eps --N-slow --N-fast"),
        "bench_gibbs_beta": (["bench", "gibbs-beta", "--beta", "1,2"], "--beta --eps"),
    }
    SECONDS_PER_CALL = 10

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_edge_values_exit_cleanly(self, capfd, shape):
        base, options = self.SHAPES[shape]
        faults = []
        previous = signal.signal(signal.SIGALRM, _too_slow)
        try:
            for option in options.split():
                for value in ("0", "-1", "nan", "inf"):
                    argv = [*base, option, value]  # the last occurrence wins
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        signal.alarm(self.SECONDS_PER_CALL)
                        try:
                            rc, out = invoke(argv)
                        except _CallTooSlow:
                            rc, out = "timeout", ""
                        finally:
                            signal.alarm(0)
                    err = capfd.readouterr().err + "".join(map(str, caught))
                    if (rc not in (0, 1) or "Traceback" in err or "Warning" in err or caught
                            or rc == 0 and re.search(r"\bnan\b", out, re.IGNORECASE)):
                        faults.append(f"{option} {value}: exit {rc}, {err.strip()[-300:]!r}")
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert not faults, "\n".join(faults)


# Jump files whose scaled jumps commute and have norm <= 1 at every rate drawn
JUMP_FILES = {"zi.pauli": "0.5 ZI\n", "iz.pauli": "1.0 IZ\n", "zz.pauli": "# shared\n-0.75 ZZ\n"}


@st.composite
def jump_lists(draw):
    """Jump lists with comments, blank lines, tabs and default rates."""
    space = st.sampled_from([" ", "\t", " \t ", "   "])
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# comment", "\t# zi.pauli 0.5"])))
        rate = draw(st.sampled_from(["", "0", "0.25", ".5", "1", "1.0", "1e-1", "5E-1", "0.999"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(sorted(JUMP_FILES)))
                     + (draw(space) + rate if rate else "")
                     + draw(st.sampled_from(["", " ", "\t", " # trailing", "#0.5"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestJumpListFile:
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=jump_lists())
    def test_generated_list_keeps_pairs_and_digest(self, tmp_path, text):
        for name, body in JUMP_FILES.items():
            (tmp_path / name).write_text(body)
        path = tmp_path / "jumps.txt"
        path.write_text(text)
        pairs, digest = line_by_line_jump_list(str(path))
        assert model.parse_jump_list(text) == pairs
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", str(path), "--t", "1",
                          "--eps", "0.1"])
        assert rc == 0 and json.loads(out)["ham_digest"] == digest


class TestSubcommands:
    def test_qpe_estimate_standard(self):
        rc, out = invoke(["qpe", "--route", "standard", "--ham", HAM,
                          "--state", "basis:1", "--d", "3"])
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["outputs"]["route"] == "standard"
        assert np.isclose(sum(rec["outputs"]["distribution"]), 1.0, atol=1e-9)

    def test_qpe_prepare_slow(self):
        rc, out = invoke(["qpe", "prepare", "--route", "slow", "--ham", HAM,
                          "--eigen", "0", "--t", "16", "--N", "10000"])
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["outputs"]["overlap"] >= rec["outputs"]["overlap_bound"] - 1e-4

    @pytest.mark.parametrize("route", ("standard", "slow", "fast"))
    def test_qpe_prepare_vacuous_bound_is_json(self, route):
        # zeta = 1/4 >= 1/6 leaves the fast route's 1 - 6 zeta chain vacuous;
        # each route is given the options it reads
        reads = {"standard": [], "slow": ["--t", "4", "--N", "64"],
                 "fast": ["--t", "4", "--N", "64", "--zeta", "0.25"]}[route]
        rc, out = invoke(["qpe", "prepare", "--route", route, "--ham", HAM, "--state", "plus",
                          "--eigen", "0", *reads])
        assert rc == 0

        def finite_only(name):
            raise ValueError(f"non-finite constant {name}")

        rec = json.loads(out.splitlines()[0], parse_constant=finite_only)
        if route == "fast":
            assert rec["outputs"]["overlap_bound"] == 0.0

    @pytest.mark.parametrize("route, n", (("slow", "1"), ("fast", "2")))
    def test_subnormal_time_reads_count_zero_as_zero(self, route, n):
        # N/t overflows at t = 5e-324: count 0 once read inf * 0, a bare NaN
        # in the record and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = invoke(["qpe", "--route", route, "--ham", HAM, "--state", "basis:0",
                              "--t", "5e-324", "--N", n])
        assert rc == 0

        def finite_only(name):
            raise ValueError(f"non-finite constant {name}")

        outputs = json.loads(out.splitlines()[0], parse_constant=finite_only)["outputs"]
        assert (outputs["raw_outcome"], outputs["estimate_normalized"]) == (0, 0.0)

    @pytest.mark.parametrize("argv", (["qpe", "--route", "slow", "--N", "2"],
                                      ["qpe", "--route", "fast", "--N", "2"],
                                      ["evolve", "--method", "dilated", "--steps", "2"],
                                      ["evolve", "--method", "ff", "--N", "2"]))
    def test_subnormal_time_is_priced_above_zero(self, argv):
        # t / N underflows to 0 at t = 5e-324, where the cost once read 0.0
        rc, out = invoke(argv + ["--ham", HAM, "--t", "5e-324"])
        assert rc == 0
        assert json.loads(out.splitlines()[0])["cost"]["hamiltonian_time"] > 0.0

    @pytest.mark.parametrize("cmd", (["qpe", "--route", "fast"], ["evolve", "--method", "ff"]))
    def test_subnormal_eps_is_one_error_line(self, cmd):
        # 2 / eps overflows: the plan once raised OverflowError, exit 2 and a traceback
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = invoke(cmd + ["--ham", HAM, "--t", "1", "--N", "64", "--eps", "5e-324"])
        assert (rc, out) == (1, "")
        assert err.getvalue() == "error: target error 5e-324 overflows the window's ln(2 / eps)\n"

    @pytest.mark.parametrize("ham, eigen, overlap, bound", [
        (HAM, "0", 1.0, 0.9997559189650964),
        (os.path.join(DATA, "h_two_qubit.pauli"), "1", 0.9968351152614887, 0.9872529413969969),
    ])
    def test_standard_prepare_filters_the_farthest_level(self, ham, eigen, overlap, bound):
        # the shifted spectrum is halved into [-1/2, 1/2], so the level the
        # shift put at +-1 no longer aliases with the target at phase 0 mod 1
        rc, out = invoke(["qpe", "prepare", "--route", "standard", "--ham", ham,
                          "--state", "plus", "--eigen", eigen, "--d", "6"])
        assert rc == 0
        outputs = json.loads(out.splitlines()[0])["outputs"]
        assert outputs["overlap"] == pytest.approx(overlap, abs=1e-12)
        assert outputs["overlap_bound"] == pytest.approx(bound, abs=1e-12)
        assert outputs["overlap"] >= outputs["overlap_bound"]

    def test_gibbs_out_file_holds_records_then_csv(self, tmp_path):
        # the sweep's CSV rows follow its records into the one --out file,
        # and a sweep that fails part way writes no file at all
        path = tmp_path / "sweep.jsonl"
        argv = ["gibbs", "--ham", HAM, "--eps", "0.05", "--beta"]
        rc, out = invoke(["--out", str(path), *argv, "1,2"])
        assert rc == 0 and out == ""
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        records = [json.loads(line)["outputs"] for line in lines[:2]]
        assert lines[2] == "beta,hamiltonian_time,fidelity,partition_estimate,partition_exact"
        for rec, row in zip(records, lines[3:]):
            beta, _, fidelity, estimate, exact = row.split(",")
            assert (float(beta), float(fidelity)) == (rec["beta"], rec["fidelity"])
            assert (float(estimate), float(exact)) == (rec["partition_estimate"],
                                                       rec["partition_exact"])
        failed = tmp_path / "failed.jsonl"
        rc, out = invoke(["--out", str(failed), *argv, "1,-1"])
        assert rc == 1 and out == ""
        assert not failed.exists()

    def test_ae_demo(self):
        rc, out = invoke(["ae-demo", "--n", "3", "--witnesses", "2", "--runs", "3",
                          "--t", "100", "--N", "512", "--seed", "1"])
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert np.isclose(rec["outputs"]["amplitude"], 0.5)
        assert rec["outputs"]["accuracy"] >= 2 / 3

    def test_ae_demo_builds_problem_once(self, monkeypatch):
        # the runs sample the counts (and decisions) of the per-run
        # implementation the problem cache replaced; the phases are those of
        # the closed-form levels, within 1e-15 of the dense iterate logarithm's
        runs = (
            (13, "0.32715510755782606"), (16, "0.41845933495677246"),
            (19, "0.5015961867149555"), (14, "0.3586524281077279"), (0, "-0.5053605102841573"),
            (0, "-0.5053605102841573"), (0, "-0.5053605102841573"), (24, "0.6268252863111013"),
            (0, "-0.5053605102841573"), (0, "-0.5053605102841573"), (21, "0.5534416965239127"),
            (21, "0.5534416965239127"))
        want = (
            '{"artifact_version":"0.1.0","command":["ae-demo","--n","4","--witnesses","1",'
            '"--runs","12","--N","2048","--seed","7"],"cost":null,"ham_digest":null,'
            '"outputs":{"accuracy":1.0,"amplitude":0.25,"runs":['
            + ",".join('{"correct":true,"decided_zero":false,"estimate_phase":%s}' % v
                       for _, v in runs)
            + '],"threshold":0.25268025514207865,"witness_count":1},"seed":7}\n'
        )
        calls = []
        original = cli.amplitude_problem

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        decisions = []
        decide = cli.decide_amplitude

        def recorded(*args, **kwargs):
            decisions.append(decide(*args, **kwargs))
            return decisions[-1]

        monkeypatch.setattr(cli, "amplitude_problem", counted)
        monkeypatch.setattr(cli, "decide_amplitude", recorded)
        rc, out = invoke(["ae-demo", "--n", "4", "--witnesses", "1", "--runs", "12",
                          "--N", "2048", "--seed", "7"])
        assert rc == 0 and len(calls) == 1
        assert [(d.estimation.raw_outcome, d.decided_zero, d.correct) for d in decisions] == [
            (raw, False, True) for raw, _ in runs]
        assert strip_wall_time(out) == want

    def test_stateprep_tables(self):
        rc, out = invoke(["stateprep", "--what", "binomial", "--N", "2"])
        assert rc == 0
        rows = out.splitlines()
        assert rows[0] == "m,amplitude"
        assert len(rows) == 4
        rc, out = invoke(["stateprep", "--what", "angles", "--N", "16",
                          "--mu", "8", "--sigma", "2"])
        assert rc == 0
        level0 = out.splitlines()[1].split(",")
        assert math.isclose(float(level0[2]), math.pi / 4, abs_tol=1e-6)

    def test_bounds_grid(self):
        rc, out = invoke(["bounds", "--N-grid", "10", "--p-grid", "0.5",
                          "--c-grid", "0.3"])
        assert rc == 0
        rows = out.splitlines()
        assert rows[0].startswith("N,p,c,exact_tail")
        fields = rows[1].split(",")
        assert math.isclose(float(fields[3]), 0.109375, abs_tol=1e-12)

    def test_choi_ff_jump_list(self, tmp_path):
        z = tmp_path / "z.pauli"
        z.write_text("1.0 Z\n")
        x = tmp_path / "x.pauli"
        x.write_text("1.0 X\n")
        jumps = tmp_path / "jumps.txt"
        jumps.write_text("z.pauli 0.5\nx.pauli 0.25\n")
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", str(jumps),
                          "--t", "1", "--eps", "0.01"])
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["outputs"]["choi_commuting"] is True

    @pytest.mark.parametrize("second, code", [("1.0 X", 0), ("0.6 X\n0.8 Z", 1)])
    def test_choi_ff_checks_commutation_once(self, tmp_path, monkeypatch, second, code):
        (tmp_path / "z.pauli").write_text("1.0 Z\n")
        (tmp_path / "b.pauli").write_text(second + "\n")
        jumps = tmp_path / "jumps.txt"
        jumps.write_text("z.pauli 0.5\nb.pauli 0.25\n")
        calls = []
        original = choi.is_choi_commuting

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(choi, "is_choi_commuting", counted)
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", str(jumps),
                          "--t", "1", "--eps", "0.01"])
        assert rc == code and len(calls) == 1
        if code == 0:
            outputs = json.loads(out.splitlines()[0])["outputs"]
            assert outputs["choi_commuting"] is True
            assert outputs["max_commutator"] == original(calls[0])[1]

    def test_rates_above_one_are_the_pauli_channel(self, tmp_path):
        # rates 2 and 3.5 make jumps of norm sqrt(2) and sqrt(3.5); the channel of
        # rate g on P is rho -> ((1 + e^{-2 g t}) rho + (1 - e^{-2 g t}) P rho P) / 2
        (tmp_path / "x.pauli").write_text("1.0 X\n")
        (tmp_path / "z.pauli").write_text("1.0 Z\n")
        jumps = tmp_path / "jumps.txt"
        jumps.write_text("x.pauli 2.0\nz.pauli 3.5\n")
        (tmp_path / "psi.txt").write_text("0.6,0 0,0.8\n")
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", str(jumps), "--t", "1",
                          "--eps", "0.05", "--state", "file:" + str(tmp_path / "psi.txt")])
        assert rc == 0
        want = np.outer([0.6, 0.8j], [0.6, -0.8j])
        for rate, p in ((2.0, np.array([[0, 1], [1, 0]])), (3.5, np.diag([1, -1]))):
            decay = math.exp(-2.0 * rate)
            want = 0.5 * (1.0 + decay) * want + 0.5 * (1.0 - decay) * (p @ want @ p)
        rho = parse_dense_matrix(json.loads(out)["outputs"]["rho_out"])
        assert trace_distance(rho, want) <= 0.05

    @pytest.mark.parametrize("jump, t, same, same_t", [
        ("1.0 Z\n5.0 I", "1", "1.0 Z", "1"),  # an identity shift is no dissipation
        ("2.0 Z", "1", "1.0 Z", "4"),          # a c-scaled jump squares the rate
    ])
    def test_width_relations_hold_bitwise(self, tmp_path, jump, t, same, same_t):
        records = []
        for name, text, time in (("a", jump, t), ("b", same, same_t)):
            (tmp_path / f"{name}.pauli").write_text(text + "\n")
            (tmp_path / f"{name}.txt").write_text(f"{name}.pauli\n")
            rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps",
                              str(tmp_path / f"{name}.txt"), "--t", time, "--eps", "0.05"])
            assert rc == 0
            records.append(json.loads(out))
        assert records[0]["outputs"] == records[1]["outputs"]
        assert records[0]["cost"] == records[1]["cost"]

    def test_overflowing_jump_exits_1_naming_it(self, tmp_path, capsys):
        (tmp_path / "x.pauli").write_text("1.0 X\n")
        (tmp_path / "z.pauli").write_text("1e200 Z\n")
        jumps = tmp_path / "jumps.txt"
        jumps.write_text("x.pauli\nz.pauli\n")
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", str(jumps), "--t", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and out == ""
        assert err == ("error: jump 1 of width 2e+200 runs for scale^2 t = inf: "
                       "evolution time must be positive and finite, got inf\n")

    @pytest.mark.parametrize("state", ["plus", "zero"])
    def test_shifted_six_qubit_list_is_the_pauli_channel(self, state):
        # a I + b P dissipates as b^2 D[P], the Pauli channel rho -> ((1 + e^{-2 b^2 t}) rho
        # + (1 - e^{-2 b^2 t}) P rho P) / 2, here b = 0.5 for X and b = 0.6 for Z on the
        # first of six qubits; X and Z anticommute, so the generator probe decides the
        # pair.  Only the Z channel moves |+...+>, only the X channel moves |0...0>.
        rc, out = invoke(["evolve", "--method", "choi-ff", "--jumps", SHIFTED6, "--t", "1",
                          "--eps", "0.05", "--state", state])
        assert rc == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["max_commutator"] > 0
        psi = np.full(64, 0.125) if state == "plus" else np.eye(64)[0]
        want = np.outer(psi, psi)
        for b, string in ((0.5, "XIIIII"), (0.6, "ZIIIII")):
            p = model.parse_pauli_sum(f"1.0 {string}")
            decay = math.exp(-2.0 * b * b)
            want = 0.5 * (1.0 + decay) * want + 0.5 * (1.0 - decay) * (p @ want @ p)
        assert trace_distance(parse_dense_matrix(outputs["rho_out"]), want) <= 0.05


# Peak RSS a call adds to a fresh process after its import: VmHWM of the
# process image (ru_maxrss would report the spawning pytest process's peak).
_PEAK_PROBE = """
import sys
from lindbladff import cli

def peak_kib():
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

base = peak_kib()
assert cli.run(sys.argv[1:]) == 0
print(peak_kib() - base)
"""


class TestOutputMemory:
    def test_table_text_is_held_once(self, tmp_path):
        # 10^6 + 2 lines, 11 MiB of text: ``run`` holds the text once and copies it
        # once to write it, beside the 8 MB amplitude array (88 MiB while it joined
        # a list of every line)
        argv = ["--out", str(tmp_path / "b.csv"), "stateprep", "--what", "binomial",
                "--N", "1000000"]
        env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 40 * 1024, int(done.stdout) / 1024

    def test_ae_demo_holds_no_oracle_array(self, tmp_path):
        # n and W alone reach the problem, whose four levels add 4.7 MiB to the
        # import peak with numpy.random: 2^40 oracle values would take 8 TiB
        argv = ["--out", str(tmp_path / "ae.jsonl"), "ae-demo", "--n", "40", "--witnesses", "1",
                "--runs", "3"]
        env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 8 * 1024, int(done.stdout) / 1024


class TestColdStart:
    def test_import_leaves_dataclasses_out(self):
        # records are NamedTuples: building a dataclass costs a few hundred us a class
        code = "import sys, lindbladff.cli; print('dataclasses' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_cli_paths_import_no_scipy(self, tmp_path):
        # a fresh interpreter with the test extras (scipy, mpmath, hypothesis,
        # pytest) blocked, so every path must run on numpy alone; the evolve
        # calls run first and must not import numpy.random either
        (tmp_path / "z.pauli").write_text("1.0 ZI\n")
        (tmp_path / "x.pauli").write_text("1.0 XX\n")
        jumps = tmp_path / "jumps.txt"
        jumps.write_text("z.pauli 0.5\nx.pauli 0.25\n")
        # 64 levels: the dense parse and format, and at N = 10^7 (P = 8192, B = 2.6)
        # an ff node count below the level count, the band-limited kernel
        a = np.random.default_rng(64).standard_normal((64, 128)).view(complex)
        dense = tmp_path / "h64.dense"
        dense.write_text("".join(" ".join(f"{z.real!r},{z.imag!r}" for z in row) + "\n"
                                 for row in (a + a.conj().T).tolist()))
        code = textwrap.dedent(f"""
            import sys
            for name in ("scipy", "mpmath", "hypothesis", "pytest"):
                sys.modules[name] = None
            import contextlib, io
            import lindbladff.cli as cli
            ham = {HAM!r}

            def run(argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(argv) == 0, argv

            for argv in (
                ["evolve", "--method", "ff", "--ham", ham, "--t", "1", "--N", "16"],
                ["evolve", "--method", "exact", "--ham", ham, "--t", "1"],
                ["evolve", "--method", "dilated", "--ham", ham, "--t", "1", "--steps", "8"],
                ["evolve", "--method", "exact", "--ham", {str(dense)!r}, "--t", "1"],
                ["evolve", "--method", "ff", "--ham", {str(dense)!r}, "--t", "1", "--N",
                 "10000000"],
                ["evolve", "--method", "choi-ff", "--jumps", {str(jumps)!r}, "--t", "1",
                 "--eps", "0.05"],
                ["evolve", "--method", "choi-ff", "--jumps", {SHIFTED6!r}, "--t", "1",
                 "--eps", "0.05"],
            ):
                run(argv)
            print("numpy.random" in sys.modules)
            for argv in (
                ["qpe", "--route", "fast", "--ham", ham, "--t", "4", "--N", "64", "--eps", "1e-3"],
                ["qpe", "--route", "slow", "--ham", ham, "--t", "4", "--N", "64"],
                ["qpe", "prepare", "--route", "fast", "--ham", ham, "--t", "4", "--N", "64"],
                ["qpe", "prepare", "--route", "slow", "--ham", ham, "--t", "4", "--N", "64"],
                ["qpe", "prepare", "--route", "standard", "--ham", ham, "--d", "6"],
                ["stateprep", "--what", "binomial", "--N", "16"],
                ["gibbs", "--ham", ham, "--beta", "1", "--eps", "0.05"],
                ["bounds"],
                ["ae-demo", "--n", "2", "--witnesses", "1", "--runs", "2", "--N", "256",
                 "--seed", "1"],
                ["qpe", "--route", "standard", "--ham", ham, "--d", "6"],
                ["bench", "gibbs-beta", "--beta", "1,2", "--eps", "0.1"],
                ["bench", "ff-vs-dilated"],
            ):
                run(argv)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


# The options each bench suite reads: those its numeric sweep sets, and no others
SUITE_READS = {suite: TestNumericOptionSweep.SHAPES[f"bench_{suite.replace('-', '_')}"][1].split()
               for suite in ("ff-vs-dilated", "qpe-error", "gibbs-beta")}
SUITE_VALUES = {"--t": "1,2", "--eps": "0.1", "--beta": "1,2", "--N-slow": "100", "--N-fast": "64"}


class TestBench:
    def test_ff_vs_dilated_records_are_timed(self):
        rc, out = invoke(["bench", "ff-vs-dilated"])
        assert rc == 0
        records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(records) == 2
        assert all(r["wall_time_s"] > 0 for r in records)
        assert [line for line in strip_wall_time(out).splitlines() if line.startswith("{")] == [
            '{"artifact_version":"0.1.0","command":["bench","ff-vs-dilated"],"cost":null,'
            '"ham_digest":null,"outputs":{"pass":true,"series":"%s","slope":%s,'
            '"suite":"ff-vs-dilated","target":%s,"tolerance":0.1},"seed":null}' % v
            for v in (("ff", "0.5", "0.5"), ("dilated", "2.0", "2.0"))
        ]

    def test_ff_vs_dilated_slopes(self):
        rc, out = invoke(["bench", "ff-vs-dilated", "--t", "1,2,4,8", "--eps", "0.1"])
        assert rc == 0
        slopes = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        by_series = {r["outputs"]["series"]: r["outputs"] for r in slopes}
        assert by_series["ff"]["pass"] and by_series["dilated"]["pass"]
        assert abs(by_series["dilated"]["slope"] - 2.0) <= 0.1

    @pytest.mark.parametrize("suite", sorted(SUITE_READS))
    def test_suite_help_lists_exactly_its_options(self, suite):
        rc, out = invoke(["bench", suite, "--help"])
        assert rc == 0
        # one option per line of the options list, "-h, --help" apart
        assert sorted(re.findall(r"^ +(--[\w-]+)", out, re.MULTILINE)) == sorted(SUITE_READS[suite])

    @pytest.mark.parametrize("suite, option", [(suite, option) for suite in sorted(SUITE_READS)
                                               for option in sorted(SUITE_VALUES)
                                               if option not in SUITE_READS[suite]])
    def test_suite_refuses_an_option_it_does_not_read(self, capsys, suite, option):
        rc, out = invoke(["bench", suite, option, SUITE_VALUES[option]])
        assert (rc, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"error: unrecognized arguments: {option} " in err

    @pytest.mark.parametrize("suite", sorted(SUITE_READS))
    def test_default_grid_reads_its_slope_inside_the_gate(self, suite):
        # at least 0.05 inside it: a grid on the gate's edge (gibbs-beta on
        # 1,2,4,8 read 0.6 against 0.5 +- 0.1) passes or fails on a rounding
        rc, out = invoke(["bench", suite])
        assert rc == 0
        records = [json.loads(l)["outputs"] for l in out.splitlines() if l.startswith("{")]
        assert len(records) == (1 if suite == "gibbs-beta" else 2)
        for rec in records:
            assert abs(rec["slope"] - rec["target"]) <= rec["tolerance"] - 0.05, rec

    def test_gibbs_beta_suite(self):
        rc, out = invoke(["bench", "gibbs-beta", "--beta", "1,2,4", "--eps", "0.05"])
        assert rc == 0
        rec = [json.loads(l) for l in out.splitlines() if l.startswith("{")][0]
        assert rec["outputs"]["pass"]
