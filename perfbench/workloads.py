"""Seeded inputs and call lists for the three benchmark workloads.

``build(workload, seed, directory)`` writes every input file the program
reads into ``directory`` and returns the workload's call list.  Each call
carries its argv (file names relative to ``directory``) and what the checker
needs to verify its output.  The seed changes only the values in the files:
sizes, levels, register counts and the call list itself are fixed per
workload, so a call costs the same on every seed.

The program sees nothing but these generated files.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("startup", "spectral", "register")

# Mirrors the program's default clustering tolerance (relative to ||H||).
# Generated clusters keep their whole spread below half of it, so a change
# that bounds the spread of a cluster still sees the same number of levels.
CLUSTER_RTOL = 1e-9

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class Call:
    """One CLI invocation and the facts its output is checked against."""

    argv: list
    kind: str                       # evolve | choi | qpe | prepare | gibbs | ae | stateprep | bounds | bench
    info: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Inputs:
    """Everything written for one workload, kept in memory for the checker."""

    matrices: dict = field(default_factory=dict)   # file name -> Hermitian matrix
    states: dict = field(default_factory=dict)     # file name -> normalized vector
    jump_lists: dict = field(default_factory=dict)  # file name -> [(pauli string, rate)]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _format_dense(a: np.ndarray) -> str:
    """The program's dense text format, one row per line, entries "re,im" (exact)."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    row = " ".join(["%.17g,%.17g"] * a.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in a.view(float).tolist())


def _random_unitary(rng, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian_with_spectrum(rng, eigs: np.ndarray) -> np.ndarray:
    q = _random_unitary(rng, eigs.size)
    h = (q * eigs) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def nondegenerate_spectrum(rng, dim: int) -> np.ndarray:
    """Ascending eigenvalues in [-1, 1] with every gap at least 0.8 / dim."""
    slots = np.arange(dim) + 0.2 + 0.6 * rng.random(dim)
    return 2.0 * slots / dim - 1.0


def clustered_spectrum(rng, dim: int, levels: int = 8) -> np.ndarray:
    """``levels`` well-separated clusters; gaps inside a cluster sit under
    ``CLUSTER_RTOL * ||H||`` and each cluster spans less than half of it."""
    centers = np.linspace(-1.0, 1.0, levels) + rng.uniform(-0.3, 0.3, levels) / levels
    per = dim // levels
    spread = 0.45 * CLUSTER_RTOL
    offsets = np.sort(rng.random((levels, per)), axis=1) * spread
    return np.sort((centers[:, None] + offsets).reshape(-1))


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def pauli_matrix(terms) -> np.ndarray:
    width = len(terms[0][1])
    h = np.zeros((1 << width, 1 << width), dtype=complex)
    for coeff, string in terms:
        op = np.array([[1.0 + 0j]])
        for ch in string:
            op = np.kron(op, _PAULI[ch])
        h += coeff * op
    return h


def pauli_hamiltonian(rng, qubits: int, diagonal: bool) -> list:
    """Pauli sum with well-separated levels.

    Single-qubit Z weights grow by a factor 3 per qubit, so every basis state
    has its own eigenvalue; diagonal sums have the basis states ``basis:k``
    as eigenstates.  Non-diagonal sums add small X and Y terms.
    """
    terms = [(rng.uniform(-0.5, 0.5), "I" * qubits)]
    for j in range(qubits):
        z = ["I"] * qubits
        z[qubits - 1 - j] = "Z"
        terms.append((3.0 ** j * rng.uniform(0.8, 1.2) * rng.choice([-1.0, 1.0]), "".join(z)))
    for j, k in itertools.combinations(range(qubits), 2):
        zz = ["I"] * qubits
        zz[j] = zz[k] = "Z"
        terms.append((rng.uniform(-0.1, 0.1), "".join(zz)))
    if not diagonal:
        for j in range(qubits):
            for letter in "XY":
                op = ["I"] * qubits
                op[j] = letter
                terms.append((rng.uniform(-0.15, 0.15), "".join(op)))
    return terms


def random_pauli_string(rng, qubits: int) -> str:
    while True:
        s = "".join(rng.choice(list("IXYZ"), qubits))
        if s != "I" * qubits:
            return s


class _Writer:
    def __init__(self, directory: str, inputs: Inputs):
        self.dir = directory
        self.inputs = inputs

    def _write(self, name: str, text: str):
        with open(os.path.join(self.dir, name), "w") as fh:
            fh.write(text)

    def dense(self, name: str, h: np.ndarray) -> str:
        self._write(name, _format_dense(h))
        self.inputs.matrices[name] = h
        return name

    def pauli(self, name: str, terms) -> str:
        self._write(name, "".join(f"{float(c)!r} {s}\n" for c, s in terms))
        self.inputs.matrices[name] = pauli_matrix(terms)
        return name

    def state(self, name: str, v: np.ndarray) -> str:
        self._write(name, _format_dense(v[None, :]))
        self.inputs.states[name] = v
        return name

    def jump_list(self, name: str, rng, qubits: int, count: int) -> str:
        entries, lines = [], []
        for k in range(count):
            string = random_pauli_string(rng, qubits)
            rate = float(rng.uniform(0.2, 1.0))
            jump = f"{name}.{k}.pauli"
            self._write(jump, f"1.0 {string}\n")
            entries.append((string, rate))
            lines.append(f"{jump} {rate!r}\n")
        self._write(name, "".join(lines))
        self.inputs.jump_lists[name] = entries
        return name


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------

def _evolve(method, ham, t, state="plus", eps=None, n=None, steps=None) -> Call:
    argv = ["evolve", "--method", method, "--ham", ham, "--t", repr(t), "--state", state]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    if n is not None:
        argv += ["--N", str(n)]
    if steps is not None:
        argv += ["--steps", str(steps)]
    return Call(argv, "evolve", {"method": method, "ham": ham, "state": state, "t": t,
                                 "eps": 0.1 if eps is None else eps})


def _choi(jumps, t, eps, state="plus") -> Call:
    argv = ["evolve", "--method", "choi-ff", "--jumps", jumps, "--t", repr(t),
            "--eps", repr(eps), "--state", state]
    return Call(argv, "choi", {"jumps": jumps, "state": state, "t": t, "eps": eps})


def _qpe(route, ham, state, *, d=None, t=None, n=None, eps=None, mode="exact",
         repeats=None, seed=None) -> Call:
    argv = ["qpe", "--route", route, "--ham", ham, "--state", state]
    for flag, val in (("--d", d), ("--t", t), ("--N", n), ("--eps", eps)):
        if val is not None:
            argv += [flag, repr(val) if isinstance(val, float) else str(val)]
    if mode == "sample":
        argv += ["--mode", "sample", "--repeats", str(repeats), "--seed", str(seed)]
    return Call(argv, "qpe", {"route": route, "ham": ham, "state": state, "d": d, "n": n,
                              "t": t, "mode": mode})


def _prepare(route, ham, eigen, *, d=None, t=None, n=None, zeta=None) -> Call:
    argv = ["qpe", "prepare", "--route", route, "--ham", ham, "--state", "plus",
            "--eigen", str(eigen)]
    for flag, val in (("--d", d), ("--t", t), ("--N", n), ("--zeta", zeta)):
        if val is not None:
            argv += [flag, repr(val) if isinstance(val, float) else str(val)]
    return Call(argv, "prepare", {"route": route, "ham": ham, "eigen": eigen})


def _gibbs(ham, betas, eps) -> Call:
    argv = ["gibbs", "--ham", ham, "--beta", ",".join(repr(b) for b in betas), "--eps", repr(eps)]
    return Call(argv, "gibbs", {"ham": ham, "betas": betas, "eps": eps})


def _probes(ham: str) -> list:
    """Coarse ff and dilated runs on a two-level jump in the ``plus`` state.

    Any two-level spectrum normalizes to {0, 1}, and with the jump diagonal
    the input is the same in its eigenbasis on every seed, so these errors
    repeat exactly.  At 16 steps the first-order error dominates every other
    call's ratio, which keeps ``err_ratio_max`` seed-independent; a change
    that loses accuracy anywhere else still raises it once it exceeds them.
    """
    return [_evolve("ff", ham, 2.0, "plus", eps=0.05, n=16),
            _evolve("dilated", ham, 2.0, "plus", eps=0.05, steps=16)]


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _psd_problem(rng, qubits: int) -> np.ndarray:
    """PSD problem Hamiltonian with norm exactly 1 and a zero ground level."""
    eigs = np.sort(rng.uniform(0.0, 1.0, 1 << qubits))
    eigs[0], eigs[-1] = 0.0, 1.0
    return _hermitian_with_spectrum(rng, eigs)


def _startup(rng, w: _Writer) -> list:
    """Every subcommand at its smallest size: 1-3 qubits, N <= 256."""
    z = {q: w.pauli(f"z{q}.pauli", pauli_hamiltonian(rng, q, diagonal=True)) for q in (1, 2, 3)}
    x = {q: w.pauli(f"x{q}.pauli", pauli_hamiltonian(rng, q, diagonal=False)) for q in (1, 2, 3)}
    psi = {q: "file:" + w.state(f"psi{q}.state", random_state(rng, 1 << q)) for q in (1, 2, 3)}
    k = {q: f"basis:{int(rng.integers(0, 1 << q))}" for q in (1, 2, 3)}
    n = int(rng.integers(8, 33)) * 2
    ns = sorted(int(v) for v in rng.choice(np.arange(10, 120), 2, replace=False))
    ps = sorted(round(float(v), 3) for v in rng.uniform(0.1, 0.9, 2))
    cs = sorted(round(float(v), 3) for v in rng.uniform(0.05, 0.4, 2))
    g1 = w.dense("g1.dense", _psd_problem(rng, 1))
    jl = w.jump_list("jl2.txt", rng, 2, 3)
    return [
        _evolve("ff", x[2], 2.0, psi[2], eps=0.05),
        _evolve("dilated", x[3], 1.0, psi[3], eps=0.1),
        _evolve("exact", x[1], 1.0, psi[1]),
        _qpe("standard", z[2], k[2], d=6),
        _qpe("slow", z[3], k[3], t=16.0, n=256),
        _qpe("fast", z[1], k[1], t=16.0, n=256, eps=1e-3),
        _prepare("standard", x[2], 0, d=6),
        _prepare("slow", x[2], 0, t=64.0, n=256),
        _prepare("fast", x[2], 0, t=64.0, n=256),
        Call(["stateprep", "--what", "binomial", "--N", str(n)], "stateprep", {"what": "binomial"}),
        Call(["stateprep", "--what", "gaussian", "--N", "32", "--mu", repr(float(rng.uniform(8, 24))),
              "--sigma", repr(float(rng.uniform(1.5, 4)))], "stateprep", {"what": "gaussian"}),
        # sigma = sqrt(N)/2, where the angle recursion holds its documented 1e-8 replay accuracy
        Call(["stateprep", "--what", "angles", "--N", "64", "--mu", repr(float(rng.uniform(16, 48))),
              "--sigma", "4.0"], "stateprep", {"what": "angles"}),
        Call(["bounds", "--N-grid", ",".join(map(str, ns)), "--p-grid", ",".join(map(repr, ps)),
              "--c-grid", ",".join(map(repr, cs))], "bounds", {}),
        _gibbs(g1, [1.0, 2.0, 4.0], 0.05),
        _choi(jl, 1.0, 0.02, psi[2]),
        Call(["bench", "ff-vs-dilated"], "bench", {"suite": "ff-vs-dilated", "eps": 0.1}),
    ] + _probes(z[1])


def _spectral(rng, w: _Writer) -> list:
    """Dense dimensions 16..512: the dimension-heavy layers do the work."""
    nd = {d: w.dense(f"nd{d}.dense", _hermitian_with_spectrum(rng, nondegenerate_spectrum(rng, d)))
          for d in (16, 64, 128, 256)}
    cl = {d: w.dense(f"cl{d}.dense", _hermitian_with_spectrum(rng, clustered_spectrum(rng, d)))
          for d in (512,)}
    psi = {d: "file:" + w.state(f"psi{d}.state", random_state(rng, d)) for d in (16, 64, 128, 256, 512)}
    jl = w.jump_list("jl4.txt", rng, 4, 6)
    psi4 = "file:" + w.state("psiq4.state", random_state(rng, 16))
    gp4 = w.dense("gp4.dense", _psd_problem(rng, 4))
    # one level below 0, so the spectrum is mapped onto exactly {0, 1}
    two = w.dense("two.dense", np.diag([rng.uniform(-1.0, -0.1), rng.uniform(0.1, 1.0)]).astype(complex))
    return [
        _evolve("exact", nd[64], 1.0, psi[64]),
        _evolve("exact", cl[512], 0.9, psi[512]),
        _evolve("ff", nd[128], 2.0, psi[128], eps=0.05),
        _evolve("ff", nd[256], 3.0, psi[256], eps=0.05, n=10 ** 7),
        # 800 steps take the superoperator route, 400 steps the direct loop
        _evolve("dilated", nd[16], 2.0, psi[16], eps=0.1),
        _evolve("dilated", nd[64], 1.0, psi[64], eps=0.05),
        _choi(jl, 1.0, 0.02, psi4),
        _gibbs(gp4, [1.5], 0.05),
    ] + _probes(two)


def _register(rng, w: _Writer) -> list:
    """System dimension <= 8, register counts 10^3..10^7."""
    z1 = w.pauli("z1.pauli", pauli_hamiltonian(rng, 1, diagonal=True))
    z2 = w.pauli("z2.pauli", pauli_hamiltonian(rng, 2, diagonal=True))
    z3 = w.pauli("z3.pauli", pauli_hamiltonian(rng, 3, diagonal=True))
    x3 = w.pauli("x3.pauli", pauli_hamiltonian(rng, 3, diagonal=False))
    psi3 = "file:" + w.state("psi3.state", random_state(rng, 8))
    k2, k3 = (f"basis:{int(rng.integers(0, d))}" for d in (4, 8))
    return [
        _qpe("fast", x3, psi3, t=64.0, n=2048, eps=1e-4, mode="sample", repeats=15,
             seed=_seed_int(rng)),
        _qpe("fast", z2, k2, t=64.0, n=4096, eps=1e-4),
        _qpe("slow", z3, k3, t=256.0, n=10 ** 6),
        _qpe("slow", x3, psi3, t=1024.0, n=10 ** 7, mode="sample", repeats=15,
             seed=_seed_int(rng)),
        _prepare("slow", x3, 0, t=256.0, n=10 ** 7),
        _qpe("standard", x3, psi3, d=18),
        _evolve("ff", x3, 4.0, psi3, eps=0.05, n=10 ** 5),
        _evolve("ff", x3, 8.0, psi3, eps=0.05, n=10 ** 7),
        Call(["ae-demo", "--n", "4", "--witnesses", "1", "--runs", "12", "--N", "2048",
              "--seed", str(_seed_int(rng))], "ae", {"runs": 12}),
    ] + _probes(z1)[:1]


_CALL_LISTS = {"startup": _startup, "spectral": _spectral, "register": _register}


def build(workload: str, seed: int, directory: str) -> tuple[list, Inputs]:
    """Write the workload's inputs into ``directory``; return (calls, inputs)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    inputs = Inputs()
    calls = _CALL_LISTS[workload](rng, _Writer(directory, inputs))
    return calls, inputs
