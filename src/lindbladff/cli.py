"""Command-line front end: experiment orchestration, deterministic seeding,
line-delimited records, and the benchmark suites.

argparse is the one table of subcommands: each subcommand and each ``bench``
suite binds its handler and declares only the options that handler reads.
Each subcommand is a generator of its output lines, JSON records (lists of
bytes pieces) and CSV rows (str) alike; ``run`` holds them as UTF-8 bytes
and writes them once the call succeeds, to stdout or to ``--out FILE`` (a
relative path resolves against ``LINDBLADFF_OUT_DIR`` when set), so a
failing call writes nothing; ``run`` is the only code that opens a file for
writing.  A ``ValidationError`` or an ``OSError`` (a missing or unwritable
file) exits 1 with one ``error:`` line, an ``InvariantError`` exits 2.
Records are one JSON object per line with sorted keys and compact
separators, so identical invocations (same argv and seed) are byte-identical
apart from the ``wall_time_s`` field.  Every record is built by ``_record``,
which leaves each array's dense text, newlines escaped, a piece of the line
as it was formatted, so ``json.dumps`` never scans a matrix and the text is
never copied.  Every input file is read whole as bytes by ``_read`` and
parsed by ``model``, so a parse error names its file, and a file that is not
UTF-8 text is a malformed input like any other; ``model`` also reads the
comma-list options, and its error names the option.  The runs of ``ae-demo``
derive their seeds from ``--seed`` through
``numpy.random.SeedSequence([seed, run_index])``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import InvariantError, ValidationError
from . import numkernel as nk
from . import model
from .model import lindblad_spec
from .choi import choi_ff_evolve
from .concentration import bernstein_bound, binomial_tail, hoeffding_bound
from .channel import channel, evolve, evolve_matrix
from .dilated import CostReport
from .gibbs import gibbs_prepare
from .qpe import (amplitude_problem, counting_estimator, decide_amplitude, estimate,
                  prepare, standard_qpe)
from .stateprep import (GaussianParams, binomial_amplitudes,
                        binomial_gaussian_distance,
                        discrete_gaussian_amplitudes, kw_angle_schedule)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _record(argv, t0: float, outputs: dict, digest: str | None = None,
            seed: int | None = None, cost: CostReport | None = None) -> list[bytes]:
    """The one record constructor: a JSON line of the command, its outputs
    (plain JSON values and arrays, built so by each subcommand), the cost
    dict and the wall time since t0, as the list of its bytes pieces.  Each
    array is written as dense text, ``model.format_dense_matrix`` of it with
    its newlines escaped, which is a piece of the line as it stands: of the
    bytes that text holds, JSON escapes the newline alone, so ``json.dumps``
    writes only the rest of the record, and the text is never copied."""
    arrays = sorted(name for name, value in outputs.items() if isinstance(value, np.ndarray))
    texts = [model.format_dense_matrix(np.atleast_2d(outputs[name]), newline=b"\\n")
             for name in arrays]
    line = json.dumps({
        "artifact_version": __version__,
        "command": argv,
        "cost": cost._asdict() if cost is not None else None,
        "ham_digest": digest,
        "outputs": {**outputs, **dict.fromkeys(arrays, "\0")},
        "seed": seed,
        "wall_time_s": time.perf_counter() - t0,
    }, sort_keys=True, separators=(",", ":")).encode()
    # json.dumps writes each stand-in "\0" as "\u0000", in sorted key order;
    # every string after the first stand-in is the program's own, none "\0"
    # (the argv sorts before "outputs"), so the last len(arrays) are theirs
    parts = line.rsplit(b'"\\u0000"', len(arrays))
    pieces = [parts[0]]
    for text, part in zip(texts, parts[1:]):
        pieces += b'"', text, b'"', part
    return pieces


def _fields(res) -> dict:
    """A result tuple's fields as record outputs; the cost has its own record
    field, the Gibbs purification is not written, and a count
    ``distribution`` is a list, written up to 4097 counts."""
    outputs = {}
    for name, value in res._asdict().items():
        if name in ("cost", "purification") or (name == "distribution" and value.size > 4097):
            continue
        outputs[name] = value.tolist() if name == "distribution" else value
    return outputs


# ---------------------------------------------------------------------------
# Shared input handling
# ---------------------------------------------------------------------------

def _read(path: str, parse):
    """``parse`` applied to the bytes of one input file, read whole and
    handed on undecoded; its ``ValidationError`` (bytes that are not UTF-8
    text among them) is raised again with the file's path in front."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_ham(path: str | None) -> tuple[np.ndarray, str]:
    """Read, parse and hash one Hamiltonian file: the matrix and its digest."""
    if not path:
        raise ValidationError("--ham FILE is required")
    mat = _read(path, model.load_hamiltonian_text)
    return mat, hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest()


def _initial_state(spec: str, dim: int) -> np.ndarray:
    if spec == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if spec == "zero" or spec.startswith("basis:"):
        k = "0" if spec == "zero" else spec.split(":", 1)[1]
        if not (k.isdecimal() and int(k) < dim):
            raise ValidationError(f"basis index {k!r} is not an integer in [0, {dim})")
        v = np.zeros(dim, dtype=complex)
        v[int(k)] = 1.0
        return v
    if spec.startswith("file:"):
        def parse(text):
            v = model.parse_state_vector(text)
            if v.size != dim:
                raise ValidationError(f"state file has {v.size} amplitudes, expected {dim}")
            return v
        return _read(spec.split(":", 1)[1], parse)
    raise ValidationError(f"unknown state spec {spec!r}")


def _slope_record(argv, t0: float, outputs: dict, xs, ys, target: float,
                  tol: float) -> list[bytes]:
    """Bench verdict record: the log-log slope of ys against xs and whether
    it lies within ``tol`` of ``target``, added to ``outputs``; the fit needs
    every x and y positive and finite, at two distinct x at least."""
    if not (all(0 < v < math.inf for v in [*xs, *ys]) and len(set(xs)) > 1):
        raise ValidationError(f"bench {' '.join(outputs.values())}: a slope needs two "
                              f"distinct x, every x and y positive and finite; "
                              f"got x = {xs}, y = {ys}")
    slope = float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                             np.log(np.asarray(ys, dtype=float)), 1)[0])
    outputs = {**outputs, "slope": slope, "target": target, "tolerance": tol,
               "pass": bool(abs(slope - target) <= tol + 1e-9)}
    return _record(argv, t0, outputs)


def _cell_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_evolve(args, argv):
    t0 = time.perf_counter()
    if not 0.0 < args.eps < 1.0:  # one range for every method, whether or not it reads eps
        raise ValidationError(f"--eps must lie in (0, 1), got {args.eps}")
    if args.method == "choi-ff":
        jumps, digest = _load_jump_list(args.jumps)
        spec = lindblad_spec(jumps)
        rho0_vec = _initial_state(args.state, spec.dim)
        rho, cost, worst = choi_ff_evolve(spec, rho0_vec, args.t, args.eps)
        outputs = {
            "method": args.method,
            "rho_out": rho,
            "choi_commuting": True,
            "max_commutator": worst,
        }
        yield _record(argv, t0, outputs, digest, cost=cost)
        return

    mat, digest = _load_ham(args.ham)
    psi = _initial_state(args.state, len(mat))
    chan = channel(args.method, args.t, args.eps,
                   args.steps if args.method == "dilated" else args.N)
    rho, cost, smap = evolve_matrix(mat, psi, chan)
    outputs = {"method": args.method}
    if (p := chan.plan) is not None:
        outputs["plan"] = {
            "N": p.n, "c": p.c, "d": p.d, "dprime": p.dprime,
            "tau": p.t / p.n, "window": list(p.window), "full_window": p.full_window,
            "mod_convention": "2^d", "note": p.note,
        }
    outputs["rho_out"] = rho
    outputs["spectrum_map"] = {"scale": smap.scale, "shift": smap.shift}
    yield _record(argv, t0, outputs, digest, cost=cost)


def _load_jump_list(path: str) -> tuple[list[np.ndarray], str]:
    """The listed jump files, opened relative to the list, scaled by sqrt(rate)
    and hashed in list order."""
    if not path:
        raise ValidationError("--jumps FILE is required for method choi-ff")
    base = os.path.dirname(os.path.abspath(path))
    jumps = []
    hasher = hashlib.sha256()
    for name, rate in _read(path, model.parse_jump_list):
        jump = _read(os.path.join(base, name), model.load_hamiltonian_text)
        jumps.append(math.sqrt(rate) * jump)
        hasher.update(np.ascontiguousarray(jumps[-1]).tobytes())
    return jumps, hasher.hexdigest()


def _cmd_qpe(args, argv):
    t0 = time.perf_counter()
    if args.route == "slow" and args.N is None:
        raise ValidationError("--N is required for the slow route")
    if args.zeta is not None and not args.zeta > 0:
        raise ValidationError(f"--zeta must be positive, got {args.zeta}")
    if args.seed is not None:
        nk.require_count(args.seed, 0, "--seed")
    mat, digest = _load_ham(args.ham)
    ham = model.normalize_spectrum(mat)
    if prep := args.mode == "prepare":  # the target's gaps, stretched to unit radius
        model.spectral_gap(ham, args.eigen)
        gaps = ham.eigenvalues - ham.eigenvalues[args.eigen]
        ham = ham._replace(eigenvalues=gaps / float(np.max(np.abs(gaps))))
    state = model.decompose_state(_initial_state(args.state, ham.dim), ham)
    if args.route == "standard" and not prep:  # the Fourier readout, not a channel's counts
        res = standard_qpe(ham, state, args.d, args.dist_mode, args.seed, args.repeats)
    else:  # a --zeta target, read by the fast route's prepare alone, sets eps
        eps = args.eps if args.zeta is None else (float(state.coeffs[args.eigen]) * args.zeta) ** 2
        chan = channel(*{"standard": ("standard", None, None, args.d),
                         "slow": ("dilated", args.t, eps, args.N),
                         "fast": ("ff", args.t, eps, args.N)}[args.route])
        res = (prepare(ham, state, args.eigen, chan) if prep else
               estimate(ham, state, chan, args.dist_mode, args.seed, args.repeats))
    yield _record(argv, t0, {"route": args.route, **_fields(res)}, digest, args.seed, res.cost)


def _cmd_gibbs(args, argv):
    mat, digest = _load_ham(args.ham)
    csv_rows = ["beta,hamiltonian_time,fidelity,partition_estimate,partition_exact"]
    for beta in model.parse_number_list("--beta", args.beta):
        t0 = time.perf_counter()
        res = gibbs_prepare(mat, beta, args.eps)
        yield _record(argv, t0, {"beta": beta, **_fields(res)}, digest, cost=res.cost)
        csv_rows.append(f"{beta},{res.cost.hamiltonian_time},{res.fidelity},"
                        f"{res.partition_estimate},{res.partition_exact}")
    yield from csv_rows


def _cmd_ae_demo(args, argv):
    t0 = time.perf_counter()
    nk.require_count(args.runs, 1, "--runs")
    nk.require_count(args.seed, 0, "--seed")
    n, witnesses = (_read(args.oracle, model.parse_oracle) if args.oracle is not None
                    else (args.n, args.witnesses))
    problem = amplitude_problem(n, witnesses, t=args.t, register_n=args.N, eps=args.eps)
    decs = [decide_amplitude(problem, mode="sample", seed=_cell_seed(args.seed, k))
            for k in range(args.runs)]
    runs = [{"decided_zero": dec.decided_zero, "correct": dec.correct,
             "estimate_phase": dec.estimation.estimate} for dec in decs]
    outputs = {"witness_count": problem.witness_count, "amplitude": problem.amplitude,
               "threshold": problem.threshold, "runs": runs,
               "accuracy": sum(dec.correct for dec in decs) / args.runs}
    yield _record(argv, t0, outputs, seed=args.seed)


def _cmd_stateprep(args, argv):
    if args.what in ("binomial", "gaussian"):
        amps = (binomial_amplitudes(args.N) if args.what == "binomial" else
                discrete_gaussian_amplitudes(GaussianParams(args.mu, args.sigma, args.N)))
        yield "m,amplitude"
        for m, a in enumerate(amps):
            yield f"{m},{float(a)!r}"
    elif args.what == "angles":
        sched = kw_angle_schedule(GaussianParams(args.mu, args.sigma, args.N))
        yield "level,path,angle"
        for level, angles in enumerate(sched):
            for path, angle in enumerate(angles):
                yield f"{level},{path},{float(angle)!r}"
    else:  # distance
        yield "N,l2_distance"
        yield f"{args.N},{binomial_gaussian_distance(args.N)!r}"


def _cmd_bounds(args, argv):
    yield "N,p,c,exact_tail,bernstein,hoeffding,tail_le_bernstein,tail_le_hoeffding"
    violations = 0
    ns = model.parse_number_list("--N-grid", args.N_grid, integer=True)
    ps = model.parse_number_list("--p-grid", args.p_grid)
    cs = model.parse_number_list("--c-grid", args.c_grid)
    for n in ns:
        for p in ps:
            for c in cs:
                tail = binomial_tail(n, p, c)
                bern = bernstein_bound(n, p, c)
                hoef = hoeffding_bound(n, c)
                ok_b = tail <= bern + 1e-15
                ok_h = tail <= hoef + 1e-15
                violations += (not ok_b) + (not ok_h and p == 0.5)
                yield f"{n},{p},{c},{tail!r},{bern!r},{hoef!r},{ok_b},{ok_h}"
    yield f"# violations={violations}"


# ---------------------------------------------------------------------------
# Bench suites
# ---------------------------------------------------------------------------

def _bench_ff_vs_dilated(args, argv):
    t0 = time.perf_counter()
    mat = np.diag([0.0, 1.0]).astype(complex)
    ham = model.normalize_spectrum(mat)
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    ts = model.parse_number_list("--t", args.t)
    yield "t,method,hamiltonian_time,steps,ancillas,trace_distance_to_exact"
    costs = {"ff": [], "dilated": []}
    for t in ts:
        exact, _ = evolve(ham, psi, channel("exact", t, args.eps))
        for method in costs:
            rho, cost = evolve(ham, psi, channel(method, t, args.eps))
            costs[method].append(cost.hamiltonian_time)
            yield (f"{t},{method},{cost.hamiltonian_time!r},{cost.step_count},"
                   f"{cost.ancilla_count},{nk.trace_distance(rho, exact)!r}")
    for name, target in (("ff", 0.5), ("dilated", 2.0)):
        yield _slope_record(argv, t0, {"suite": "ff-vs-dilated", "series": name},
                            ts, costs[name], target, 0.1)


def _bench_qpe_error(args, argv):
    t0 = time.perf_counter()
    ham = model.normalize_spectrum(np.diag([0.0, 0.5, 1.0]).astype(complex))
    eigvec = np.array([0.0, 0.0, 1.0], dtype=complex)
    state = model.decompose_state(eigvec, ham)
    h_true = 1.0
    ts = model.parse_number_list("--t", args.t)
    yield "t,route,cost,rms_error"
    slow_pts, fast_pts = [], []
    for t in ts:
        res = estimate(ham, state, channel("dilated", t, None, n=args.N_slow))
        rms = _dist_rms(res.distribution, t, h_true)
        slow_pts.append((t, rms))
        yield f"{t},slow,{t!r},{rms!r}"
        try:
            resf = estimate(ham, state, channel("ff", t, args.eps, n=args.N_fast))
        except ValidationError as exc:
            yield f"{t},fast,skipped,{exc}"
            continue
        rmsf = _dist_rms(resf.distribution, t, h_true)
        fast_pts.append((resf.cost.hamiltonian_time, rmsf))
        yield f"{t},fast,{resf.cost.hamiltonian_time!r},{rmsf!r}"
    for name, pts, target, tol in (("slow", slow_pts, -0.5, 0.1), ("fast", fast_pts, -1.0, 0.15)):
        yield _slope_record(argv, t0, {"suite": "qpe-error", "series": name},
                            [x for x, _ in pts], [y for _, y in pts], target, tol)


def _dist_rms(dist: np.ndarray, t: float, h_true: float) -> float:
    est, _ = counting_estimator(t, dist.size - 1, np.arange(dist.size))
    return float(math.sqrt(np.sum(dist * (est - h_true) ** 2)))


def _bench_gibbs_beta(args, argv):
    t0 = time.perf_counter()
    mat = np.diag([0.0, 1.0]).astype(complex)
    betas = model.parse_number_list("--beta", args.beta)
    yield "beta,hamiltonian_time,fidelity"
    costs = []
    for beta in betas:
        res = gibbs_prepare(mat, beta, args.eps)
        costs.append(res.cost.hamiltonian_time)
        yield f"{beta},{res.cost.hamiltonian_time!r},{res.fidelity!r}"
    yield _slope_record(argv, t0, {"suite": "gibbs-beta"}, betas, costs, 0.5, 0.1)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _declare(parser, flag: str, reads: dict, default=None, help: str = "", **kw):
    """Add an option that only some modes read; return its action.  ``reads``
    maps each action that picks a mode to the modes that read the option, or
    to why the option is read only while that one is unset.  The option parses
    to None, so a given one shows; ``_check_modes`` fills in ``default``."""
    rules = [(a.dest, modes, f"without {a.option_strings[0]}, {modes}" if isinstance(modes, str)
              else f"to {(a.option_strings or parser.prog.split()[-1:])[0]} {', '.join(modes)}")
             for a, modes in reads.items()]
    notes = [f"default {default}"] * (default is not None) + [f"only {p}" for *_, p in rules]
    action = parser.add_argument(flag, help=f"{help} ({'; '.join(notes)})", **kw)
    parser.get_default("declared").append((action.dest, flag, rules, default))
    return action


def _check_modes(args) -> None:
    """Refuse a declared option given to a mode that does not read it, and
    fill each unset one.  What was given is seen before any is filled, since
    ``--repeats`` reads the value of ``--mode``, filled or given."""
    declared = getattr(args, "declared", ())
    given = [decl for decl in declared if getattr(args, decl[0]) is not None]
    vars(args).update((dest, default) for dest, _, _, default in declared
                      if getattr(args, dest) is None)
    for _, flag, rules, _ in given:
        for picker, modes, phrase in rules:
            value = getattr(args, picker)
            if value is not None if isinstance(modes, str) else value not in modes:
                raise ValidationError(f"{flag} applies only {phrase}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lindbladff",
        description="Fast-forwarded dephasing-Lindbladian simulation lab",
    )
    ap.add_argument("--out", help="write records to this file instead of stdout")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ev = sub.add_parser("evolve", help="run one Lindblad evolution")
    ev.set_defaults(handler=_cmd_evolve, declared=[])
    method = ev.add_argument("--method", choices=["ff", "dilated", "exact", "choi-ff"], default="ff")
    _declare(ev, "--N", {method: ("ff",)}, help="register-count override", type=int)
    _declare(ev, "--steps", {method: ("dilated",)}, help="step override", type=int)
    _declare(ev, "--ham", {method: ("exact", "dilated", "ff")}, help="Hamiltonian file")
    _declare(ev, "--jumps", {method: ("choi-ff",)}, help="jump-list file")
    ev.add_argument("--t", type=float, required=True)
    ev.add_argument("--eps", type=float, default=0.1)
    ev.add_argument("--state", default="plus")

    qp = sub.add_parser("qpe", help="phase estimation / eigenstate preparation")
    qp.set_defaults(handler=_cmd_qpe, declared=[])
    mode = qp.add_argument("mode", nargs="?", choices=["estimate", "prepare"], default="estimate")
    route = qp.add_argument("--route", choices=["standard", "slow", "fast"], required=True)
    qp.add_argument("--ham", required=True)
    qp.add_argument("--state", default="plus")
    _declare(qp, "--d", {route: ("standard",)}, 8, "register bits", type=int)
    _declare(qp, "--t", {route: ("slow", "fast")}, 16.0, "evolution time", type=float)
    _declare(qp, "--N", {route: ("slow", "fast")}, help="register count", type=int)
    zeta = _declare(qp, "--zeta", {route: ("fast",), mode: ("prepare",)}, type=float,
                    help="preparation inaccuracy target; sets eps=(c_beta*zeta)^2")
    _declare(qp, "--eps", {route: ("fast",), zeta: "which sets it"}, 1e-4,
             "fast-plan window error", type=float)
    _declare(qp, "--eigen", {mode: ("prepare",)}, 0, "target eigenspace", type=int)
    picked = _declare(qp, "--mode", {mode: ("estimate",)}, "exact", "count distribution",
                      dest="dist_mode", choices=["exact", "sample"])
    _declare(qp, "--repeats", {picked: ("sample",)}, 1, "repetitions, median outcome", type=int)
    _declare(qp, "--seed", {picked: ("sample",)}, help="sampling seed", type=int)

    gb = sub.add_parser("gibbs", help="Gibbs-state preparation sweep")
    gb.set_defaults(handler=_cmd_gibbs)
    gb.add_argument("--ham", required=True, help="problem Hamiltonian (PSD, norm <= 1)")
    gb.add_argument("--beta", default="1,2,4")
    gb.add_argument("--eps", type=float, default=0.05)

    ae = sub.add_parser("ae-demo", help="amplitude-estimation decision demo")
    ae.set_defaults(handler=_cmd_ae_demo, declared=[])
    oracle = ae.add_argument("--oracle", help="file of 0/1 oracle values")
    _declare(ae, "--n", {oracle: "whose file sets it"}, 4, "oracle address bits", type=int)
    _declare(ae, "--witnesses", {oracle: "whose file sets it"}, 0, "witness count", type=int)
    ae.add_argument("--runs", type=int, default=1)
    ae.add_argument("--t", type=float, default=250.0)
    ae.add_argument("--N", type=int, default=2048)
    ae.add_argument("--eps", type=float, default=1e-5)
    ae.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("stateprep", help="amplitude tables and angle schedules")
    sp.set_defaults(handler=_cmd_stateprep, declared=[])
    what = sp.add_argument("--what", choices=["binomial", "gaussian", "angles", "distance"],
                           required=True)
    sp.add_argument("--N", type=int, default=16)
    _declare(sp, "--mu", {what: ("gaussian", "angles")}, 8.0, "center", type=float)
    _declare(sp, "--sigma", {what: ("gaussian", "angles")}, 2.0, "width", type=float)

    bd = sub.add_parser("bounds", help="concentration-bound comparison grid")
    bd.set_defaults(handler=_cmd_bounds)
    bd.add_argument("--N-grid", dest="N_grid", default="10,50,100,200")
    bd.add_argument("--p-grid", dest="p_grid", default="0.1,0.3,0.5,0.7,0.9")
    bd.add_argument("--c-grid", dest="c_grid", default="0.05,0.15,0.25,0.35,0.45")

    bn = sub.add_parser("bench", help="scaling benchmark suites")
    suites = bn.add_subparsers(dest="suite", required=True)
    fd = suites.add_parser("ff-vs-dilated", help="cost slopes in t: ff 0.5, dilated 2.0")
    fd.set_defaults(handler=_bench_ff_vs_dilated)
    fd.add_argument("--t", default="1,2,4,8,16,32,64", help="time grid")
    qe = suites.add_parser("qpe-error", help="error slopes in cost: slow -0.5, fast -1")
    qe.set_defaults(handler=_bench_qpe_error)
    # the default grid starts at t h^2 = 16, past the small-count Poisson regime
    qe.add_argument("--t", default="16,32,64,128", help="time grid")
    qe.add_argument("--N-slow", dest="N_slow", type=int, default=1_000_000)
    qe.add_argument("--N-fast", dest="N_fast", type=int, default=4096)
    gbb = suites.add_parser("gibbs-beta", help="Gibbs preparation cost slope in beta: 0.5")
    gbb.set_defaults(handler=_bench_gibbs_beta)
    gbb.add_argument("--beta", default="1,2,4,8,16", help="inverse-temperature grid")
    for suite in (fd, qe, gbb):
        suite.add_argument("--eps", type=float, default=0.1, help="target error")
    return ap


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _check_modes(args)                      # before any file is opened
        chunks, rows = [], io.BytesIO()
        for line in args.handler(args, argv):
            if isinstance(line, str):           # a table row, gathered compactly
                rows.write(line.encode())
                rows.write(b"\n")
            else:                               # a record's pieces, held as built
                chunks += rows.getvalue(), *line, b"\n"
                rows = io.BytesIO()
        chunks.append(rows.getvalue())
        if args.out is not None:
            with open(os.path.join(os.environ.get("LINDBLADFF_OUT_DIR", ""), args.out), "wb") as fh:
                fh.writelines(chunks)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(chunks)
        else:                                   # a text stream alone, such as an io.StringIO
            sys.stdout.write(b"".join(chunks).decode())
    except (ValidationError, InvariantError, OSError) as exc:
        # an unreadable or unwritable file is a malformed input, as is bad text
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvariantError) else 1
    except Exception:  # noqa: BLE001 - CLI boundary
        import traceback

        traceback.print_exc()
        return 2
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    # os._exit skips interpreter finalization (atexit, module teardown, the
    # exit-time collections), so the buffered streams are flushed here
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # a reader that closed the pipe early
        code = code or 1
    os._exit(code)


if __name__ == "__main__":
    main()
