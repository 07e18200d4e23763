"""Run one lindbladff CLI call with spans around its public functions.

Usage: python tracer.py SPANS_JSON ARGV...

The tracer times a cold ``import lindbladff.cli``, then replaces each traced
function at every place it is bound (``from .x import f`` copies and the
module attribute itself, which ``nk.f``-style calls read), calls
``lindbladff.cli.run(ARGV)`` and writes the spans and work counts to
SPANS_JSON.  Spans stay in memory until the call returns.  Functions marked
``peak`` also record their tracemalloc peak above the level at entry.
Nothing inside the program is modified on disk.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc


def _projector_bytes(args, kwargs, result, before):
    return sum(p.nbytes for p in getattr(result, "projectors", ()))


def _ledger_entries(args, kwargs, result, before):
    return result.states.size


def _pmf_terms(args, kwargs, result, before):
    return result[1].size


def _level_pairs(args, kwargs, result, before):
    return len(args[0].eigenvalues) ** 2


def _kravchuk_cached(args, kwargs):
    cache = getattr(sys.modules["lindbladff.qpe"], "_kravchuk_cache", {})
    return args[0] in cache


def _kravchuk_bytes(args, kwargs, result, before):
    return 0 if before else result.nbytes


def _generator_pairs(args, kwargs, result, before):
    k = len(args[0].jumps)
    return k * (k - 1) // 2


def _dilated_steps(args, kwargs, result, before):
    return args[3] if len(args) > 3 else kwargs["steps"]


# (module, function, records a memory peak, count name, count hook, pre-call hook)
TARGETS = [
    ("cli", "run", False, None, None, None),
    ("model", "format_dense_matrix", False, None, None, None),
    ("model", "load_hamiltonian_text", False, None, None, None),
    ("model", "normalize_spectrum", True, "model.projector_bytes", _projector_bytes, None),
    ("numkernel", "herm_eig", False, None, None, None),
    ("model", "decompose_state", False, None, None, None),
    ("fastforward", "plan", False, None, None, None),
    ("fastforward", "goal_ledger", False, "fastforward.ledger_entries", _ledger_entries, None),
    ("fastforward", "ff_evolve", True, None, None, None),
    ("kernels", "binom_residue_weights", False, None, None, None),
    ("kernels", "binom_pmf_window", False, "kernels.pmf_terms", _pmf_terms, None),
    ("exact_oracle", "lindblad_exact_hermitian", True, "exact_oracle.level_pairs", _level_pairs, None),
    ("dilated", "dilated_evolve", True, "dilated.steps", _dilated_steps, None),
    ("qpe", "kravchuk_unitary", True, "qpe.kravchuk_bytes", _kravchuk_bytes, _kravchuk_cached),
    ("qpe", "fast_qpe", False, None, None, None),
    ("qpe", "fast_qpe_eigenstate", False, None, None, None),
    ("qpe", "slow_qpe", False, None, None, None),
    ("qpe", "slow_qpe_eigenstate", False, None, None, None),
    ("qpe", "standard_qpe", False, None, None, None),
    ("qpe", "amplitude_decision_demo", False, None, None, None),
    ("choi", "is_choi_commuting", True, "choi.generator_pairs", _generator_pairs, None),
    ("choi", "choi_ff_evolve", False, None, None, None),
    ("gibbs", "gibbs_prepare", False, None, None, None),
    ("stateprep", "binomial_amplitudes", False, None, None, None),
    ("concentration", "binomial_tail", False, None, None, None),
]


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._open = []        # indices of open spans
        self._peak_frames = []  # [base bytes, highest peak seen by nested resets]
        self.peaks = {}        # name -> largest peak above entry, bytes
        self.counts = {}

    def _peak_enter(self):
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._peak_frames:
                outer = self._peak_frames[-1]
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            current = 0
        self._peak_frames.append([current, 0])

    def _peak_exit(self, name):
        base, nested = self._peak_frames.pop()
        peak = max(tracemalloc.get_traced_memory()[1], nested)
        self.peaks[name] = max(self.peaks.get(name, 0), peak - base)
        if self._peak_frames:
            outer = self._peak_frames[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.stop()

    def wrap(self, name, fn, peak, count_name, count, pre):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            if peak:
                self._peak_enter()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
                if peak:
                    self._peak_exit(name)
            if count:
                self.counts[count_name] = self.counts.get(count_name, 0) + int(
                    count(args, kwargs, result, before))
            return result
        return traced

    def install(self):
        """Rebind every traced function wherever a lindbladff module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lindbladff" or n.startswith("lindbladff."))]
        for mod_name, fn_name, peak, count_name, count, pre in TARGETS:
            home = sys.modules.get(f"lindbladff.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # removed by a later version of the program: reported as 0 calls
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, peak, count_name, count, pre)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import lindbladff.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1])
    tracer.install()
    try:
        code = lindbladff.cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "peaks": tracer.peaks, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
