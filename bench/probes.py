"""Fixed-size probes of single public functions, for the traced run.

Each probe does the same amount of work on every run and reports the median
of REPEATS timings, as a rate (per second) or as seconds per call.
"""

import statistics
from time import perf_counter

REPEATS = 5
DRAWS = 20_000
CHUNK = 1000            # uniforms per Stream.uniforms call
PHI_GRID = [0.25 * k for k in range(1, 9)]


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _rate(count, fn):
    return count / _median_time(fn)


def stream_and_measure_probes(H, ref):
    s = H.Stream(H.derive_key(0x5EED, 0))

    def loop(fn, n=DRAWS):
        def run():
            for _ in range(n):
                fn(s)
        return run

    out = {
        "streams.uniform.per_s": _rate(DRAWS, loop(H.Stream.uniform)),
        "streams.exponential.per_s": _rate(
            DRAWS, loop(lambda st: st.exponential(1.0))),
        "streams.uniforms.per_s": _rate(
            DRAWS, loop(lambda st: st.uniforms(CHUNK), DRAWS // CHUNK)),
        "measures.sample.per_s": _rate(DRAWS, loop(ref.ub.sample)),
    }
    for name, model in (("uniform_binary", ref.ub),
                        ("power_tail_binary", ref.ptail),
                        ("atomic", ref.dyadic)):
        out[f"measures.sample_masses.per_s.{name}"] = _rate(
            DRAWS, loop(model.sample_masses))
    return out


def analytics_probes(H, ref):
    """Evaluator construction, p_bar and phi per mode (fresh evaluators)."""
    cases = {
        "closed_form": (ref.ub, {"mode": "closed_form"}),
        "quadrature": (ref.ptail, {"mode": "quadrature"}),
        "monte_carlo": (ref.ptail, {"mode": "monte_carlo"}),
    }
    out = {}
    for mode, (model, kwargs) in cases.items():
        out[f"analytics.init_s.{mode}"] = _median_time(
            lambda: H.PhiEvaluator(model, **kwargs))
        fresh = [H.PhiEvaluator(model, **kwargs) for _ in range(REPEATS)]
        out[f"analytics.p_bar_s.{mode}"] = _median_time(
            lambda: fresh.pop().p_bar())
        ev = H.PhiEvaluator(model, **kwargs)
        out[f"analytics.phi_per_s.{mode}"] = _rate(
            len(PHI_GRID), lambda: [ev.phi(q) for q in PHI_GRID])
    return out
