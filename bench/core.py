"""Op model shared by the three workloads: seeds, outcomes, gates, the run loop.

A workload is a cycle of op kinds.  Op i of a run gets a seed derived from
(workload, run seed, i), so the same run seed always gives the same op list,
and a run repeats whole cycles until its time is up: every op kind then
appears equally often, which keeps per-op percentiles steady.
"""

from dataclasses import dataclass, field
import hashlib
import math
import sys
from time import perf_counter
import traceback

# Pre-registered bound on |z| for every statistical gate.  A run makes about
# ten gates; at 4.5 the chance that any of them fails by chance in one run is
# below 1e-4, while a biased estimator of the sizes used here fails it.
Z_BOUND = 4.5

# Relative standard error that time_to_accuracy_s extrapolates to.
TARGET_RSE = 0.01


def op_seed(workload, seed, index):
    """Seed of op `index`: a 63-bit hash of (workload, run seed, index)."""
    h = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digest_floats(*values):
    """Digest of floats by their exact repr, so any last-bit change shows."""
    return sha256(",".join(repr(float(v)) for v in values))


@dataclass
class Outcome:
    """What one op produced: its estimates (for gates) and their digest."""
    value: object
    digest: str
    replicas: int
    ok: bool = True
    problem: str = ""


@dataclass
class OpKind:
    """One entry of a workload's cycle.

    run(seed) makes the op's call into the public entry point a user calls
    and returns an Outcome.  replay(seed, tracer) does the same work through the
    layers' public functions with a span around every layer call; its
    Outcome digest must equal run's.
    """
    name: str
    run: object
    replay: object
    target: float = None    # exact mean of the op's estimate, where one exists


@dataclass
class OpRecord:
    index: int
    kind: str
    seed: int
    seconds: float
    outcome: Outcome = None
    error: str = ""

    @property
    def ok(self):
        return not self.error and self.outcome is not None and self.outcome.ok


@dataclass
class Gate:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


def z_gate(name, estimate, stderr, target, bound=Z_BOUND):
    if not (stderr > 0.0 and math.isfinite(stderr) and math.isfinite(estimate)):
        return Gate(name, False, {"estimate": estimate, "stderr": stderr,
                                  "target": target})
    z = (estimate - target) / stderr
    return Gate(name, abs(z) <= bound,
                {"estimate": estimate, "stderr": stderr, "target": target,
                 "z": z, "bound": bound})


def pooled(means_ses_ns):
    """Pool independent (mean, stderr, n) estimates into one (mean, stderr)."""
    total = sum(n for _, _, n in means_ses_ns)
    if total == 0:
        return math.nan, math.nan
    mean = sum(m * n for m, _, n in means_ses_ns) / total
    var = sum((se * n) ** 2 for _, se, n in means_ses_ns) / total ** 2
    return mean, math.sqrt(var)


def ratio(num, den):
    """num / den, or 0 when nothing was measured (den == 0)."""
    return num / den if den else 0.0


def mean_se(values):
    """Sample mean and its standard error."""
    n = len(values)
    if n < 2:
        return math.nan, math.nan
    m = math.fsum(values) / n
    var = math.fsum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


_reported = set()


def run_op(kind, index, seed, tracer=None):
    """Time one op; an exception fails the op and is reported once per kind.

    An op may return a callable instead of its Outcome; the callable runs
    after the clock stops, so digests and output checks are not timed.
    """
    t0 = perf_counter()
    try:
        out = kind.run(seed) if tracer is None else kind.replay(seed, tracer)
        seconds = perf_counter() - t0
        if callable(out):
            out = out()
        return OpRecord(index, kind.name, seed, seconds, out)
    except Exception as e:  # an op boundary: record, report, keep running
        rec = OpRecord(index, kind.name, seed, perf_counter() - t0,
                       error=f"{type(e).__name__}: {e}")
        if kind.name not in _reported:
            _reported.add(kind.name)
            traceback.print_exc(file=sys.stderr)
        return rec


def run_cycles(workload, seed, seconds, before_cycle):
    """Untraced run of whole cycles until `seconds` have passed (at least one)."""
    records = []
    t0 = perf_counter()
    while True:
        before_cycle()
        for kind in workload.kinds:
            i = len(records)
            records.append(run_op(kind, i, op_seed(workload.name, seed, i)))
        if perf_counter() - t0 >= seconds:
            return records


def rerun(workload, records, before_cycle):
    """Run every op of `records` again, in order, keeping its faster time.

    The machine's speed varies at sub-second scale and in phases of a few
    seconds; the fastest of a few runs of an op spread over the whole run is
    far steadier than any single run.  An op fails if any run fails or two
    runs' outputs differ.
    """
    kinds = {k.name: k for k in workload.kinds}
    for i, rec in enumerate(records):
        if i % len(kinds) == 0:
            before_cycle()
        records[i] = _faster(rec, run_op(kinds[rec.kind], rec.index, rec.seed))


def _faster(best, rec):
    """Fold one more run of an op into its record."""
    if rec.error and not best.error:
        best.error = rec.error
    elif (best.outcome is not None and rec.outcome is not None
          and best.outcome.ok and rec.outcome.digest != best.outcome.digest):
        best.outcome.ok = False
        best.outcome.problem = "output differs between runs of the same op"
    best.seconds = min(best.seconds, rec.seconds)
    return best


def run_paired(workload, seed, cycles, tracer):
    """`cycles` whole cycles, each op run untraced and then replayed traced.

    Pairing every op with its replay keeps slow drifts of the machine out of
    the comparison of the two.  Returns (untraced records, traced records).
    """
    records, traced = [], []
    for _ in range(cycles):
        for kind in workload.kinds:
            i = len(records)
            records.append(run_op(kind, i, op_seed(workload.name, seed, i)))
            tracer.op = i
            with tracer.span("op"):
                traced.append(run_op(kind, i, records[-1].seed, tracer))
    tracer.op = -1
    return records, traced


def by_kind(records, kind):
    return [r for r in records if r.kind == kind and r.outcome is not None]
