"""In-memory span tracer for one duflo command, and the per-layer metrics.

The tracer wraps the public functions of each layer from outside the
program.  Several duflo modules import functions by name (cli, hodge, pbw
and linalg use `from ... import`), so one function is bound under several
module names; install() rebinds every binding that `is` the original, or
those calls would escape the trace.  Methods are wrapped on their class.
The coaction cache of pbw is read through its public cache_info(), never
wrapped.

Each span records (name, outer start, start, end, outer end, parent).  The
inner interval times the call itself; the outer interval also covers the
tracer's own bookkeeping (counting work from the arguments).  A span's self
time is its inner duration minus the outer durations of its children, so
the tracer's work is charged to no layer.
"""

import sys
import time
from collections import defaultdict
from math import factorial

_clock = time.perf_counter


def _max_bits(rows):
    """Largest numerator or denominator bit length in a list of rows."""
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in rows for x in row),
        default=0,
    )


def _count_mat_mul(tr, args, result):
    a, b = args[0], args[1]
    tr.counts["linalg.mat_mul.mults"] += a.rows * a.cols * b.cols
    tr.max_bits = max(tr.max_bits, *(_max_bits(m.entries) for m in (a, b, result)))


def _count_kernel(tr, args, result):
    m = args[0]
    tr.counts["linalg.kernel.cells"] += m.rows * m.cols
    tr.max_bits = max(tr.max_bits, _max_bits(m.entries), _max_bits(result))


def _count_symmetrize(tr, args, result):
    s = args[0]
    monomials = [s] if isinstance(s, tuple) else list(s.terms)
    tr.counts["pbw.symmetrize.perms"] += sum(factorial(len(m)) for m in monomials)
    tr.counts["pbw.symmetrize.words"] += len(result.terms)


def _count_invariants(tr, args, result):
    tr.counts["pbw.invariants_s.found"] += len(result)


def _count_pairs(name):
    def count(tr, args, result):
        tr.counts[name + ".pairs"] += len(args[0].terms) * len(args[1].terms)
    return count


def _count_series_pairs(tr, args, result):
    if hasattr(args[1], "terms"):
        tr.counts["series.mul.pairs"] += len(args[0].terms) * len(args[1].terms)


def _count_kernel_dim(tr, args, result):
    tr.counts["hodge.exp_atiyah_kernel.kernel_dim"] += len(result)


def _count_lines(tr, args, result):
    tr.counts["report.lines"] += len(args[0].reports)


# (span name, module, attribute or Class.method, work counter or None).
# Spans without a metric of their own still count toward their layer's
# self time, which would otherwise be charged to the caller's layer.
SPANS = (
    ("cli.main", "duflo.cli", "main", None),
    ("catalog.load_algebra", "duflo.catalog", "load_algebra", None),
    ("catalog.representations", "duflo.catalog", "representations", None),
    ("catalog.load_representation", "duflo.catalog", "load_representation", None),
    ("linalg.mat_mul", "duflo.linalg", "mat_mul", _count_mat_mul),
    ("linalg.kernel", "duflo.linalg", "kernel", _count_kernel),
    ("kernels.matmul_pairs", "duflo.kernels", "matmul_pairs", None),
    ("kernels.rref_int", "duflo.kernels", "rref_int", None),
    ("pbw.symmetrize", "duflo.pbw", "symmetrize", _count_symmetrize),
    ("pbw.theta", "duflo.pbw", "theta", None),
    ("pbw.phi", "duflo.pbw", "phi", None),
    ("pbw.invariants_s", "duflo.pbw", "invariants_s", _count_invariants),
    ("pbw.derivation_apply", "duflo.pbw", "derivation_apply", None),
    ("pbw.check_pbw_diagram", "duflo.pbw", "check_pbw_diagram", None),
    ("pbw.adjunction_check", "duflo.pbw", "adjunction_check", None),
    ("hodge.wedge", "duflo.hodge", "wedge", _count_pairs("hodge.wedge")),
    ("hodge.exp_form", "duflo.hodge", "exp_form", None),
    ("hodge.mukai_line", "duflo.hodge", "mukai_line", None),
    ("hodge.contract_exp_atiyah", "duflo.hodge", "contract_exp_atiyah", None),
    ("hodge.contract", "duflo.hodge", "contract_T_on_Omega", _count_pairs("hodge.contract")),
    ("hodge.contract", "duflo.hodge", "contract_Omega_on_T", _count_pairs("hodge.contract")),
    ("hodge.exp_atiyah_kernel", "duflo.hodge", "exp_atiyah_kernel", _count_kernel_dim),
    ("hodge.check_mukai_implication", "duflo.hodge", "check_mukai_implication", None),
    ("hodge.first_order_check", "duflo.hodge", "first_order_check", None),
    ("hodge.duflo", "duflo.hodge", "duflo", None),
    ("hodge.duflo_inverse", "duflo.hodge", "duflo_inverse", None),
    ("series.mul", "duflo.series", "GradedSeries.__mul__", _count_series_pairs),
    ("series.power_sums", "duflo.series", "power_sums", None),
    ("series.todd", "duflo.series", "todd", None),
    ("series.sqrt_todd", "duflo.series", "sqrt_todd", None),
    ("series.chern_character", "duflo.series", "chern_character", None),
    ("series.mukai_vector", "duflo.series", "mukai_vector", None),
    ("report.emit", "duflo.report", "ReportSink.emit", _count_lines),
)

# Layers with a layer.<name>.self_s metric; cli's own time is cli.self_s.
LAYERS = ("catalog", "linalg", "kernels", "pbw", "hodge", "series", "report")

# (metric, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("kernels.matmul_pairs.self_s", "s", "lower", "wall_s on lie"),
    ("linalg.mat_mul.calls", "count", "lower", "wall_s on lie"),
    ("linalg.mat_mul.self_s", "s", "lower", "wall_s on lie"),
    ("linalg.mat_mul.mults", "count", "lower", "wall_s on lie"),
    ("kernels.rref_int.calls", "count", "lower", "wall_s on lie and hodge-series"),
    ("kernels.rref_int.self_s", "s", "lower", "wall_s on lie and hodge-series"),
    ("linalg.kernel.calls", "count", "lower", "wall_s on lie and hodge-series"),
    ("linalg.kernel.self_s", "s", "lower", "wall_s on lie and hodge-series"),
    ("linalg.kernel.cells", "count", "lower", "wall_s on lie and hodge-series"),
    ("linalg.max_bits", "bits", "lower", "wall_s on lie and hodge-series"),
    ("pbw.symmetrize.self_s", "s", "lower", "wall_s on lie"),
    ("pbw.symmetrize.perms", "count", "lower", "wall_s on lie"),
    ("pbw.symmetrize.words", "count", "lower", "wall_s on lie"),
    ("pbw.symmetrize.useful_ratio", "ratio", "higher", "wall_s on lie"),
    ("pbw.theta.self_s", "s", "lower", "wall_s on lie"),
    ("pbw.phi.self_s", "s", "lower", "wall_s on lie"),
    ("pbw.coaction.hits", "count", "higher", "wall_s on lie"),
    ("pbw.coaction.misses", "count", "lower", "wall_s on lie"),
    ("pbw.coaction.hit_ratio", "ratio", "higher", "wall_s on lie"),
    ("pbw.coaction.entries", "count", "lower", "peak_rss_mb on lie"),
    ("pbw.invariants_s.self_s", "s", "lower", "wall_s on lie"),
    ("pbw.invariants_s.found", "count", "higher", "wall_s on lie"),
    ("pbw.derivation_apply.self_s", "s", "lower", "wall_s on lie"),
    ("pbw.check_pbw_diagram.calls", "count", "higher", "wall_s on lie"),
    ("catalog.load_algebra.self_s", "s", "lower", "wall_s on lie"),
    ("catalog.representations.self_s", "s", "lower", "wall_s on lie"),
    ("hodge.wedge.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.wedge.self_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.wedge.pairs", "count", "lower", "wall_s on hodge-series"),
    ("hodge.exp_form.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.exp_form.self_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.mukai_line.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.contract_exp_atiyah.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.contract_exp_atiyah.self_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.contract.self_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.contract.pairs", "count", "lower", "wall_s on hodge-series"),
    ("hodge.exp_atiyah_kernel.self_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.exp_atiyah_kernel.kernel_dim", "count", "higher", "wall_s on hodge-series"),
    ("hodge.check_mukai_implication.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.check_mukai_implication.total_s", "s", "lower", "wall_s on hodge-series"),
    ("hodge.first_order_check.calls", "count", "lower", "wall_s on hodge-series"),
    ("hodge.first_order_check.total_s", "s", "lower", "wall_s on hodge-series"),
    ("series.mul.calls", "count", "lower", "wall_s on hodge-series"),
    ("series.mul.self_s", "s", "lower", "wall_s on hodge-series"),
    ("series.mul.pairs", "count", "lower", "wall_s on hodge-series"),
    ("series.power_sums.self_s", "s", "lower", "wall_s on hodge-series"),
    ("series.todd.total_s", "s", "lower", "wall_s on hodge-series"),
    ("report.emit.self_s", "s", "lower", "wall_s on lie"),
    ("report.lines", "count", "higher", "reports_per_s on lie"),
    ("cli.self_s", "s", "lower", "wall_s on all workloads"),
) + tuple(
    (f"layer.{layer}.self_s", "s", "lower", "wall_s on the workloads that run it")
    for layer in LAYERS
) + (
    ("trace.overhead", "ratio", "lower", "no end-to-end metric: it is traced over untraced wall_s"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, outer_start, start, end, outer_end, parent]
        self.open = []
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.missing = []

    def wrap(self, name, fn, count):
        spans, open_ = self.spans, self.open

        def traced(*args, **kwargs):
            rec = [name, _clock(), 0.0, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                open_.pop()
                rec[2] = t0
                rec[3] = rec[4] = t1
            if count is not None:
                count(self, args, result)
            rec[4] = _clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in SPANS under every duflo name bound to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "duflo" or n.startswith("duflo.")]
        for name, modname, attr, count in SPANS:
            module = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = vars(owner).get(meth) if owner is not None else None
            if not callable(orig):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, orig, count)
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def summary(self):
        """Per-process aggregate: {span: [calls, total_s, self_s]} plus counts."""
        cover = [0.0] * len(self.spans)
        for _, o0, _, _, o1, parent in self.spans:
            if parent >= 0:
                cover[parent] += o1 - o0
        spans = {}
        for i, (name, _, t0, t1, _, _) in enumerate(self.spans):
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - cover[i]
        coaction = None
        pbw = sys.modules.get("duflo.pbw")
        cache = getattr(getattr(pbw, "_iterated_coaction", None), "cache_info", None)
        if cache is not None:
            info = cache()
            coaction = [info.hits, info.misses, info.currsize]
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "max_bits": self.max_bits,
            "coaction": coaction,
            "missing": self.missing,
        }


def merge(summaries):
    """Sum the per-process summaries of one pass."""
    out = {"spans": {}, "counts": defaultdict(int), "max_bits": 0,
           "coaction": [0, 0, 0], "missing": set()}
    for s in summaries:
        for name, (calls, total, self_s) in s["spans"].items():
            agg = out["spans"].setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in s["counts"].items():
            out["counts"][name] += value
        out["max_bits"] = max(out["max_bits"], s["max_bits"])
        if s["coaction"] is not None:
            hits, misses, entries = s["coaction"]
            out["coaction"][0] += hits
            out["coaction"][1] += misses
            out["coaction"][2] = max(out["coaction"][2], entries)
        out["missing"].update(s["missing"])
    return out


_SPAN_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def layer_metrics(agg):
    """Every PER_LAYER metric except trace.overhead, from one pass's aggregate."""
    spans, counts = agg["spans"], agg["counts"]

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field]

    hits, misses, entries = agg["coaction"]
    perms = counts.get("pbw.symmetrize.perms", 0)
    words = counts.get("pbw.symmetrize.words", 0)
    derived = {
        "linalg.max_bits": agg["max_bits"],
        "pbw.symmetrize.useful_ratio": words / perms if perms else 0.0,
        "pbw.coaction.hits": hits,
        "pbw.coaction.misses": misses,
        "pbw.coaction.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pbw.coaction.entries": entries,
        "cli.self_s": span("cli.main", 2),
    }
    for layer in LAYERS:
        derived[f"layer.{layer}.self_s"] = sum(
            v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer
        )
    out = {}
    for name, _, _, _ in PER_LAYER:
        base, field = name.rsplit(".", 1)
        if name == "trace.overhead":
            continue
        if name in derived:
            out[name] = derived[name]
        elif field in _SPAN_FIELDS:
            out[name] = span(base, _SPAN_FIELDS[field])
        else:
            out[name] = counts.get(name, 0)
    return out


def is_count(name):
    return not name.endswith("_s") and name != "trace.overhead"
