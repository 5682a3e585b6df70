"""Per-layer counters for the traced run.

``install`` wraps hmpc's public functions at the names their callers look
up.  hmpc modules import names directly (``from hmpc.lp import solve_lp``),
so a wrapper on ``hmpc.lp.solve_lp`` alone would miss every stage solve:
the stage module calls its own binding ``hmpc.stage.solve_lp``.  Each
entry below therefore names the importing module.  Methods are wrapped on
their class, which is where ``obj.method`` is looked up.

Times are inclusive wall seconds (``lp.busy_s`` is also inside
``stage.busy_s`` and ``cuts.master_s``).  A layer a workload never calls
reads 0.
"""

from __future__ import annotations

import functools
import time

LAYER_METRICS = (
    "lp.calls", "lp.pivots", "lp.busy_s",
    "stage.lookups", "stage.solves", "stage.cache_hit_ratio", "stage.pivots",
    "stage.busy_s",
    "controller.audits", "controller.audit_s",
    "cuts.vertices", "cuts.cert_checks", "cuts.cert_s", "cuts.cut_s",
    "cuts.rescale_s", "cuts.master_s", "cuts.master_pivots",
    "oracle.reference_s", "oracle.saa_s", "oracle.nonperiodic_s", "oracle.dense_mb",
    "scenarios.pool_s", "battery.template_s",
)

# Raw counters; cache_hit_ratio is derived from two of them in ``merge``.
_RAW = tuple(n for n in LAYER_METRICS if n != "stage.cache_hit_ratio") + ("stage.hits",)


def empty() -> dict:
    return {name: 0.0 for name in _RAW}


def merge(counters: list) -> dict:
    """Sum counters from several processes; the dense size is a peak."""
    total = empty()
    for c in counters:
        for name in _RAW:
            if name == "oracle.dense_mb":
                total[name] = max(total[name], c[name])
            else:
                total[name] += c[name]
    out = {name: total[name] for name in LAYER_METRICS if name in total}
    lookups = total["stage.lookups"]
    out["stage.cache_hit_ratio"] = total["stage.hits"] / lookups if lookups else 0.0
    return out


def _wrap(owner, name, counters, time_key=None, count_key=None, pre=None, post=None):
    """Replace ``owner.name`` by a wrapper that times and counts calls.

    ``pre(args)`` runs before the call and its value is handed to
    ``post(token, args, result)`` after it.
    """
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = pre(args) if pre else None
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        if time_key:
            counters[time_key] += time.perf_counter() - t0
        if count_key:
            counters[count_key] += 1
        if post:
            post(token, args, result)
        return result

    setattr(owner, name, wrapper)


def install(counters: dict) -> None:
    """Wrap every traced call site; ``counters`` comes from ``empty()``."""
    import hmpc.battery
    import hmpc.cli
    import hmpc.controller
    import hmpc.cuts
    import hmpc.lp
    import hmpc.oracle
    import hmpc.scenarios
    import hmpc.stage
    from hmpc.cuts import VertexStore
    from hmpc.stage import StageSolveCache

    def adder(key, of_result):
        def post(token, args, result):
            counters[key] += of_result(result)
        return post

    def growth(key, size):
        def post(token, args, result):
            counters[key] += size(args[0]) - token
        return lambda args: size(args[0]), post

    def dense_size(token, args, result):
        gen = args[0]
        mb = (gen.eq_rhs.size + gen.ub_rhs.size) * gen.n_vars * 8 / 1e6
        counters["oracle.dense_mb"] = max(counters["oracle.dense_mb"], mb)

    lp_pivots = adder("lp.pivots", lambda sol: sol.iterations)
    for mod in (hmpc.lp, hmpc.stage):
        _wrap(mod, "solve_lp", counters, "lp.busy_s", "lp.calls", post=lp_pivots)
    stage_pivots = adder("stage.pivots", lambda res: res.iterations)
    for mod in (hmpc.stage, hmpc.oracle):
        _wrap(mod, "solve_stage", counters, "stage.busy_s", "stage.solves", post=stage_pivots)
    pre, post = growth("stage.hits", lambda cache: cache.stats[0])
    _wrap(StageSolveCache, "solve", counters, None, "stage.lookups", pre, post)
    _wrap(hmpc.controller, "running_cost", counters, "controller.audit_s", "controller.audits")
    pre, post = growth("cuts.vertices", len)
    _wrap(VertexStore, "insert", counters, pre=pre, post=post)
    _wrap(VertexStore, "certified_mask", counters, "cuts.cert_s", "cuts.cert_checks")
    _wrap(hmpc.controller, "generate_cut", counters, "cuts.cut_s")
    _wrap(hmpc.controller, "rescale_cuts", counters, "cuts.rescale_s")
    _wrap(hmpc.controller, "solve_master", counters, "cuts.master_s")
    _wrap(hmpc.cuts, "solve_general", counters,
          post=adder("cuts.master_pivots", lambda res: res[0].iterations))
    _wrap(hmpc.oracle, "solve_general", counters, post=dense_size)
    for mod in (hmpc.oracle, hmpc.controller, hmpc.cli):
        _wrap(mod, "reference_cost", counters, "oracle.reference_s")
    for mod, name in ((hmpc.oracle, "solve_saa"), (hmpc.oracle, "solve_pool_saa"),
                      (hmpc.cli, "solve_saa")):
        _wrap(mod, name, counters, "oracle.saa_s")
    for mod in (hmpc.oracle, hmpc.cli):
        _wrap(mod, "solve_nonperiodic", counters, "oracle.nonperiodic_s")
    for mod, name in ((hmpc.scenarios, "synthetic_pool"), (hmpc.cli, "synthetic_pool"),
                      (hmpc.cli, "load_pool")):
        _wrap(mod, name, counters, "scenarios.pool_s")
    for mod in (hmpc.battery, hmpc.cli):
        _wrap(mod, "build_template", counters, "battery.template_s")
