"""Where the traced run wraps sectorpack, and the per-layer metrics it reads off.

Each layer is a module of the package: verify, packing, layout, poly, core and
cli.  The wrappers sit on the calls between them, so a span's self time is the
time the layer spends on its own work.
"""

from __future__ import annotations

import functools

from tracer import OPEN, Tracer


def install(tr: Tracer) -> None:
    """Wrap the calls into each sectorpack layer; `tr.restore()` undoes it."""
    c = tr.counts
    in_search, in_cli, in_iterate = (tr.stat(name) for name in
                                     ("verify.search", "cli.layout", "layout.iterate"))

    def rows(name, args, kwargs, result):
        c["verify.search.candidates"] += len(result)
        c["verify.search.chunks"] += 1
        c["verify.search.max_chunk_rows"] = max(c["verify.search.max_chunk_rows"], len(result))

    def screen_name(args, kwargs):
        prefix = args[2] if len(args) > 2 else kwargs.get("prefix")
        return "verify.search.screen48" if prefix is None else "verify.search.full"

    def screened(name, args, kwargs, result):
        c[name + ".in"] += len(args[0])
        c[name + ".out"] += len(result)

    def verify_name(args, kwargs):
        return "verify.search.certify" if in_search[OPEN] else "verify.packing"

    def verified(name, args, kwargs, result):
        if name == "verify.packing":
            c["verify.packing.points"] += result.points_examined

    def ranked(name, args, kwargs, result):
        if in_cli[OPEN]:
            c["cli.layout.rank_calls"] += 1

    def unranked(name, args, kwargs, result):
        if in_iterate[OPEN]:
            c["layout.iterate.unrank_calls"] += 1

    def filled(name, args, kwargs, result):
        array = args[0]
        c["layout.population"] += array.population
        c["layout.storage"] += array.storage_length

    def grow(fn):
        @functools.wraps(fn)
        def wrapper(array, offset):
            before = array.storage_length
            fn(array, offset)
            if array.storage_length != before:
                c["layout.grow.calls"] += 1
        return wrapper

    V, P, L = "sectorpack.verify:", "sectorpack.packing:", "sectorpack.layout:"
    tr.install(V + "search_quadratic", tr.span("verify.search"), ("verify.search",))
    tr.install(V + "_candidate_rows", tr.span("verify.search.rows", after=rows),
               ("verify.search.rows",))
    screens = ("verify.search.screen48", "verify.search.full")
    tr.install(V + "_screen", tr.span(screen_name, after=screened, names=screens), screens)
    verifies = ("verify.search.certify", "verify.packing")
    tr.install(V + "verify_packing", tr.span(verify_name, after=verified, names=verifies),
               verifies)
    tr.install(V + "_examined_region", tr.span("verify.region"), ("verify.region",))
    tr.install("sectorpack.poly:QuadPoly.scaled_integer_form",
               tr.span("poly.scaled_form", keep_span=False), ("poly.scaled_form",))
    tr.install("sectorpack.core:Sector.column_height",
               tr.span("core.column_height", keep_span=False), ("core.column_height",))
    tr.install(P + "PackingFamily.rank", tr.span("packing.rank", keep_span=False, after=ranked),
               ("packing.rank",))
    tr.install(P + "PackingFamily.unrank",
               tr.span("packing.unrank", keep_span=False, after=unranked), ("packing.unrank",))
    tr.install(P + "_largest_with", tr.span("packing.bisect", keep_span=False),
               ("packing.bisect",))
    tr.install(L + "SectorArray.put", tr.span("layout.put", keep_span=False), ("layout.put",))
    tr.install(L + "SectorArray._grow_to", grow, ("layout.grow",))
    tr.install(L + "SectorArray.dense_prefix_fill", tr.span("layout.fill", after=filled),
               ("layout.fill",))
    tr.install(L + "SectorArray.iterate", tr.span_iter("layout.iterate"), ("layout.iterate",))
    # the bench calls the CLI only for `layout`, so this frame is that command
    tr.install("sectorpack.cli:main", tr.span("cli.layout"), ("cli.layout",))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, overhead_s: float) -> tuple[dict, list[str]]:
    """(metric name -> (value, unit), names of metrics whose frames are absent)."""
    c = tr.counts
    s = tr.busy_s
    # metric -> (frames it reads, unit, value)
    table = {
        "verify.search.candidates": ("verify.search.rows", "count", c["verify.search.candidates"]),
        "verify.search.rows_s": ("verify.search.rows", "s", s("verify.search.rows")),
        "verify.search.screen48_in": ("verify.search.screen48", "count",
                                      c["verify.search.screen48.in"]),
        "verify.search.screen48_out": ("verify.search.screen48", "count",
                                       c["verify.search.screen48.out"]),
        "verify.search.screen48_s": ("verify.search.screen48", "s", s("verify.search.screen48")),
        "verify.search.screen48_pass_ratio": (
            "verify.search.screen48", "ratio",
            _ratio(c["verify.search.screen48.out"], c["verify.search.screen48.in"])),
        "verify.search.full_in": ("verify.search.full", "count", c["verify.search.full.in"]),
        "verify.search.full_out": ("verify.search.full", "count", c["verify.search.full.out"]),
        "verify.search.full_s": ("verify.search.full", "s", s("verify.search.full")),
        "verify.search.full_pass_ratio": (
            "verify.search.full", "ratio",
            _ratio(c["verify.search.full.out"], c["verify.search.full.in"])),
        "verify.search.certify_calls": ("verify.search.certify", "count",
                                        tr.calls("verify.search.certify")),
        "verify.search.certify_s": ("verify.search.certify", "s", s("verify.search.certify")),
        "verify.search.chunks": ("verify.search.rows", "count", c["verify.search.chunks"]),
        "verify.search.max_chunk_rows": ("verify.search.rows", "count",
                                         c["verify.search.max_chunk_rows"]),
        "verify.search.self_s": ("verify.search", "s", tr.self_s("verify.search")),
        "verify.packing.calls": ("verify.packing", "count", tr.calls("verify.packing")),
        "verify.packing.points": ("verify.packing", "count", c["verify.packing.points"]),
        "verify.packing.busy_s": ("verify.packing", "s", s("verify.packing")),
        "verify.region_s": ("verify.region", "s", s("verify.region")),
        "poly.scaled_form.calls": ("poly.scaled_form", "count", tr.calls("poly.scaled_form")),
        "core.column_height.calls": ("core.column_height", "count",
                                     tr.calls("core.column_height")),
        "packing.rank.calls": ("packing.rank", "count", tr.calls("packing.rank")),
        "packing.rank.busy_s": ("packing.rank", "s", s("packing.rank")),
        "packing.unrank.calls": ("packing.unrank", "count", tr.calls("packing.unrank")),
        "packing.unrank.busy_s": ("packing.unrank", "s", s("packing.unrank")),
        "packing.bisect.calls": ("packing.bisect", "count", tr.calls("packing.bisect")),
        "packing.bisect.busy_s": ("packing.bisect", "s", s("packing.bisect")),
        "layout.put.calls": ("layout.put", "count", tr.calls("layout.put")),
        "layout.put.busy_s": ("layout.put", "s", s("layout.put")),
        "layout.grow.calls": ("layout.grow", "count", c["layout.grow.calls"]),
        "layout.fill_ratio": ("layout.fill", "ratio",
                              _ratio(c["layout.population"], c["layout.storage"])),
        "layout.iterate.unrank_calls": ("layout.iterate", "count",
                                        c["layout.iterate.unrank_calls"]),
        "cli.layout.rank_calls": ("cli.layout", "count", c["cli.layout.rank_calls"]),
        "cli.layout.self_s": ("cli.layout", "s", tr.self_s("cli.layout")),
        "verify.self_s": ("verify.search", "s", tr.layer_self_s("verify")),
        "packing.self_s": ("packing.rank", "s", tr.layer_self_s("packing")),
        "layout.self_s": ("layout.put", "s", tr.layer_self_s("layout")),
        "poly.self_s": ("poly.scaled_form", "s", tr.layer_self_s("poly")),
        "core.self_s": ("core.column_height", "s", tr.layer_self_s("core")),
        "trace.overhead_s": ("", "s", overhead_s),
    }
    metrics = {name: (value, unit) for name, (_, unit, value) in table.items()}
    absent = [name for name, (frame, _, _) in table.items() if frame in tr.absent]
    return metrics, absent
