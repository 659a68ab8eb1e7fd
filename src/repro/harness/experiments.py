"""One entry point per table/figure of the paper.

Every function returns a plain, JSON-friendly dict so the benchmark
harness, the CLI, and the tests can all consume the same results.
Speedups are fractions (0.05 == +5%); coverage is a fraction of
predictable loads.  See EXPERIMENTS.md for paper-vs-measured values.

Timing sweeps (everything built on per-(workload, config) speedup
runs) are decomposed into independent **cells** and executed through
:mod:`repro.harness.resilient`: under the default policy they run
in-process exactly as the historical loops did, but the CLI can arm
per-cell timeouts, retries and worker subprocesses around any of
them, and with ``REPRO_RESULTS_DB_DIR`` set a killed campaign finishes
by rerunning it against the results database.  When cells fail
terminally, the experiment still returns its aggregate over the
surviving cells plus a structured ``"failures"`` summary.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from repro.classify.oracle import LoadPattern, classify_trace
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.composite.heterogeneous import (
    paper_config,
    storage_kib,
    table6_candidates,
)
from repro.harness import resilient
from repro.harness.functional import run_functional
from repro.harness.presets import QUICK, ExperimentScale
from repro.harness.runner import speedup_cell, workload_trace
from repro.predictors import COMPONENT_NAMES, make_component
from repro.predictors.fpc_vectors import table_iv_rows
from repro.workloads.listing1 import listing1_trace
from repro.workloads.profiles import ALL_WORKLOADS, WORKLOAD_FAMILY


def _mean(values) -> float:
    values = list(values)
    return statistics.mean(values) if values else 0.0


def _composite_spec(config: CompositeConfig) -> dict:
    return {"kind": "composite", "config": config}


def _component_spec(name: str, entries: int) -> dict:
    return {"kind": "component", "name": name, "entries": entries}


def _eves_spec(variant: str, seed: int) -> dict:
    return {"kind": "eves", "variant": variant, "seed": seed}


def _gather(report: "resilient.SweepReport", ids, metric: str) -> list:
    """The named metric from every surviving cell in ``ids``."""
    values = (report.value(cell_id) for cell_id in ids)
    return [value[metric] for value in values if value is not None]


def _composite_config(scale: ExperimentScale, per_component: int,
                      **overrides) -> CompositeConfig:
    config = CompositeConfig(
        epoch_instructions=scale.epoch_instructions, seed=scale.seed
    ).homogeneous(per_component)
    return replace(config, **overrides) if overrides else config


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def table1_taxonomy() -> dict:
    """Table I: the four component predictors' taxonomy."""
    return {
        "rows": [
            {"predictor": "LVP", "predicts": "values", "context": "agnostic"},
            {"predictor": "SAP", "predicts": "addresses", "context": "agnostic"},
            {"predictor": "CVP", "predicts": "values", "context": "aware"},
            {"predictor": "CAP", "predicts": "addresses", "context": "aware"},
        ]
    }


def table2_workloads() -> dict:
    """Table II: the workload population, grouped by family."""
    by_family: dict[str, list[str]] = {}
    for name, family in WORKLOAD_FAMILY.items():
        by_family.setdefault(family, []).append(name)
    return {
        "total": len(ALL_WORKLOADS),
        "families": {f: sorted(ws) for f, ws in sorted(by_family.items())},
    }


def table3_core_config() -> dict:
    """Table III: baseline core configuration actually used."""
    from repro.pipeline.config import CoreConfig

    cfg = CoreConfig()
    return {
        "fetch_width": cfg.fetch_width,
        "issue_width": cfg.issue_width,
        "rob/iq/ldq/stq": (
            cfg.rob_entries, cfg.iq_entries, cfg.ldq_entries, cfg.stq_entries
        ),
        "fetch_to_execute": cfg.fetch_to_execute,
        "l1d": f"{cfg.hierarchy.l1d.size_bytes // 1024}KB "
               f"{cfg.hierarchy.l1d.associativity}-way "
               f"{cfg.hierarchy.l1d.hit_latency}-cycle",
        "l2": f"{cfg.hierarchy.l2.size_bytes // 1024}KB, "
              f"{cfg.hierarchy.l2.hit_latency}-cycle",
        "l3": f"{cfg.hierarchy.l3.size_bytes // (1024 * 1024)}MB, "
              f"{cfg.hierarchy.l3.hit_latency}-cycle",
        "memory_latency": cfg.hierarchy.memory_latency,
        "tlb": f"{cfg.hierarchy.tlb_entries}-entry "
               f"{cfg.hierarchy.tlb_associativity}-way",
    }


def table4_parameters() -> dict:
    """Table IV: predictor parameters, FPC vectors, storage."""
    rows = table_iv_rows()
    for row in rows:
        predictor = make_component(row["predictor"].lower(), 1024)
        row["storage_kib_at_1k"] = round(predictor.storage_kib(), 2)
    return {"rows": rows}


def table5_listing1(outer_m: int = 24, inner_n: int = 16) -> dict:
    """Table V: first predicted inner-loop load per outer iteration.

    Runs each component predictor (functionally, 4K entries so aliasing
    is nil -- the paper's "assuming no predictor aliasing") over the
    Listing-1 loop nest and records, for selected outer iterations, the
    first inner iteration whose scan load was predicted.  ``None``
    means the predictor never predicted during that outer iteration.
    """
    from repro.branch.history import HistorySet
    from repro.isa.columns import FLAG_TAKEN
    from repro.isa.instruction import (
        OP_BRANCH_FIRST, OP_BRANCH_LAST, OP_LOAD, OP_STORE, OpClass,
    )
    from repro.memory.image import MemoryImage
    from repro.predictors.types import PredictionKind, address_of, size_of

    trace = listing1_trace(outer_m=outer_m, inner_n=inner_n)
    cols = trace.columns
    scan_pc = trace.metadata["scan_load_pc"]
    table: dict[str, list] = {}
    for name in COMPONENT_NAMES:
        predictor = make_component(name, 4096)
        histories = HistorySet()
        mem = trace.initial_memory.copy() if trace.initial_memory else MemoryImage()
        first_predicted: list = [None] * outer_m
        scan_count = 0
        for pc, op, addr, size, value, flags in zip(
            cols.pc, cols.op, cols.addr, cols.size, cols.value, cols.flags
        ):
            if OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST:
                if op == OpClass.BRANCH_COND:
                    histories.push_branch(pc, bool(flags & FLAG_TAKEN))
                else:
                    histories.push_unconditional(pc)
                continue
            if op == OP_STORE:
                mem.write(addr, size, value)
                histories.push_memory(pc)
                continue
            if op != OP_LOAD:
                continue
            load = (pc, -1, histories.direction, histories.path,
                    histories.load_path, 0)
            prediction = predictor.predict(*load)
            if pc == scan_pc:
                outer, inner = divmod(scan_count, inner_n)
                scan_count += 1
                if prediction is not None and first_predicted[outer] is None:
                    if predictor.kind is PredictionKind.ADDRESS:
                        prediction = mem.read(
                            address_of(prediction), size_of(prediction)
                        )
                    correct = prediction == value
                    if correct:
                        first_predicted[outer] = inner
            predictor.train(*load, addr, size, value)
            histories.push_memory(pc)
        table[name] = first_predicted
    return {
        "outer_m": outer_m,
        "inner_n": inner_n,
        "first_predicted_inner_iteration": table,
    }


def table6_heterogeneous(
    scale: ExperimentScale = QUICK,
    totals: tuple[int, ...] = (256, 512, 1024),
    extra_candidates: int = 4,
) -> dict:
    """Table VI: best allocation per total-entry budget.

    Evaluates the homogeneous split, the paper's winning allocation,
    and a few alternative heterogeneous splits per budget, and reports
    the best.  (The paper's exhaustive 0..1K sweep is available by
    passing a longer candidate list; it is hours of pure-Python time.)
    """
    candidates_by_total: dict[int, list[tuple[int, ...]]] = {}
    cells = []
    for total in totals:
        candidates_by_total[total] = table6_candidates(total, extra_candidates)
        for allocation in candidates_by_total[total]:
            lvp, sap, cvp, cap = allocation
            config = replace(
                CompositeConfig(
                    epoch_instructions=scale.epoch_instructions,
                    seed=scale.seed,
                ).with_entries(lvp, sap, cvp, cap),
                table_fusion=False,
            )
            for wl, seed in scale.runs():
                cells.append(speedup_cell(
                    _alloc_cell_id(total, allocation, wl, seed),
                    wl, scale.trace_length, _composite_spec(config), seed,
                ))
    report = resilient.sweep(cells)

    results = {}
    for total in totals:
        rows = []
        for allocation in candidates_by_total[total]:
            gains = _gather(report, [
                _alloc_cell_id(total, allocation, wl, seed)
                for wl, seed in scale.runs()
            ], "speedup")
            rows.append({
                "allocation": allocation,
                "storage_kib": round(storage_kib(*allocation), 2),
                "speedup": _mean(gains),
            })
        rows.sort(key=lambda r: r["speedup"], reverse=True)
        homogeneous = next(
            r for r in rows if r["allocation"] == (total // 4,) * 4
        )
        best = rows[0]
        results[total] = {
            "best": best,
            "homogeneous": homogeneous,
            "all": rows,
            "best_is_homogeneous": best["allocation"] == (total // 4,) * 4,
            "speedup_per_kib": (
                best["speedup"] / best["storage_kib"]
                if best["storage_kib"] else 0.0
            ),
        }
    return resilient.attach_failures(
        {"scale": scale.name, "budgets": results}, report
    )


def _alloc_cell_id(
    total: int, allocation: tuple[int, ...], workload: str, seed: int
) -> str:
    return (
        f"table6/t{total}/{'-'.join(map(str, allocation))}/{workload}/s{seed}"
    )


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def fig2_load_breakdown(scale: ExperimentScale = QUICK) -> dict:
    """Figure 2: oracle load-pattern breakdown."""
    per_workload = {}
    totals = {p: 0 for p in LoadPattern}
    grand_total = 0
    for wl, seed in scale.runs():
        result = classify_trace(workload_trace(wl, scale.trace_length, seed))
        per_workload[wl] = result.as_dict()
        for pattern in LoadPattern:
            totals[pattern] += result.counts[pattern]
        grand_total += result.total
    return {
        "scale": scale.name,
        "per_workload": per_workload,
        "average": {
            p.value: totals[p] / grand_total if grand_total else 0.0
            for p in LoadPattern
        },
    }


def fig3_component_speedup(
    scale: ExperimentScale = QUICK,
    sizes: tuple[int, ...] = (64, 256, 1024, 4096),
) -> dict:
    """Figure 3: per-component speedup as table entries scale."""
    def cell_id(name, entries, wl, seed):
        return f"fig3/{name}/e{entries}/{wl}/s{seed}"

    cells = [
        speedup_cell(
            cell_id(name, entries, wl, seed),
            wl, scale.trace_length, _component_spec(name, entries), seed,
        )
        for name in COMPONENT_NAMES
        for entries in sizes
        for wl, seed in scale.runs()
    ]
    report = resilient.sweep(cells)
    curves: dict[str, dict[int, float]] = {n: {} for n in COMPONENT_NAMES}
    for name in COMPONENT_NAMES:
        for entries in sizes:
            curves[name][entries] = _mean(_gather(report, [
                cell_id(name, entries, wl, seed)
                for wl, seed in scale.runs()
            ], "speedup"))
    return resilient.attach_failures(
        {"scale": scale.name, "sizes": list(sizes), "speedup": curves}, report
    )


def fig4_overlap(scale: ExperimentScale = QUICK, per_component: int = 1024) -> dict:
    """Figure 4: how many components cover each predicted load."""
    histogram = [0] * 5
    sole = dict.fromkeys(COMPONENT_NAMES, 0)
    total_loads = 0
    multi_confident = 0
    disagreements = 0
    for wl, seed in scale.runs():
        config = _composite_config(scale, per_component).plain()
        predictor = CompositePredictor(config)
        functional = run_functional(
            workload_trace(wl, scale.trace_length, seed), predictor
        )
        multi_confident += functional.multi_confident_loads
        disagreements += functional.disagreements
        stats = predictor.stats
        for k in range(5):
            histogram[k] += stats.confident_histogram[k]
        for name in COMPONENT_NAMES:
            sole[name] += stats.sole_predictor[name]
        total_loads += stats.loads
    predicted = sum(histogram[1:])
    return {
        "scale": scale.name,
        "per_component_entries": per_component,
        "fraction_predicted": predicted / total_loads if total_loads else 0.0,
        "by_count": {
            k: histogram[k] / predicted if predicted else 0.0
            for k in range(1, 5)
        },
        "multiple_fraction": (
            sum(histogram[2:]) / predicted if predicted else 0.0
        ),
        "sole_predictor": {
            n: sole[n] / predicted if predicted else 0.0
            for n in COMPONENT_NAMES
        },
        # The paper: "highly-confident predictors disagree less than
        # 0.03% of the time".
        "disagreement_fraction": (
            disagreements / multi_confident if multi_confident else 0.0
        ),
    }


def fig5_composite_vs_component(
    scale: ExperimentScale = QUICK,
    totals: tuple[int, ...] = (256, 1024, 4096),
) -> dict:
    """Figure 5: homogeneous composite vs best component, same budget."""
    def cell_id(total, contender, wl, seed):
        return f"fig5/t{total}/{contender}/{wl}/s{seed}"

    cells = []
    for total in totals:
        config = _composite_config(scale, total // 4).plain()
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                cell_id(total, "composite", wl, seed),
                wl, scale.trace_length, _composite_spec(config), seed,
            ))
            for name in COMPONENT_NAMES:
                cells.append(speedup_cell(
                    cell_id(total, name, wl, seed),
                    wl, scale.trace_length, _component_spec(name, total), seed,
                ))
    report = resilient.sweep(cells)

    rows = {}
    for total in totals:
        composite = _mean(_gather(report, [
            cell_id(total, "composite", wl, seed) for wl, seed in scale.runs()
        ], "speedup"))
        component_gains = {
            name: _mean(_gather(report, [
                cell_id(total, name, wl, seed) for wl, seed in scale.runs()
            ], "speedup"))
            for name in COMPONENT_NAMES
        }
        best_name, best_gain = max(
            component_gains.items(), key=lambda item: item[1]
        )
        rows[total] = {
            "composite": composite,
            "best_component": best_gain,
            "best_component_name": best_name,
            "advantage": composite - best_gain,
        }
    return resilient.attach_failures(
        {"scale": scale.name, "totals": rows}, report
    )


def fig6_accuracy_monitor(
    scale: ExperimentScale = QUICK, per_component: int = 256
) -> dict:
    """Figure 6: speedup from M-AM / PC-AM(64) / PC-AM(infinite)."""
    variants = {
        "base": {"accuracy_monitor": "none"},
        "m-am": {"accuracy_monitor": "m-am"},
        "pc-am-64": {"accuracy_monitor": "pc-am", "pc_am_entries": 64},
        "pc-am-infinite": {"accuracy_monitor": "pc-am-infinite"},
    }
    cells = []
    for label, overrides in variants.items():
        config = replace(
            _composite_config(scale, per_component).plain(), **overrides
        )
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                f"fig6/{label}/{wl}/s{seed}",
                wl, scale.trace_length, _composite_spec(config), seed,
            ))
    report = resilient.sweep(cells)
    results = {
        label: _mean(_gather(report, [
            f"fig6/{label}/{wl}/s{seed}" for wl, seed in scale.runs()
        ], "speedup"))
        for label in variants
    }
    return resilient.attach_failures({
        "scale": scale.name,
        "per_component_entries": per_component,
        "speedup": results,
    }, report)


def fig7_smart_training(
    scale: ExperimentScale = QUICK,
    per_component_sizes: tuple[int, ...] = (64, 256, 1024),
) -> dict:
    """Figure 7: prediction-count breakdown and predictors trained."""
    results = {}
    for per in per_component_sizes:
        row = {}
        for label, smart in (("train_all", False), ("smart", True)):
            config = replace(
                _composite_config(scale, per).plain(), smart_training=smart
            )
            histogram = [0] * 5
            train_ops = 0
            train_events = 0
            for wl, seed in scale.runs():
                predictor = CompositePredictor(config)
                run_functional(
                    workload_trace(wl, scale.trace_length, seed), predictor
                )
                for k in range(5):
                    histogram[k] += predictor.stats.confident_histogram[k]
                train_ops += predictor.stats.train_operations
                train_events += predictor.stats.train_events
            predicted = sum(histogram[1:])
            row[label] = {
                "multiple_prediction_fraction": (
                    sum(histogram[2:]) / predicted if predicted else 0.0
                ),
                "avg_predictors_trained": (
                    train_ops / train_events if train_events else 0.0
                ),
            }
        results[per] = row
    return {"scale": scale.name, "sizes": results}


def _optimization_speedup_sweep(
    scale: ExperimentScale,
    per_component_sizes: tuple[int, ...],
    overrides: dict,
    tag: str,
) -> tuple[dict, "resilient.SweepReport"]:
    """Shared shape of Figures 8 and 9: base vs one optimization."""
    def cell_id(per, label, wl, seed):
        return f"{tag}/p{per}/{label}/{wl}/s{seed}"

    cells = []
    for per in per_component_sizes:
        base_config = _composite_config(scale, per).plain()
        for label, config in (
            ("base", base_config),
            ("optimized", replace(base_config, **overrides)),
        ):
            for wl, seed in scale.runs():
                cells.append(speedup_cell(
                    cell_id(per, label, wl, seed),
                    wl, scale.trace_length, _composite_spec(config), seed,
                ))
    report = resilient.sweep(cells)

    results = {}
    for per in per_component_sizes:
        base, opt = (
            _mean(_gather(report, [
                cell_id(per, label, wl, seed) for wl, seed in scale.runs()
            ], "speedup"))
            for label in ("base", "optimized")
        )
        results[per] = {"base": base, "optimized": opt, "delta": opt - base}
    return results, report


def fig8_smart_training_speedup(
    scale: ExperimentScale = QUICK,
    per_component_sizes: tuple[int, ...] = (64, 256, 1024),
) -> dict:
    """Figure 8: speedup from smart training across sizes."""
    sizes, report = _optimization_speedup_sweep(
        scale, per_component_sizes, {"smart_training": True}, tag="fig8"
    )
    return resilient.attach_failures(
        {"scale": scale.name, "sizes": sizes}, report
    )


def fig9_table_fusion(
    scale: ExperimentScale = QUICK,
    per_component_sizes: tuple[int, ...] = (64, 256, 1024),
) -> dict:
    """Figure 9: speedup from table fusion across sizes."""
    sizes, report = _optimization_speedup_sweep(
        scale, per_component_sizes, {"table_fusion": True}, tag="fig9"
    )
    return resilient.attach_failures(
        {"scale": scale.name, "sizes": sizes}, report
    )


def fig10_combined(
    scale: ExperimentScale = QUICK,
    totals: tuple[int, ...] = (256, 512, 1024, 4096),
) -> dict:
    """Figure 10: MAX(composite) vs MAX(component) per storage budget.

    The paper's Figure 10 plots the *maximum* benefit over its design
    space at each budget ("MAX (Component)" / "MAX (Composite)").  We
    therefore evaluate a small set of composite design points per
    budget -- the Table VI winning allocation with all optimizations,
    the homogeneous base composite, and the homogeneous composite with
    the PC-AM filter -- and report the best, against the best of the
    four components at the same total entry budget.
    """
    base = CompositeConfig(
        epoch_instructions=scale.epoch_instructions, seed=scale.seed
    )

    def cell_id(total, contender, wl, seed):
        return f"fig10/t{total}/{contender}/{wl}/s{seed}"

    candidates_by_total = {}
    cells = []
    for total in totals:
        per = total // 4
        candidates = {
            "paper-all-opts": paper_config(total, base),
            "homogeneous-plain": base.homogeneous(per).plain(),
            "homogeneous-pcam": replace(
                base.homogeneous(per).plain(), accuracy_monitor="pc-am"
            ),
        }
        candidates_by_total[total] = candidates
        for wl, seed in scale.runs():
            for label, config in candidates.items():
                cells.append(speedup_cell(
                    cell_id(total, f"composite/{label}", wl, seed),
                    wl, scale.trace_length, _composite_spec(config), seed,
                ))
            for name in COMPONENT_NAMES:
                cells.append(speedup_cell(
                    cell_id(total, f"component/{name}", wl, seed),
                    wl, scale.trace_length, _component_spec(name, total), seed,
                ))
    report = resilient.sweep(cells)

    rows = {}
    for total in totals:
        candidates = candidates_by_total[total]
        composite_results = {
            label: _mean(_gather(report, [
                cell_id(total, f"composite/{label}", wl, seed)
                for wl, seed in scale.runs()
            ], "speedup"))
            for label in candidates
        }
        best_composite_label, composite = max(
            composite_results.items(), key=lambda item: item[1]
        )
        component_gains = {
            name: _mean(_gather(report, [
                cell_id(total, f"component/{name}", wl, seed)
                for wl, seed in scale.runs()
            ], "speedup"))
            for name in COMPONENT_NAMES
        }
        best_name, best_gain = max(
            component_gains.items(), key=lambda item: item[1]
        )
        winner = candidates[best_composite_label]
        rows[total] = {
            "storage_kib": round(storage_kib(*winner.entries().values()), 2),
            "composite": composite,
            "composite_config": best_composite_label,
            "composite_all": composite_results,
            "best_component": best_gain,
            "best_component_name": best_name,
            "improvement": (
                composite / best_gain - 1.0 if best_gain > 0 else float("inf")
            ),
        }
    return resilient.attach_failures(
        {"scale": scale.name, "totals": rows}, report
    )


def _budget_config(scale: ExperimentScale, total: int) -> CompositeConfig:
    return paper_config(
        total,
        CompositeConfig(
            epoch_instructions=scale.epoch_instructions, seed=scale.seed
        ),
    )


def fig11_vs_eves(scale: ExperimentScale = QUICK) -> dict:
    """Figure 11: composite (small budgets) vs EVES (large budgets)."""
    def specs(seed):
        return {
            "composite-4.8kb": _composite_spec(_budget_config(scale, 512)),
            "composite-9.6kb": _composite_spec(_budget_config(scale, 1024)),
            "eves-8kb": _eves_spec("8kb", seed),
            "eves-32kb": _eves_spec("32kb", seed),
            "eves-infinite": _eves_spec("infinite", seed),
        }

    labels = tuple(specs(0))
    cells = [
        speedup_cell(
            f"fig11/{label}/{wl}/s{seed}",
            wl, scale.trace_length, spec, seed,
        )
        for wl, seed in scale.runs()
        for label, spec in specs(seed).items()
    ]
    report = resilient.sweep(cells)

    contenders: dict[str, dict] = {}
    for label in labels:
        ids = [f"fig11/{label}/{wl}/s{seed}" for wl, seed in scale.runs()]
        contenders[label] = {
            "speedup": _mean(_gather(report, ids, "speedup")),
            "coverage": _mean(_gather(report, ids, "coverage")),
        }
    small = contenders["composite-9.6kb"]
    eves = contenders["eves-32kb"]
    return resilient.attach_failures({
        "scale": scale.name,
        "contenders": contenders,
        "composite96_vs_eves32": {
            "speedup_increase": (
                small["speedup"] / eves["speedup"] - 1.0
                if eves["speedup"] > 0 else float("inf")
            ),
            "coverage_increase": (
                small["coverage"] / eves["coverage"] - 1.0
                if eves["coverage"] > 0 else float("inf")
            ),
        },
    }, report)


def ablation_footnote1(scale: ExperimentScale = QUICK,
                       per_component: int = 256) -> dict:
    """Footnote 1: last-address and stride-value predictors are
    redundant next to the chosen four.

    Measures LAP and SVP standalone, then a six-component composite
    (the four + LAP + SVP) against the paper's four-component
    composite at the same per-component size.  The paper's finding is
    that the extras add "limited or no benefit in the presence of the
    four selected predictors" despite costing extra storage.
    """
    base = CompositeConfig(
        epoch_instructions=scale.epoch_instructions, seed=scale.seed,
        table_fusion=False,
    ).homogeneous(per_component)
    extended = replace(
        base,
        extra_components=(("lap", per_component), ("svp", per_component)),
    )

    cells = []
    for name in ("lap", "svp"):
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                f"ablation1/standalone/{name}/{wl}/s{seed}",
                wl, scale.trace_length,
                _component_spec(name, 4 * per_component), seed,
            ))
    for label, config in (("four", base), ("six", extended)):
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                f"ablation1/composite/{label}/{wl}/s{seed}",
                wl, scale.trace_length, _composite_spec(config), seed,
            ))
    report = resilient.sweep(cells)

    standalone = {
        name: _mean(_gather(report, [
            f"ablation1/standalone/{name}/{wl}/s{seed}"
            for wl, seed in scale.runs()
        ], "speedup"))
        for name in ("lap", "svp")
    }

    def aggregate(label):
        ids = [
            f"ablation1/composite/{label}/{wl}/s{seed}"
            for wl, seed in scale.runs()
        ]
        return {
            "speedup": _mean(_gather(report, ids, "speedup")),
            "coverage": _mean(_gather(report, ids, "coverage")),
        }

    four = aggregate("four")
    six = aggregate("six")
    return resilient.attach_failures({
        "scale": scale.name,
        "per_component_entries": per_component,
        "standalone": standalone,
        "composite_four": four,
        "composite_six": six,
        "speedup_benefit_of_extras": six["speedup"] - four["speedup"],
        "coverage_benefit_of_extras": six["coverage"] - four["coverage"],
    }, report)


def ablation_selection_policy(scale: ExperimentScale = QUICK,
                              per_component: int = 256) -> dict:
    """Section V-A's power point: value-first vs address-first selection.

    The paper prefers value predictions because highly-confident
    components almost never disagree, so the selection policy cannot
    change outcomes -- only how often the speculative D-cache is
    probed.  Measures speedup and PAQ probes under both policies, on
    the Section V-A *base* composite (smart training would remove most
    of the overlap the policy arbitrates).
    """
    policies = (("value-first", True), ("address-first", False))
    cells = []
    for label, prefer_value in policies:
        config = replace(
            _composite_config(scale, per_component).plain(),
            prefer_value_predictions=prefer_value,
        )
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                f"ablation2/{label}/{wl}/s{seed}",
                wl, scale.trace_length, _composite_spec(config), seed,
            ))
    report = resilient.sweep(cells)

    results = {}
    for label, _ in policies:
        ids = [f"ablation2/{label}/{wl}/s{seed}" for wl, seed in scale.runs()]
        probes = sum(_gather(report, ids, "paq_probes"))
        predictions = sum(_gather(report, ids, "predicted_loads"))
        results[label] = {
            "speedup": _mean(_gather(report, ids, "speedup")),
            "paq_probes": probes,
            "predictions": predictions,
            "probes_per_prediction": probes / predictions if predictions else 0.0,
        }
    return resilient.attach_failures({
        "scale": scale.name,
        "per_component_entries": per_component,
        "policies": results,
        "speedup_delta": (
            results["value-first"]["speedup"]
            - results["address-first"]["speedup"]
        ),
        "probe_reduction": (
            1.0 - results["value-first"]["paq_probes"]
            / results["address-first"]["paq_probes"]
            if results["address-first"]["paq_probes"] else 0.0
        ),
    }, report)


def ablation_confidence_tuning(
    scale: ExperimentScale = QUICK,
    per_component: int = 256,
    deltas: tuple[int, ...] = (0, -1, -2),
) -> dict:
    """Section III-B's tuning rationale: lower confidence bars raise
    coverage but cost accuracy, and the misprediction flushes eat the
    gains ("lower accuracy tends to decrease performance gains").
    """
    cells = []
    for delta in deltas:
        config = replace(
            _composite_config(scale, per_component).plain(),
            confidence_delta=delta,
        )
        for wl, seed in scale.runs():
            cells.append(speedup_cell(
                f"ablation3/d{delta}/{wl}/s{seed}",
                wl, scale.trace_length, _composite_spec(config), seed,
            ))
    report = resilient.sweep(cells)

    rows = {}
    for delta in deltas:
        ids = [f"ablation3/d{delta}/{wl}/s{seed}" for wl, seed in scale.runs()]
        rows[delta] = {
            "speedup": _mean(_gather(report, ids, "speedup")),
            "coverage": _mean(_gather(report, ids, "coverage")),
            "accuracy": _mean(_gather(report, ids, "accuracy")),
        }
    return resilient.attach_failures({
        "scale": scale.name,
        "per_component_entries": per_component,
        "deltas": rows,
    }, report)


def fig12_per_workload(scale: ExperimentScale = QUICK) -> dict:
    """Figure 12: per-workload composite (9.6KB) vs EVES (32KB)."""
    composite_config = _budget_config(scale, 1024)
    cells = []
    for wl in scale.workloads:
        for seed in scale.seeds:
            cells.append(speedup_cell(
                f"fig12/{wl}/s{seed}/composite",
                wl, scale.trace_length, _composite_spec(composite_config),
                seed,
            ))
            cells.append(speedup_cell(
                f"fig12/{wl}/s{seed}/eves",
                wl, scale.trace_length, _eves_spec("32kb", seed), seed,
            ))
    report = resilient.sweep(cells)

    per_workload = {}
    composite_wins = 0
    eves_wins = 0
    for wl in scale.workloads:
        composite_ids = [f"fig12/{wl}/s{seed}/composite" for seed in scale.seeds]
        eves_ids = [f"fig12/{wl}/s{seed}/eves" for seed in scale.seeds]
        composite_gains = _gather(report, composite_ids, "speedup")
        eves_gains = _gather(report, eves_ids, "speedup")
        composite_covs = _gather(report, composite_ids, "coverage")
        eves_covs = _gather(report, eves_ids, "coverage")
        composite_gain = _mean(composite_gains)
        eves_gain = _mean(eves_gains)
        if composite_gain > eves_gain + 1e-9:
            composite_wins += 1
        elif eves_gain > composite_gain + 1e-9:
            eves_wins += 1
        per_workload[wl] = {
            "composite_speedup": composite_gain,
            "eves_speedup": eves_gain,
            "composite_coverage": _mean(composite_covs),
            "eves_coverage": _mean(eves_covs),
        }
    return resilient.attach_failures({
        "scale": scale.name,
        "per_workload": per_workload,
        "composite_wins": composite_wins,
        "eves_wins": eves_wins,
        "average": {
            "composite_speedup": _mean(
                r["composite_speedup"] for r in per_workload.values()
            ),
            "eves_speedup": _mean(
                r["eves_speedup"] for r in per_workload.values()
            ),
            "composite_coverage": _mean(
                r["composite_coverage"] for r in per_workload.values()
            ),
            "eves_coverage": _mean(
                r["eves_coverage"] for r in per_workload.values()
            ),
        },
    }, report)
