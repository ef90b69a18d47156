//! Extension experiment: batch-query throughput on the persistent worker
//! pool (`ext-throughput`).
//!
//! The paper measures one query at a time with intra-query parallelism —
//! the exploratory-analysis model. A server instead receives query
//! *streams*, where the FAISS insight applies (Johnson et al.): batching
//! amortizes fixed per-query costs and turns intra-query synchronization
//! into embarrassing query-level parallelism. This experiment times the
//! same workload three ways on the same SOFA index:
//!
//! * **single (per-call spawn)** — an *emulation* of the dispatch the
//!   worker pool retired: every query pays two scoped spawn/join rounds
//!   of `threads` OS threads (collect + refine — the shape of the
//!   pre-`sofa-exec` implementation) added around the pool query. It
//!   measures the spawn/join overhead delta directly rather than
//!   re-running the seed commit, so it is an overhead model, not an
//!   archaeological benchmark.
//! * **single (pool)** — one `knn` call per query on the persistent pool.
//! * **batch (pool)** — the whole stream in one `knn_batch` call:
//!   query-parallel over the pool, serial inside each query.
//!
//! Two serving profiles run (ROADMAP PR-3 deferred item): **Deep1b**
//! (96-length vectors — the short-series regime where per-query fixed
//! costs dominate and the kernel wins used to be invisible) and **LenDB**
//! (256-length seismic series — the regime where the batched sweeps carry
//! the end-to-end win), so the perf trajectory is legible in one place.
//! The headline remains the batch / per-call-spawn QPS ratio, plus the
//! batch / pool-single ratio (which additionally needs multiple physical
//! cores to show its full query-parallel scaling).
//!
//! When the quantized refine tier is enabled (`repro --quant on`, the
//! default), each profile also runs an A/B arm: the same index answers
//! the same batch with the tier toggled off at query time
//! (`set_quant_refine`), so the tier's QPS and refine-bandwidth effect is
//! one command away (`sofa_batch_qps_quant_off` /
//! `refine_bytes_per_query_quant_off`) and free of the several-percent
//! allocator-layout noise that separately-built indexes carry.

use super::Suite;
use crate::report::{f2, f3, Report};
use sofa::baselines::FlatL2;
use sofa::stats::percentile;
use sofa::Builder;

/// Times a per-query closure over the whole stream, returning
/// `(total_secs, per_query_ms)`.
fn time_singles(mut one: impl FnMut(&[f32]), queries: &[f32], n: usize) -> (f64, Vec<f64>) {
    let mut per_query = Vec::with_capacity(queries.len() / n);
    let (_, total) = crate::timed(|| {
        for q in queries.chunks(n) {
            let (_, secs) = crate::timed(|| one(q));
            per_query.push(crate::ms(secs));
        }
    });
    (total, per_query)
}

/// A single-row summary of one timed mode.
fn mode_row(method: &str, mode: &str, secs: f64, per_query: &[f64]) -> Vec<String> {
    let qps = per_query.len() as f64 / secs;
    vec![
        method.into(),
        mode.into(),
        f2(qps),
        f3(percentile(per_query, 50.0)),
        f3(percentile(per_query, 95.0)),
        f3(percentile(per_query, 99.0)),
    ]
}

/// Runs one serving profile (`spec_name`, capped at `count_cap` series)
/// and appends its table and metrics to `r`; metric keys get `suffix`
/// appended (empty for the primary Deep1b profile, so PR-over-PR
/// comparisons keep their historical names).
fn serve_profile(
    suite: &Suite,
    r: &mut Report,
    spec_name: &str,
    count_cap: usize,
    suffix: &str,
    noise_override: Option<f32>,
) {
    let threads = suite.cfg.max_threads();
    // A throughput experiment needs more queries than the latency
    // workloads: widen the paper's per-dataset query count.
    let n_queries = (suite.cfg.n_queries * 16).clamp(64, 512);
    let mut spec = suite.specs().iter().find(|s| s.name == spec_name).expect("registry").clone();
    if let Some(noise) = noise_override {
        // Low-contrast variant: drown the prototype structure in instance
        // noise so distances concentrate — the archive regime where
        // early-abandoning reads most of every surviving row and the
        // refine phase is bandwidth-bound.
        spec.instance_noise = noise;
    }
    // Regime probes (the noise-override profiles) need their full series
    // count at any `--scale`: the bandwidth-bound behavior they exist to
    // measure collapses on a small index. The plain profiles instead cap
    // the scaled count so they stay in their intended regime.
    let count = if noise_override.is_some() {
        count_cap
    } else {
        spec.scaled_count(suite.cfg.scale, suite.cfg.min_series).min(count_cap)
    };
    let dataset = spec.generate(count, n_queries);
    let n = dataset.series_len();
    r.para(&format!(
        "Workload: {} × {count} series of length {n}, {n_queries} queries, \
         {threads} pool lanes. `single (per-call spawn)` *emulates* the \
         pre-pool dispatch — two scoped spawn/join rounds of {threads} OS \
         threads per query, added around the same pool query, measuring \
         the retired overhead directly rather than re-running the seed \
         commit; `single (pool)` is one `knn` per query on the persistent \
         pool; `batch (pool)` answers the stream with one `knn_batch` \
         call. Expectation: batch ≥ 2× the per-call-spawn baseline on any \
         machine (and ≥ 2× pool singles too once queries parallelize \
         across ≥ 2 physical cores).",
        spec.name
    ));

    let sofa = Builder::default()
        .threads(threads)
        .leaf_capacity(suite.cfg.leaf_capacity)
        .sample_ratio(suite.cfg.sample_ratio)
        .quant_refine(suite.cfg.quant_refine)
        .build_sofa(dataset.data(), n)
        .expect("SOFA build");
    let flat = FlatL2::new(dataset.data(), n, threads);

    let queries = dataset.queries();
    // Warm both paths (page in the data, wake the pool, fill the query
    // scratch pool) before timing.
    let warm = &queries[..(8 * n).min(queries.len())];
    sofa.knn_batch(warm, 1).expect("warmup");
    let _ = flat.knn_batch(warm, 1);
    for q in warm.chunks(n) {
        sofa.nn(q).expect("warmup");
        let _ = flat.nn(q);
    }

    // Mode 1: the retired per-call-spawn dispatch, emulated faithfully —
    // the old build/query path opened one `std::thread::scope` of
    // `threads` workers per parallel phase (collect, refine), created and
    // joined on every call.
    let (spawn_secs, spawn_ms) = time_singles(
        |q| {
            for _phase in 0..2 {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {});
                    }
                });
            }
            sofa.nn(q).expect("query");
        },
        queries,
        n,
    );
    // Mode 2: the pool path.
    let (pool_secs, pool_ms) = time_singles(
        |q| {
            sofa.nn(q).expect("query");
        },
        queries,
        n,
    );
    // Mode 3: one batch call.
    let (_, batch_secs) = crate::timed(|| sofa.knn_batch(queries, 1).expect("batch"));

    let (flat_secs, flat_ms) = time_singles(
        |q| {
            let _ = flat.nn(q);
        },
        queries,
        n,
    );
    let (_, flat_batch_secs) = crate::timed(|| flat.knn_batch(queries, 1));

    let nq = n_queries as f64;
    let rows = vec![
        mode_row("SOFA", "single (per-call spawn)", spawn_secs, &spawn_ms),
        mode_row("SOFA", "single (pool)", pool_secs, &pool_ms),
        vec![
            "SOFA".into(),
            "batch (pool)".into(),
            f2(nq / batch_secs),
            f3(crate::ms(batch_secs) / nq),
            "-".into(),
            "-".into(),
        ],
        mode_row("FAISS IndexFlatL2 (repro)", "single (pool)", flat_secs, &flat_ms),
        vec![
            "FAISS IndexFlatL2 (repro)".into(),
            "batch (pool)".into(),
            f2(nq / flat_batch_secs),
            f3(crate::ms(flat_batch_secs) / nq),
            "-".into(),
            "-".into(),
        ],
    ];
    r.table(&["method", "mode", "QPS", "p50 / mean (ms)", "p95 (ms)", "p99 (ms)"], &rows);

    // Pruning-power counters over the same workload: what fraction of
    // lower-bound-checked candidates never reached a real distance, how
    // much of that the 8-lane block sweep decided, and how many collect
    // groups the node-block kernel swept per query.
    let mut lbd_checked = 0usize;
    let mut refined = 0usize;
    let mut lanes_abandoned = 0usize;
    let mut collect_groups = 0usize;
    let mut quant_groups = 0usize;
    let mut quant_killed = 0usize;
    let mut refine_bytes = 0usize;
    let stat_queries = 32usize;
    for q in queries.chunks(n).take(stat_queries) {
        let (_, s) = sofa.knn_with_stats(q, 1).expect("stats query");
        lbd_checked += s.series_lbd_checked;
        refined += s.series_refined;
        lanes_abandoned += s.block_lanes_abandoned;
        collect_groups += s.collect_groups_swept;
        quant_groups += s.quant_groups_swept;
        quant_killed += s.quant_lanes_killed;
        refine_bytes += s.refine_bytes;
    }
    let pruning_ratio =
        if lbd_checked == 0 { 0.0 } else { 1.0 - refined as f64 / lbd_checked as f64 };
    let block_abandon_ratio =
        if lbd_checked == 0 { 0.0 } else { lanes_abandoned as f64 / lbd_checked as f64 };

    let spawn_qps = nq / spawn_secs;
    let pool_qps = nq / pool_secs;
    let batch_qps = nq / batch_secs;
    let m = |name: &str| format!("{name}{suffix}");
    r.metric(&m("sofa_single_spawn_qps"), spawn_qps);
    r.metric(&m("sofa_single_pool_qps"), pool_qps);
    r.metric(&m("sofa_batch_qps"), batch_qps);
    r.metric(&m("sofa_batch_vs_spawn_speedup"), batch_qps / spawn_qps);
    r.metric(&m("sofa_pool_p50_ms"), percentile(&pool_ms, 50.0));
    r.metric(&m("sofa_pool_p99_ms"), percentile(&pool_ms, 99.0));
    r.metric(&m("flat_single_qps"), nq / flat_secs);
    r.metric(&m("flat_batch_qps"), nq / flat_batch_secs);
    r.metric(&m("flat_p50_ms"), percentile(&flat_ms, 50.0));
    r.metric(&m("sofa_lbd_pruning_ratio"), pruning_ratio);
    r.metric(&m("sofa_block_lane_abandon_ratio"), block_abandon_ratio);
    r.metric(&m("sofa_collect_groups_per_query"), collect_groups as f64 / stat_queries as f64);
    r.metric(&m("sofa_quant_groups_per_query"), quant_groups as f64 / stat_queries as f64);
    r.metric(&m("sofa_quant_lanes_killed"), quant_killed as f64 / stat_queries as f64);
    r.metric(&m("refine_bytes_per_query"), refine_bytes as f64 / stat_queries as f64);
    r.para(&format!(
        "Pruning power over this workload: {:.1}% of lower-bound-checked \
         candidates were pruned before any real distance ({:.1}% of checks \
         were retired by the 8-lane block sweep); the collect phase swept \
         {:.1} node-block groups per query. The quantized refine tier \
         priced {:.1} code groups and killed {:.1} word-bound survivors \
         per query before any f32 scan; the refine phase touched \
         {:.0} bytes per query.",
        pruning_ratio * 100.0,
        block_abandon_ratio * 100.0,
        collect_groups as f64 / stat_queries as f64,
        quant_groups as f64 / stat_queries as f64,
        quant_killed as f64 / stat_queries as f64,
        refine_bytes as f64 / stat_queries as f64,
    ));

    // A/B arm: same index, same queries, quantized tier toggled off at
    // query time (`set_quant_refine`). One command (`repro --profile
    // throughput`) yields both sides of the comparison; skipped when the
    // whole run is already `--quant off`. Using one index for both arms
    // matters: two separately-built indexes differ by several percent
    // from allocator layout alone, which would drown the tier's effect.
    // Single batch timings additionally swing under container scheduler
    // throttling, so the comparison rotates passes ABBA-style and keeps
    // each side's minimum instead of trusting one pass each.
    if suite.cfg.quant_refine {
        let time_batch = |on: bool| {
            sofa.set_quant_refine(on);
            crate::timed(|| sofa.knn_batch(queries, 1).expect("batch")).1
        };
        let mut on_best = f64::INFINITY;
        let mut off_best = f64::INFINITY;
        for round in 0..6 {
            if round % 2 == 0 {
                on_best = on_best.min(time_batch(true));
                off_best = off_best.min(time_batch(false));
            } else {
                off_best = off_best.min(time_batch(false));
                on_best = on_best.min(time_batch(true));
            }
        }
        sofa.set_quant_refine(false);
        let mut off_bytes = 0usize;
        for q in queries.chunks(n).take(stat_queries) {
            let (_, s) = sofa.knn_with_stats(q, 1).expect("stats query");
            off_bytes += s.refine_bytes;
        }
        sofa.set_quant_refine(true);
        let on_qps = nq / on_best;
        let off_qps = nq / off_best;
        r.metric(&m("sofa_batch_qps_quant_on_best"), on_qps);
        r.metric(&m("sofa_batch_qps_quant_off"), off_qps);
        r.metric(&m("sofa_quant_batch_speedup"), on_qps / off_qps);
        r.metric(&m("refine_bytes_per_query_quant_off"), off_bytes as f64 / stat_queries as f64);
        r.para(&format!(
            "Quant A/B on {} (best of 6 rotated passes per side): batch \
             throughput {} QPS with the quantized tier vs {} QPS without \
             ({:.2}x); refine bytes per query {} vs {} ({:.1}% of the \
             f32-only traffic).",
            spec.name,
            f2(on_qps),
            f2(off_qps),
            on_qps / off_qps,
            refine_bytes / stat_queries,
            off_bytes / stat_queries,
            100.0 * refine_bytes as f64 / (off_bytes as f64).max(1.0),
        ));
    }
    r.para(&format!(
        "SOFA on {}: `knn_batch` throughput is {:.1}x the per-call-spawn \
         single-query baseline ({} vs {} QPS) and {:.1}x pool \
         single-query throughput ({} vs {} QPS). Pool single-query \
         latency is {:.1}x the emulated spawn baseline's (p50 {} vs {} ms).",
        spec.name,
        batch_qps / spawn_qps,
        f2(batch_qps),
        f2(spawn_qps),
        batch_qps / pool_qps,
        f2(batch_qps),
        f2(pool_qps),
        percentile(&pool_ms, 50.0) / percentile(&spawn_ms, 50.0).max(1e-9),
        f3(percentile(&pool_ms, 50.0)),
        f3(percentile(&spawn_ms, 50.0)),
    ));
}

/// `ext-throughput`: single-query QPS (per-call spawn vs pool) against
/// `knn_batch` QPS for the SOFA index and the flat baseline, on a
/// short-series (Deep1b, 96) and a long-series (LenDB, 256) profile.
pub fn ext_throughput(suite: &Suite) -> Report {
    let mut r = Report::new("ext-throughput", "single-query vs batch-query throughput");
    // Deep1b is the paper's vector-search / FAISS case — short series,
    // sub-millisecond queries: the regime where a serving system lives
    // and where per-query dispatch overhead is visible at all. Cap the
    // series count so the workload stays in that regime at any scale.
    serve_profile(suite, &mut r, "Deep1b", 4_000, "", None);
    // LenDB is the paper's seismic case — 256-length series, where the
    // batched lower-bound sweeps (leaf and collect) dominate the per-
    // query cost instead of dispatch. Same cap as Deep1b on purpose: the
    // two profiles differ only in series length, so the QPS gap reads as
    // the cost of length alone.
    serve_profile(suite, &mut r, "LenDB", 4_000, "_len256", None);
    // Low-frequency len-256 profile: ISC_EHB_DepthPhases (smooth seismic
    // ringing, carrier at 0.22 of Nyquist) with the instance noise raised
    // 0.25 -> 0.5, at 3x the series count. Smooth signals make the f32
    // early-abandon structurally weak — the difference between two rows
    // accumulates slowly over positions, so a doomed scan reads most of
    // the row before crossing the bound — while the int8 sweep reads a
    // quarter of the bytes at the same per-byte op rate. This is the
    // archive regime the quantized tier targets; broadband LenDB above is
    // its worst case (distance concentrates in the first positions, EA
    // kills at the first checkpoint, and the tier's whole-group sweeps
    // can only break even). The two len-256 A/B arms bracket the tier
    // honestly: high-contrast LenDB shows its gated overhead, this
    // profile shows its bandwidth win.
    serve_profile(suite, &mut r, "ISC_EHB_DepthPhases", 12_000, "_hard256", Some(0.5));
    r
}
