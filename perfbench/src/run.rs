//! One benchmark run: generate, build, answer rotated timed passes,
//! insert, snapshot and restart, then check the answers.
//!
//! An untraced run measures the end-to-end metrics. A traced run walks
//! the same phases with spans around every call into the library, adds
//! the per-layer kernel timings and prune counters, and reports those
//! instead; its spans are written to a file at exit.

use crate::gate::{self, Scan};
use crate::report::{median, percentile, tail_percentile, Report, END_TO_END, PER_LAYER};
use crate::sys::{peak_rss_mb, process_cpu_ns, thread_cpu_ns, CpuTicks, Measured, Meter};
use crate::trace::{self_time_by_layer, Tracer};
use crate::workload::{admits, generate, generate_rows, Inputs, Workload};
use parking_lot::Mutex;
use sofa_baselines::FlatL2;
use sofa_exec::ExecPool;
use sofa_index::{Index, IndexConfig, IndexError, Neighbor, QueryKind, QueryStats, RowFilter};
use sofa_serve::{ServeConfig, Server};
use sofa_summaries::{Sfa, SfaConfig, Summarization};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Idx = Index<Sfa>;
/// One query's neighbors, or why it has none.
type Answer = Result<Vec<Neighbor>, String>;

/// Neighbors per k-NN, filtered k-NN and inner-product query.
const K: usize = 10;
/// Builds per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Snapshot opens per run; `restart_s` is their median.
const RESTART_REPS: usize = 9;
/// Timed rounds per run at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Queries checked against brute force, per workload and phase.
const GATE_QUERIES: usize = 16;
/// Online inserts between two interleaved query groups (churn).
const INSERTS_PER_QUERY_GROUP: usize = 8;
/// Rows and candidates the per-layer kernel timings and TLB use.
const KERNEL_ROWS: usize = 20_000;
const TLB_CANDIDATES: usize = 2_000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload (the self-test passes a tiny one).
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where snapshots and span files go.
    pub out_dir: PathBuf,
    /// Self-test only: hand the gate one wrong answer.
    pub corrupt: bool,
}

/// Pass modes; the discriminant indexes per-mode samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Direct,
    /// A direct pass without spans, beside a traced one: the difference
    /// between the two is the tracing overhead.
    DirectUntraced,
    Batch,
    Serve,
}

/// Per-mode samples over all passes of a run.
#[derive(Default)]
struct ModeSamples {
    lat_ms: Vec<f64>,
    pass_p50_ms: Vec<f64>,
    pass_qps: Vec<f64>,
    /// Rate over the pass's wall time net of host steal.
    pass_net_qps: Vec<f64>,
    pass_cpu_per_q_s: Vec<f64>,
}

impl ModeSamples {
    fn add_pass(&mut self, m: Measured, n: usize, lat_ms: Vec<f64>) {
        if !lat_ms.is_empty() {
            self.pass_p50_ms.push(median(&lat_ms));
        }
        self.lat_ms.extend(lat_ms);
        self.pass_qps.push(n as f64 / m.wall_s);
        self.pass_net_qps.push(n as f64 / m.net_s());
        self.pass_cpu_per_q_s.push(m.cpu_s / n as f64);
    }
}

struct Run<'a> {
    args: &'a Args,
    w: Workload,
    tr: Arc<Tracer>,
    pool: Arc<ExecPool>,
    rep: Report,
    len: usize,
    n0: usize,
    kinds: Vec<QueryKind>,
    r_sq: f32,
    /// First k-NN answer of each query (direct, batch or serve).
    knn_ans: Vec<Option<Vec<Neighbor>>>,
    /// First answer of each query's own kind, on mixed workloads.
    kind_ans: Vec<Option<Vec<Neighbor>>>,
    /// Wall, process CPU and machine ticks per phase.
    phases: Vec<(&'static str, Measured)>,
    /// Peak RSS (MiB) at the end of each phase.
    rss_mb: Vec<(&'static str, f64)>,
    logged_failures: usize,
}

/// Runs the benchmark once.
///
/// # Errors
/// A message when the run cannot proceed: the output directory cannot be
/// created, or an index cannot be built at all.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Run {
        args,
        w: args.workload.clone(),
        tr: Arc::new(Tracer::new(args.trace)),
        pool: ExecPool::shared(threads),
        rep: Report::default(),
        len: 0,
        n0: 0,
        kinds: Vec::new(),
        r_sq: 0.0,
        knn_ans: Vec::new(),
        kind_ans: Vec::new(),
        phases: Vec::new(),
        rss_mb: Vec::new(),
        logged_failures: 0,
    };
    let tr = Arc::clone(&r.tr);
    tr.span("bench.run", 0, 0, |root| r.run_phases(root))?;
    r.finish();
    Ok(r.rep)
}

impl Run<'_> {
    fn fail(&mut self, what: impl std::fmt::Display) {
        self.rep.failed += 1;
        if self.logged_failures < 20 {
            eprintln!("FAILED: {what}");
            self.logged_failures += 1;
        }
    }

    /// Closes a phase: keeps what its meter saw and the peak RSS so far.
    fn end_phase(&mut self, name: &'static str, meter: Meter) {
        self.phases.push((name, meter.stop()));
        self.rss_mb.push((name, peak_rss_mb()));
    }

    fn query<'i>(&self, inputs: &'i Inputs, i: usize) -> &'i [f32] {
        &inputs.queries[i * self.len..(i + 1) * self.len]
    }

    fn run_phases(&mut self, root: u64) -> Result<(), String> {
        let tr = Arc::clone(&self.tr);
        let (w, seed) = (self.w.clone(), self.args.seed);
        let inputs = tr.span("data.generate", root, 0, |_| generate(&w, seed));
        self.len = inputs.len;
        self.n0 = w.rows;
        let n_queries = inputs.queries.len() / inputs.len;
        self.knn_ans = vec![None; n_queries];
        self.kind_ans = vec![None; n_queries];

        if self.args.trace {
            tr.span("bench.layers", root, 0, |id| self.layers(&inputs, id))?;
        }

        // --- Set-up: generated rows to a queryable index. The rows are
        // generated afresh for every build (untimed) and moved into it, so
        // the harness holds no copy of them beside the index's.
        let m = Meter::start();
        let reps = if self.args.trace { 1 } else { SETUP_REPS };
        let (mut setup_s, mut setup_wall, mut gen_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut learn_s, mut build_s) = (Vec::new(), Vec::new());
        let mut idx = None;
        for _ in 0..reps {
            drop(idx.take());
            let t = Instant::now();
            let rows = tr.span("data.generate_rows", root, 0, |_| generate_rows(&w, seed, 0));
            gen_s.push(t.elapsed().as_secs_f64());
            let (built, times) = tr.span("bench.setup", root, 0, |id| {
                build(&tr, rows, inputs.len, Arc::clone(&self.pool), id)
            })?;
            setup_s.push(times.total.net_s());
            setup_wall.push(times.total.wall_s);
            learn_s.push(times.learn_s);
            build_s.push(times.build_s);
            idx = Some(built);
        }
        let idx = idx.expect("at least one build");
        self.end_phase("setup", m);
        self.rep.metric("setup_s", median(&setup_s), "s");
        self.rep.metric("summaries.learn_s", median(&learn_s), "s");
        self.rep.metric("index.build_s", median(&build_s), "s");
        self.rep.note("gen_s", format!("{:.3}", median(&gen_s)));
        self.rep.note("setup_reps", reps);
        self.rep.note("setup_s_all", format!("{setup_s:.4?}"));
        self.rep.note("setup_s_wall", median(&setup_wall));

        self.plan_kinds(&inputs, &idx);
        let idx = Arc::new(idx);
        let batch_cpu_us = tr.span("bench.passes", root, 0, |id| self.passes(&inputs, &idx, id));
        let mut idx = Arc::try_unwrap(idx).map_err(|_| "index still shared after serving")?;
        tr.span("bench.inserts", root, 0, |id| self.inserts(&inputs, &mut idx, id));
        self.peak_rss();

        // Unique per run, so runs in one process (the self-test's threads)
        // never share a snapshot file.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let snap = self.args.out_dir.join(format!(
            "{}-{}-{}-{}.snap",
            self.w.name,
            self.args.seed,
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        let _remove = RemoveOnDrop(snap.clone());
        let opened = tr.span("bench.restart", root, 0, |id| self.restart(&inputs, idx, &snap, id));
        tr.span("bench.gate", root, 0, |id| self.gate(inputs, opened, batch_cpu_us, id));
        self.rss_mb.push(("gate", peak_rss_mb()));
        Ok(())
    }

    /// `rss_mb`: the peak RSS while the in-memory index is built, served
    /// and updated, and which phase set it. Read before the restarts,
    /// whose snapshot writer adds a transient peak that moves with the
    /// heap the passes left behind (see the README), and before the gate,
    /// whose brute-force buffers are the benchmark's own. Both later peaks
    /// are noted as `rss_mb.<phase>`.
    fn peak_rss(&mut self) {
        let peak = peak_rss_mb();
        self.rep.metric("rss_mb", peak, "MiB");
        let phase = self.rss_mb.iter().find(|(_, mb)| *mb >= peak).map_or("?", |(p, _)| *p);
        self.rep.note("rss_peak_phase", phase);
    }

    /// The traced run's layer figures that need a build of their own: the
    /// prune counters and the kernel timings, on a one-lane build of the
    /// run's rows.
    fn layers(&mut self, inputs: &Inputs, parent: u64) -> Result<(), String> {
        let tr = Arc::clone(&self.tr);
        let rows =
            tr.span("data.generate_rows", parent, 0, |_| generate_rows(&self.w, self.args.seed, 0));
        let (idx, _) = build(&tr, rows.clone(), inputs.len, ExecPool::shared(1), parent)?;
        tr.span("bench.counters", parent, 0, |id| self.counters(inputs, &idx, id));
        tr.span("bench.kernels", parent, 0, |id| self.kernels(inputs, &rows, &idx, id));
        Ok(())
    }

    /// Per-query prune counters on a one-lane build of the run's rows:
    /// with one lane no worker races the best-so-far bound, so the counts
    /// repeat exactly for a seed.
    fn counters(&mut self, inputs: &Inputs, idx: &Idx, parent: u64) {
        let tr = Arc::clone(&self.tr);
        let m = self.w.slice;
        let mut sum = QueryStats::default();
        let mut first = Vec::new();
        for i in 0..m {
            let q = self.query(inputs, i);
            match tr
                .span("index.knn_with_stats", parent, i as u64 + 1, |_| idx.knn_with_stats(q, K))
            {
                Ok((_, st)) => {
                    sum.series_lbd_checked += st.series_lbd_checked;
                    sum.series_refined += st.series_refined;
                    sum.leaves_refined += st.leaves_refined;
                    sum.refine_bytes += st.refine_bytes;
                    sum.quant_lanes_killed += st.quant_lanes_killed;
                    if i < 8 {
                        first.push(st);
                    }
                }
                Err(e) => self.fail(format!("one-lane knn_with_stats: {e}")),
            }
            self.rep.attempted += 1;
        }
        let repeat = first.iter().enumerate().all(|(i, st)| {
            idx.knn_with_stats(self.query(inputs, i), K).is_ok_and(|(_, again)| &again == st)
        });
        self.rep.note("counters_repeat", repeat);
        let per_q = |x: usize| x as f64 / m as f64;
        self.rep.metric("index.lbd_checked", per_q(sum.series_lbd_checked), "count");
        self.rep.metric("index.rows_refined", per_q(sum.series_refined), "count");
        self.rep.metric("index.leaves_refined", per_q(sum.leaves_refined), "count");
        self.rep.metric("index.refine_bytes", per_q(sum.refine_bytes), "bytes");
        self.rep.metric("index.quant_lanes_killed", per_q(sum.quant_lanes_killed), "count");
        self.rep.metric(
            "index.prune_ratio",
            1.0 - sum.series_refined as f64 / (m as f64 * self.n0 as f64),
            "ratio",
        );
    }

    /// Per-layer kernel timings on this run's own data, one thread each
    /// (CPU time, so host steal does not inflate them), except the pool
    /// broadcast, whose cost is waking threads.
    fn kernels(&mut self, inputs: &Inputs, all_rows: &[f32], idx: &Idx, parent: u64) {
        let len = inputs.len;
        let sfa = idx.summarization();
        let wl = sfa.word_len();
        let rows = all_rows.len() / len;
        let sample_rows = rows.min(KERNEL_ROWS);
        let raw = &all_rows[..sample_rows * len];
        let mut zs = raw.to_vec();
        zs.chunks_mut(len).for_each(sofa_simd::znormalize);
        let mut zq = inputs.queries.clone();
        zq.chunks_mut(len).for_each(sofa_simd::znormalize);
        let n_q = zq.len() / len;
        let tr = &self.tr;

        let ns_per = |cpu0: u64, n: usize| (thread_cpu_ns() - cpu0) as f64 / n.max(1) as f64;
        let rdft = tr.span("fft.rdft", parent, 0, |_| {
            let mut dft = sofa_fft::RealDft::new(len);
            let mut out = vec![0.0f32; 2 * dft.num_coefficients()];
            let c = thread_cpu_ns();
            for s in raw.chunks(len) {
                dft.transform_into(std::hint::black_box(s), &mut out);
            }
            ns_per(c, sample_rows)
        });
        let mut tf = sfa.transformer();
        let word = tr.span("summaries.word", parent, 0, |_| {
            let mut word = vec![0u8; wl];
            let c = thread_cpu_ns();
            for s in zs.chunks(len) {
                tf.word_into(std::hint::black_box(s), &mut word);
            }
            ns_per(c, sample_rows) / 1e3
        });
        let mut values = vec![0.0f32; wl];
        let qv = tr.span("summaries.query_values", parent, 0, |_| {
            let c = thread_cpu_ns();
            for q in zq.chunks(len) {
                tf.query_values_into(std::hint::black_box(q), &mut values);
            }
            ns_per(c, n_q) / 1e3
        });
        let tlb_q = &zq[..GATE_QUERIES.min(n_q) * len];
        let tlb = tr.span("summaries.tlb_of", parent, 0, |_| {
            sofa_summaries::tlb_of(sfa, &zs, tlb_q, TLB_CANDIDATES).mean_tlb
        });
        let l2 = tr.span("simd.euclidean_sq", parent, 0, |_| {
            let q = &zq[..len];
            let c = thread_cpu_ns();
            let mut acc = 0.0f32;
            for s in all_rows.chunks(len) {
                acc += sofa_simd::euclidean_sq(q, std::hint::black_box(s));
            }
            std::hint::black_box(acc);
            (rows * len * 4) as f64 / ((thread_cpu_ns() - c) as f64 * 1e-9) / 1e9
        });
        tf.query_values_into(&zq[..len], &mut values);
        let weights: Vec<f32> = (0..wl).map(|j| sfa.weight(j)).collect();
        let mut rng = Lcg(self.args.seed | 1);
        let bounds: Vec<f32> = (0..wl * sofa_simd::BOUNDS_STRIDE)
            .map(|i| {
                let x = rng.unit() * 2.0 - 1.0;
                if i % sofa_simd::BOUNDS_STRIDE < sofa_simd::LANES {
                    x - 0.5
                } else {
                    x + 0.5
                }
            })
            .collect();
        let block_calls = 200_000;
        let block = tr.span("simd.block_lower_bound", parent, 0, |_| {
            let mut out = [0.0f32; sofa_simd::BLOCK_LANES];
            let c = thread_cpu_ns();
            for _ in 0..block_calls {
                std::hint::black_box(sofa_simd::block_lower_bound(
                    std::hint::black_box(&values),
                    &weights,
                    &bounds,
                    f32::INFINITY,
                    &mut out,
                ));
            }
            ns_per(c, block_calls)
        });
        let qcodes: Vec<u8> = (0..len).map(|_| (rng.unit() * 255.0) as u8).collect();
        let codes: Vec<u8> =
            (0..len * sofa_simd::LANES).map(|_| (rng.unit() * 255.0) as u8).collect();
        let quant_calls = 50_000;
        let quant = tr.span("simd.quant_lower_bound", parent, 0, |_| {
            let (thr, mut out) = ([i32::MAX; sofa_simd::LANES], [0i32; sofa_simd::LANES]);
            let c = thread_cpu_ns();
            for _ in 0..quant_calls {
                std::hint::black_box(sofa_simd::quant_lower_bound(
                    std::hint::black_box(&qcodes),
                    &codes,
                    &thr,
                    &mut out,
                ));
            }
            ns_per(c, quant_calls)
        });
        let broadcasts = 20_000;
        let bcast = tr.span("exec.broadcast", parent, 0, |_| {
            let t = Instant::now();
            for _ in 0..broadcasts {
                self.pool.broadcast(|lane| {
                    std::hint::black_box(lane);
                });
            }
            t.elapsed().as_secs_f64() * 1e6 / broadcasts as f64
        });
        self.rep.metric("fft.rdft_ns", rdft, "ns");
        self.rep.metric("summaries.word_us", word, "us");
        self.rep.metric("summaries.query_values_us", qv, "us");
        self.rep.metric("summaries.tlb", tlb, "ratio");
        self.rep.metric("simd.l2_gbs", l2, "GB/s");
        self.rep.metric("simd.block_lb_ns", block, "ns");
        self.rep.metric("simd.quant_lb_ns", quant, "ns");
        self.rep.metric("exec.broadcast_us", bcast, "us");
        self.rep.note("kernel_tier", sofa_simd::active_tier().name());
    }

    /// Each query's kind, and the range radius: the median, over a few
    /// queries, of the midpoint between the 20th and 21st neighbor
    /// distance, so a range answer holds about twenty rows and no row sits
    /// on the boundary by construction.
    fn plan_kinds(&mut self, inputs: &Inputs, idx: &Idx) {
        let n_queries = inputs.queries.len() / inputs.len;
        let mids: Vec<f64> = (0..8.min(n_queries))
            .filter_map(|i| idx.knn(self.query(inputs, i), 21).ok())
            .filter(|a| a.len() == 21)
            .map(|a| f64::from(a[19].dist_sq + a[20].dist_sq) / 2.0)
            .collect();
        self.r_sq = median(&mids) as f32;
        let (seed, mixed, r_sq) = (self.args.seed, self.w.mixed, self.r_sq);
        let filter = Arc::new(RowFilter::from_fn(self.n0, |r| admits(seed, r)));
        self.kinds = (0..n_queries)
            .map(|i| match (mixed, i % 4) {
                (true, 1) => QueryKind::KnnFiltered { k: K, filter: Arc::clone(&filter) },
                (true, 2) => QueryKind::Range { r_sq },
                (true, 3) => QueryKind::Ip { k: K },
                _ => QueryKind::Knn { k: K },
            })
            .collect();
    }

    /// Compares an answer with the first answer of the same query and
    /// kind; the first one is kept.
    fn same_answer(&mut self, i: usize, knn: bool, ans: Vec<Neighbor>, mode: Mode) {
        let store = if knn || matches!(self.kinds[i], QueryKind::Knn { .. }) {
            &mut self.knn_ans[i]
        } else {
            &mut self.kind_ans[i]
        };
        let same = match store {
            None => {
                *store = Some(ans);
                true
            }
            Some(first) => gate::identical(first, &ans),
        };
        if !same {
            self.fail(format!("query {i}: {mode:?} answer differs from an earlier one"));
        }
    }

    /// Rotated timed passes — direct, batch and serve — until the time is
    /// up. Returns the batch CPU µs per query.
    fn passes(&mut self, inputs: &Inputs, idx: &Arc<Idx>, parent: u64) -> f64 {
        let tr = Arc::clone(&self.tr);
        let server = Server::new(Arc::clone(idx), ServeConfig::default());
        let clients = self.pool.threads();
        let mut samples: [ModeSamples; 4] = Default::default();
        // Warm-up: scratches, pool threads and the serve collector.
        for i in 0..4.min(self.w.slice) {
            let q = self.query(inputs, i);
            let _ = idx.knn(q, K);
            let _ = server.query(q, self.kinds[i].clone());
        }
        let m0 = Meter::start();
        let start = Instant::now();
        let mut round = 0;
        while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < self.args.seconds {
            let slice = round % self.w.slices;
            for mode in rotation(round, self.args.trace) {
                let (m, lat) = tr.span("bench.pass", parent, 0, |id| {
                    self.pass(mode, inputs, idx, &server, clients, slice, id)
                });
                samples[mode as usize].add_pass(m, self.w.slice, lat);
            }
            round += 1;
        }
        self.end_phase("passes", m0);
        let stats = server.stats();
        server.shutdown();
        drop(server);

        let [direct, untraced, batch, serve] = &samples;
        let (dp, sp) = (tail_percentile(direct.lat_ms.len()), tail_percentile(serve.lat_ms.len()));
        let batch_cpu_us = median(&batch.pass_cpu_per_q_s) * 1e6;
        let e2e = [
            ("direct_p50_ms", median(&direct.pass_p50_ms), "ms"),
            ("direct_p99_ms", percentile(&direct.lat_ms, dp), "ms"),
            ("direct_cpu_ms", median(&direct.pass_cpu_per_q_s) * 1e3, "ms"),
            ("batch_qps", median(&batch.pass_net_qps), "1/s"),
            ("batch_cpu_us", batch_cpu_us, "us"),
            ("serve_p50_ms", median(&serve.pass_p50_ms), "ms"),
            ("serve_cpu_us", median(&serve.pass_cpu_per_q_s) * 1e6, "us"),
            ("serve_p99_ms", percentile(&serve.lat_ms, sp), "ms"),
            ("serve_qps", median(&serve.pass_qps), "1/s"),
        ];
        for (name, v, unit) in e2e {
            self.rep.metric(name, v, unit);
        }
        self.rep.note("rounds", round);
        self.rep.note("direct_samples", direct.lat_ms.len());
        self.rep.note("direct_tail_percentile", dp);
        self.rep.note("serve_samples", serve.lat_ms.len());
        self.rep.note("serve_tail_percentile", sp);
        self.rep.note("batch_passes", batch.pass_qps.len());
        self.rep.note("batch_qps_wall", median(&batch.pass_qps));
        self.rep.note("batch_qps_all", format!("{:.0?}", batch.pass_net_qps));
        self.rep.note("serve_clients", clients);
        if self.args.trace {
            let untraced = median(&untraced.pass_cpu_per_q_s);
            let traced = median(&direct.pass_cpu_per_q_s);
            self.rep.metric("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
            self.rep.metric("serve.tick_fill", stats.mean_tick_fill, "count");
            self.rep.metric("serve.ticket_wait_us", stats.mean_ticket_wait_us, "us");
            self.rep.metric("serve.ticks", stats.ticks as f64, "count");
        }
        batch_cpu_us
    }

    /// One timed pass over one slice in one mode. Returns what the meter
    /// saw and per-query latencies (direct and serve).
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        mode: Mode,
        inputs: &Inputs,
        idx: &Idx,
        server: &Server<Arc<Idx>>,
        clients: usize,
        slice: usize,
        parent: u64,
    ) -> (Measured, Vec<f64>) {
        let (m, len) = (self.w.slice, self.len);
        let base = slice * m;
        let qs = &inputs.queries[base * len..(base + m) * len];
        let tr = Arc::clone(&self.tr);
        match mode {
            Mode::Direct | Mode::DirectUntraced => {
                let mut lat = Vec::with_capacity(m);
                let mut answers = Vec::with_capacity(m);
                let meter = Meter::start();
                for (j, q) in qs.chunks(len).enumerate() {
                    let t = Instant::now();
                    let a = if mode == Mode::Direct {
                        tr.span("index.knn", parent, (base + j) as u64 + 1, |_| idx.knn(q, K))
                    } else {
                        idx.knn(q, K)
                    };
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                    answers.push(a);
                }
                let measured = meter.stop();
                for (j, a) in answers.into_iter().enumerate() {
                    self.settle(base + j, true, a.map_err(|e| e.to_string()), mode);
                }
                (measured, lat)
            }
            Mode::Batch => {
                let kinds = &self.kinds[base..base + m];
                let outs: Vec<Mutex<Vec<Neighbor>>> = (0..m).map(|_| Mutex::default()).collect();
                let meter = Meter::start();
                let res: Result<Vec<Vec<Neighbor>>, IndexError> = if self.w.mixed {
                    tr.span("index.query_batch_into_cancel", parent, 0, |_| {
                        idx.query_batch_into_cancel(qs, kinds, &outs, &[])
                    })
                    .map(|()| outs.into_iter().map(Mutex::into_inner).collect())
                } else {
                    tr.span("index.knn_batch", parent, 0, |_| idx.knn_batch(qs, K))
                };
                let measured = meter.stop();
                match res {
                    Ok(answers) => {
                        for (j, a) in answers.into_iter().enumerate() {
                            self.settle(base + j, false, Ok(a), mode);
                        }
                    }
                    Err(e) => {
                        for j in 0..m {
                            self.settle(base + j, false, Err(e.to_string()), mode);
                        }
                    }
                }
                (measured, Vec::new())
            }
            Mode::Serve => {
                let next = AtomicUsize::new(0);
                let slots: Vec<Mutex<Option<Answer>>> = (0..m).map(|_| Mutex::new(None)).collect();
                let kinds = &self.kinds[base..base + m];
                let meter = Meter::start();
                let lat: Vec<f64> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..clients)
                        .map(|_| {
                            s.spawn(|| {
                                let mut lat = Vec::new();
                                loop {
                                    let j = next.fetch_add(1, Ordering::Relaxed);
                                    if j >= m {
                                        break lat;
                                    }
                                    let q = &qs[j * len..(j + 1) * len];
                                    let t = Instant::now();
                                    let a = tr.span(
                                        "serve.query",
                                        parent,
                                        (base + j) as u64 + 1,
                                        |_| server.query(q, kinds[j].clone()),
                                    );
                                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                                    *slots[j].lock() = Some(a.map_err(|e| e.to_string()));
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("serve client panicked"))
                        .collect()
                });
                let measured = meter.stop();
                for (j, slot) in slots.into_iter().enumerate() {
                    let a = slot.into_inner().unwrap_or_else(|| Err("no answer".into()));
                    self.settle(base + j, false, a, mode);
                }
                (measured, lat)
            }
        }
    }

    fn settle(&mut self, i: usize, knn: bool, a: Answer, mode: Mode) {
        self.rep.attempted += 1;
        match a {
            Ok(ans) => self.same_answer(i, knn, ans, mode),
            Err(e) => self.fail(format!("query {i}: {mode:?}: {e}")),
        }
    }

    /// Online inserts; on mixed workloads, a group of queries of every kind
    /// after every few inserts, answered on leaves the inserts left stale.
    fn inserts(&mut self, inputs: &Inputs, idx: &mut Idx, parent: u64) {
        let len = self.len;
        let meter = Meter::start();
        let mut lat = Vec::with_capacity(self.w.inserts);
        let tr = Arc::clone(&self.tr);
        let (mut repacks, mut repack_ms, mut repack_at) = (0usize, 0.0f64, Vec::new());
        let seed = self.args.seed;
        let n_queries = self.kinds.len();
        for (j, row) in inputs.inserts.chunks(len).enumerate() {
            let packed = self.args.trace.then(|| idx.stats().packed_leaves);
            let t = Instant::now();
            let res = tr.span("index.insert", parent, 0, |_| idx.insert(row));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            lat.push(ms);
            self.rep.attempted += 1;
            match res {
                Ok(id) if id as usize == self.n0 + j => {}
                Ok(id) => self.fail(format!("insert {j} got row id {id}")),
                Err(e) => self.fail(format!("insert {j}: {e}")),
            }
            if packed.is_some_and(|p| idx.stats().packed_leaves > p) {
                repacks += 1;
                repack_ms += ms;
                repack_at.push(j);
            }
            if self.w.mixed && (j + 1) % INSERTS_PER_QUERY_GROUP == 0 {
                let q = self.query(inputs, (j / INSERTS_PER_QUERY_GROUP) % n_queries);
                let filter = RowFilter::from_fn(idx.n_series(), |r| admits(seed, r));
                let req = (j + 1) as u64;
                let errs = [
                    tr.span("index.knn", parent, req, |_| idx.knn(q, K)).err(),
                    tr.span("index.knn_filtered", parent, req, |_| idx.knn_filtered(q, K, &filter))
                        .err(),
                    tr.span("index.range", parent, req, |_| idx.range(q, self.r_sq)).err(),
                    tr.span("index.knn_ip", parent, req, |_| idx.knn_ip(q, K)).err(),
                ];
                self.rep.attempted += 4;
                for e in errs.into_iter().flatten() {
                    self.fail(format!("query during inserts: {e}"));
                }
            }
        }
        let insert_s: f64 = lat.iter().sum::<f64>() / 1e3;
        self.end_phase("inserts", meter);
        let p = tail_percentile(lat.len());
        let rate = lat.len() as f64 / insert_s;
        let tail = percentile(&lat, p);
        self.rep.note("insert_samples", lat.len());
        self.rep.note("insert_tail_percentile", p);
        self.rep.metric("insert_rows_s", rate, "1/s");
        self.rep.metric("insert_p99_ms", tail, "ms");
        self.rep.metric("index.fallback_leaf_pct", idx.stats().fallback_leaf_pct, "%");
        if self.args.trace {
            self.rep.metric("index.auto_repacks", repacks as f64, "count");
            self.rep.metric("index.repack_ms", repack_ms, "ms");
            self.rep.note("repack_at_insert", format!("{repack_at:?}"));
        }
    }

    /// Writes a snapshot, then opens it (mmap) and answers one query,
    /// several times. Returns the last opened index.
    fn restart(
        &mut self,
        inputs: &Inputs,
        idx: Idx,
        path: &std::path::Path,
        parent: u64,
    ) -> Option<Idx> {
        let tr = Arc::clone(&self.tr);
        let meter = Meter::start();
        let n_rows = idx.n_series();
        let t = Instant::now();
        let written = tr.span("index.snapshot", parent, 0, |_| idx.snapshot(path));
        let write_s = t.elapsed().as_secs_f64();
        drop(idx);
        self.rep.attempted += 1;
        let bytes = match written {
            Ok(b) => b,
            Err(e) => {
                self.fail(format!("snapshot: {e}"));
                self.rep.metric("restart_s", f64::NAN, "s");
                return None;
            }
        };
        let q0 = self.query(inputs, 0);
        let (mut restart_s, mut restart_wall) = (Vec::new(), Vec::new());
        let (mut open_s, mut first_ms) = (Vec::new(), Vec::new());
        let mut opened = None;
        for _ in 0..RESTART_REPS {
            drop(opened.take());
            let timed = Meter::start();
            let t = Instant::now();
            let res = tr.span("index.open", parent, 0, |_| {
                Idx::open_with_pool(path, Arc::clone(&self.pool))
            });
            let open = t.elapsed().as_secs_f64();
            self.rep.attempted += 2;
            let idx = match res {
                Ok(idx) => idx,
                Err(e) => {
                    // The first query, which cannot run, fails with it.
                    self.fail(format!("open: {e}"));
                    self.rep.failed += 1;
                    continue;
                }
            };
            let first = tr.span("index.knn", parent, 1, |_| idx.knn(q0, K));
            let total = t.elapsed().as_secs_f64();
            let timed = timed.stop();
            match first {
                Ok(a) if a.len() == K.min(n_rows) => {}
                Ok(a) => self.fail(format!("first query after open returned {} rows", a.len())),
                Err(e) => self.fail(format!("first query after open: {e}")),
            }
            restart_s.push(timed.net_s());
            restart_wall.push(timed.wall_s);
            open_s.push(open);
            first_ms.push((total - open) * 1e3);
            opened = Some(idx);
        }
        self.end_phase("restart", meter);
        self.rep.note("restart_reps", restart_s.len());
        self.rep.note("restart_s_all", format!("{restart_s:.4?}"));
        let restart = if restart_s.is_empty() { f64::NAN } else { median(&restart_s) };
        self.rep.metric("restart_s", restart, "s");
        self.rep.note("restart_s_wall", median(&restart_wall));
        self.rep.metric("snapshot.write_s", write_s, "s");
        self.rep.metric("snapshot.open_s", median(&open_s), "s");
        self.rep.metric(
            "snapshot.bytes_ratio",
            bytes as f64 / (n_rows * self.len * 4) as f64,
            "ratio",
        );
        self.rep.metric("snapshot.first_query_ms", median(&first_ms), "ms");
        opened
    }

    /// The exactness gate, after every timed phase: the first
    /// [`GATE_QUERIES`] queries' answers from the timed passes (built
    /// index, before inserts) and fresh answers of every kind from the
    /// mmap-opened index (inserted rows included), against brute force.
    fn gate(&mut self, inputs: Inputs, opened: Option<Idx>, batch_cpu_us: f64, parent: u64) {
        let tr = Arc::clone(&self.tr);
        let (len, n0) = (self.len, self.n0);
        let seed = self.args.seed;
        let g = GATE_QUERIES.min(self.w.slice);
        let Inputs { queries, inserts, .. } = inputs;
        let raw_q = &queries[..g * len];
        let zq: Vec<Vec<f32>> = raw_q
            .chunks(len)
            .map(|q| {
                let mut z = q.to_vec();
                sofa_simd::znormalize(&mut z);
                z
            })
            .collect();
        let mut rows = tr.span("data.generate_rows", parent, 0, |_| {
            generate_rows(&self.w, seed, self.w.inserts)
        });
        rows.extend_from_slice(&inserts);
        drop(inserts);
        let n_all = rows.len() / len;
        let scan = tr
            .span("bench.scan", parent, 0, |_| Scan::new(&rows, len, n0, &zq, self.pool.threads()));

        // Answers of every kind from the reopened index.
        let mut post: Vec<[Option<Vec<Neighbor>>; 3]> = Vec::new();
        let mut post_ip: Vec<Option<Vec<(u32, f32)>>> = Vec::new();
        let reopened = opened.is_some();
        if let Some(idx) = opened {
            let filter = RowFilter::from_fn(idx.n_series(), |r| admits(seed, r));
            for (i, q) in raw_q.chunks(len).enumerate() {
                let req = i as u64 + 1;
                let answers = [
                    tr.span("index.knn", parent, req, |_| idx.knn(q, K)),
                    tr.span("index.knn_filtered", parent, req, |_| idx.knn_filtered(q, K, &filter)),
                    tr.span("index.range", parent, req, |_| idx.range(q, self.r_sq)),
                ];
                let ip = tr.span("index.knn_ip", parent, req, |_| idx.knn_ip(q, K));
                self.rep.attempted += 4;
                let mut row: [Option<Vec<Neighbor>>; 3] = [None, None, None];
                for (slot, a) in row.iter_mut().zip(answers) {
                    match a {
                        Ok(a) => *slot = Some(a),
                        Err(e) => self.fail(format!("gate query {i}: {e}")),
                    }
                }
                post.push(row);
                match ip {
                    Ok(a) => post_ip.push(Some(a.iter().map(|n| (n.row, n.ip)).collect())),
                    Err(e) => {
                        self.fail(format!("gate ip query {i}: {e}"));
                        post_ip.push(None);
                    }
                }
            }
        }
        if self.args.corrupt {
            if let Some(Some(a)) = post.first_mut().map(|r| &mut r[0]) {
                let last = a.len() - 1;
                a[last].row = (a[last].row + 1) % n_all as u32;
            }
        }

        // Before inserts: the first answers the timed passes produced,
        // against the scan of the rows indexed then.
        for i in 0..g {
            let (d, ip) = (&scan.dist[i], &scan.ip[i]);
            let ok = self.knn_ans[i]
                .as_ref()
                .is_some_and(|a| gate::identical(a, &gate::top_k(d, n0, K, |_| true)));
            self.check(ok, i, "k-NN before inserts");
            if !self.w.mixed || matches!(self.kinds[i], QueryKind::Knn { .. }) {
                continue;
            }
            let ok = self.kind_ans[i].as_ref().is_some_and(|a| match &self.kinds[i] {
                QueryKind::KnnFiltered { .. } => {
                    gate::identical(a, &gate::top_k(d, n0, K, |r| admits(seed, r)))
                }
                QueryKind::Range { r_sq } => gate::identical(a, &gate::ball(d, n0, *r_sq)),
                // Mixed batches carry the score `2·len − ip` the funnel ranks by.
                QueryKind::Ip { .. } => gate::identical(a, &gate::top_k_ip(ip, n0, len, K)),
                QueryKind::Knn { .. } => true,
            });
            self.check(ok, i, "mixed kind before inserts");
        }

        // After inserts and a restart.
        let flat = tr.span("baselines.flat_l2", parent, 0, |_| {
            FlatL2::with_pool(rows, len, Arc::clone(&self.pool))
        });
        let post_ref = tr.span("baselines.knn_batch", parent, 0, |_| flat.knn_batch(raw_q, K));
        for (i, (answers, ip_ans)) in post.iter().zip(&post_ip).enumerate() {
            let (d, ip) = (&scan.dist[i], &scan.ip[i]);
            let checks = [
                answers[0].as_ref().is_some_and(|a| {
                    gate::identical(a, &gate::top_k(d, n_all, K, |_| true))
                        && gate::close_to_flat(a, &post_ref[i])
                }),
                answers[1].as_ref().is_some_and(|a| {
                    gate::identical(a, &gate::top_k(d, n_all, K, |r| admits(seed, r)))
                }),
                answers[2]
                    .as_ref()
                    .is_some_and(|a| gate::identical(a, &gate::ball(d, n_all, self.r_sq))),
                ip_ans
                    .as_ref()
                    .is_some_and(|a| gate::ip_identical(a, &gate::top_k_ip(ip, n_all, len, K), ip)),
            ];
            for (ok, what) in checks.into_iter().zip(["k-NN", "filtered k-NN", "range", "IP"]) {
                self.check(ok, i, &format!("{what} after restart"));
            }
        }
        if !reopened {
            self.fail("no reopened index to check");
        }

        if self.args.trace {
            let n = (2 * GATE_QUERIES).min(self.w.slice);
            let c = process_cpu_ns();
            let _ = tr.span("baselines.knn_batch", parent, 0, |_| {
                flat.knn_batch(std::hint::black_box(&queries[..n * len]), K)
            });
            let flat_us = (process_cpu_ns() - c) as f64 / 1e3 / n as f64;
            self.rep.metric("baselines.flat_cpu_us", flat_us, "us");
            self.rep.metric("baselines.flat_over_batch_cpu", flat_us / batch_cpu_us, "x");
            self.rep.note(
                "flat_over_batch_base",
                format!("flat {flat_us:.1} us / batch {batch_cpu_us:.1} us per query"),
            );
        }
    }

    fn check(&mut self, ok: bool, i: usize, what: &str) {
        self.rep.attempted += 1;
        if !ok {
            self.fail(format!("gate query {i}: {what} answer is not exact"));
        }
    }

    fn finish(&mut self) {
        let mut all = CpuTicks::default();
        for (phase, m) in &self.phases {
            self.rep.note(&format!("steal_pct.{phase}"), format!("{:.2}", m.ticks.steal_pct()));
            self.rep.note(&format!("cpu_s.{phase}"), format!("{:.4}", m.cpu_s));
            self.rep.note(&format!("wall_s.{phase}"), format!("{:.4}", m.wall_s));
            all.add(m.ticks);
        }
        self.rep.note("steal_pct", format!("{:.2}", all.steal_pct()));
        for (phase, mb) in &self.rss_mb {
            self.rep.note(&format!("rss_mb.{phase}"), format!("{mb:.1}"));
        }
        if self.args.trace {
            let spans = self.tr.spans();
            let self_times = self_time_by_layer(&spans);
            self.rep.note("trace_spans", spans.len());
            for layer in
                ["bench", "data", "fft", "summaries", "simd", "exec", "index", "serve", "baselines"]
            {
                let s = self_times.iter().find(|(l, _)| *l == layer).map_or(0.0, |t| t.1);
                self.rep.metric(&format!("self.{layer}_s"), s, "s");
            }
            let path =
                self.args.out_dir.join(format!("trace-{}-{}.jsonl", self.w.name, self.args.seed));
            match self.tr.write_jsonl(&path) {
                Ok(()) => self.rep.note("trace_file", path.display()),
                Err(e) => eprintln!("writing {}: {e}", path.display()),
            }
        }
        self.rep.note("failed_frac", self.rep.failed_frac());
        self.rep.note("threads", self.pool.threads());
        self.rep.note("rows", self.n0);
        self.rep.note("queries_per_pass", self.w.slice);
        self.rep.keep_only(if self.args.trace { &PER_LAYER } else { &END_TO_END });
    }
}

/// The pass order of `round`: direct, batch and serve, rotated so each
/// mode runs first, second and third equally often. In a traced run the
/// untraced direct pass sits right beside the traced one, in alternating
/// order, so their difference is the tracing overhead alone.
fn rotation(round: usize, traced: bool) -> Vec<Mode> {
    let base = [Mode::Direct, Mode::Batch, Mode::Serve];
    let mut order = Vec::with_capacity(4);
    for k in 0..base.len() {
        match base[(round + k) % base.len()] {
            Mode::Direct if traced && round.is_multiple_of(2) => {
                order.extend([Mode::Direct, Mode::DirectUntraced]);
            }
            Mode::Direct if traced => order.extend([Mode::DirectUntraced, Mode::Direct]),
            mode => order.push(mode),
        }
    }
    order
}

/// Build timings: the whole set-up, SFA learning, and the tree build.
struct BuildTimes {
    total: Measured,
    learn_s: f64,
    build_s: f64,
}

/// The set-up: z-normalizes the generated rows in place, learns SFA and
/// builds the tree and its packs on `pool`, the index taking the rows.
fn build(
    tr: &Tracer,
    mut data: Vec<f32>,
    len: usize,
    pool: Arc<ExecPool>,
    parent: u64,
) -> Result<(Idx, BuildTimes), String> {
    let total = Meter::start();
    tr.span("index.znormalize_rows", parent, 0, |_| {
        sofa_index::znormalize_rows(&mut data, len, &pool)
    });
    let t_learn = Instant::now();
    let sfa =
        tr.span("summaries.learn", parent, 0, |_| Sfa::learn(&data, len, &SfaConfig::default()));
    let learn_s = t_learn.elapsed().as_secs_f64();
    let t_build = Instant::now();
    let cfg = IndexConfig::with_threads(pool.threads());
    let idx = tr
        .span("index.build", parent, 0, |_| Index::build_with_pool(sfa, data, cfg, pool))
        .map_err(|e| format!("build: {e}"))?;
    let build_s = t_build.elapsed().as_secs_f64();
    Ok((idx, BuildTimes { total: total.stop(), learn_s, build_s }))
}

/// Deletes a file when dropped (the snapshot, on every exit path).
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A small seeded generator for synthetic kernel inputs.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f32 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }
}
