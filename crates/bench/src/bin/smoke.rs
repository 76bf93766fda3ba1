//! Smoke benchmark and CI perf gate: candidate-generation throughput of the
//! exhaustive pipeline vs. the best-first top-k generator, executor
//! throughput of the batched hash-join engine vs. the naive oracle, the
//! end-to-end `answers_top_k` path, and (with `--serve`) the concurrent
//! `SearchService` replaying a seeded query log at 1/2/4/8 workers with QPS
//! and p50/p95/p99 latency.
//!
//! With `--scale`, a storage-footprint tier regenerates the profile's IMDB
//! fixture at scale factors 1/10/50 (plus x100 on the full profile) and
//! records rows, build time, snapshot bytes (interned/delta-coded vs. the
//! naive v1 representation), bytes/row, approximate resident heap bytes, the
//! OS-reported resident set size (Linux), and single-worker QPS per scale.
//!
//! ```text
//! # CI: quick profile, serve replay, scale tier, regression gate + artifact
//! cargo run --release -p keybridge-bench --bin smoke -- \
//!     --smoke --serve --scale --check BENCH_baseline.json --out BENCH_current.json
//! # refresh the committed baseline (same profile CI checks against!)
//! cargo run --release -p keybridge-bench --bin smoke -- \
//!     --smoke --serve --scale --out BENCH_baseline.json
//! # full profile, local trend spotting
//! cargo run --release -p keybridge-bench --bin smoke -- --serve --scale
//! ```
//!
//! Counts (spaces, materializations, prunes) are deterministic per seed and
//! gated strictly; wall-clock numbers depend on the machine and are gated
//! with the 1.5x slack of `keybridge_bench::check_regression`.

use keybridge_bench::{
    check_regression, openloop_schedule, replay_diversified, replay_serve, run_open_loop,
    sweep_capacity, CheckConfig, DivServeRun, IngestRun, MixWeights, OpenLoopConfig, OpenLoopRun,
    RecoveryRun, ServeRun, SloConfig, SweepConfig, SweepOutcome,
};
use keybridge_core::{
    execute_interpretation_cached, DiversifyOptions, DurableOptions, ExecCache, Interpreter,
    InterpreterConfig, KeywordQuery, SearchSnapshot, ServeRequests, ServiceStats, ShardedService,
    TemplateCatalog,
};
use keybridge_datagen::{
    holdout_plan, sharded_holdout_plan, ImdbConfig, ImdbDataset, IngestConfig, MixedWorkload,
    Workload, WorkloadConfig,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{ExecOptions, ExecStats, ExecStrategy};
use std::sync::Arc;
use std::time::Instant;

/// Workload sizing: `--smoke` selects `quick` (a genuinely reduced fixture
/// and fewer timing repetitions) so the CI job stays fast as workloads
/// grow; the default `full` profile is for local measurement. Snapshots
/// record the profile and the checker refuses cross-profile comparisons.
struct Profile {
    name: &'static str,
    fixture: &'static str,
    imdb: ImdbConfig,
    /// Timed repetitions per wall-clock sample (median taken).
    runs: usize,
    /// Queries replayed through the service per worker count.
    serve_queries: usize,
    /// Per-row holdout probability of the live-ingestion phase.
    ingest_holdout: f64,
    /// Insert batches (= epoch swaps) of the live-ingestion phase.
    ingest_batches: usize,
    /// Operations per rung of the open-loop capacity sweep (fixed across
    /// rungs, so the per-mode schedule counts stay rate-independent).
    sweep_ops: usize,
    /// Offered rate of the sweep's first rung.
    sweep_start_rps: f64,
    /// Insert batches available to the sweep schedule's ingest slots.
    sweep_batches: usize,
    /// Scale factors of the `--scale` storage-footprint tier. The full
    /// profile adds an x100 rung for the README footprint table; CI's quick
    /// profile stops at x50 to keep the job fast.
    scales: &'static [u32],
}

impl Profile {
    fn full() -> Self {
        Profile {
            name: "full",
            fixture: "imdb-default",
            imdb: ImdbConfig::default(),
            runs: 5,
            serve_queries: 108,
            ingest_holdout: 0.15,
            ingest_batches: 10,
            sweep_ops: 480,
            sweep_start_rps: 200.0,
            sweep_batches: 6,
            scales: &[1, 10, 50, 100],
        }
    }

    fn quick() -> Self {
        Profile {
            name: "quick",
            fixture: "imdb-quick",
            imdb: ImdbConfig {
                seed: 1,
                actors: 400,
                directors: 100,
                movies: 500,
                companies: 50,
                avg_cast: 3,
                scale: 1.0,
            },
            runs: 3,
            serve_queries: 48,
            ingest_holdout: 0.15,
            ingest_batches: 6,
            sweep_ops: 320,
            sweep_start_rps: 200.0,
            sweep_batches: 4,
            scales: &[1, 10, 50],
        }
    }
}

/// Worker counts of the serve replay (the 1/2/4/8 ladder of the issue).
const SERVE_WORKERS: &[usize] = &[1, 2, 4, 8];

/// Queries replayed (single worker) per scale for the `qps_scaleN` figures.
const SCALE_QUERIES: usize = 24;

/// One rung of the `--scale` tier: the profile's IMDB fixture regenerated at
/// `scale`, with its storage footprint measured on the snapshot codecs (a
/// pure function of content, machine-independent) and on the deterministic
/// heap model of `Database::approx_heap_bytes`.
struct ScaleRun {
    scale: u32,
    rows: usize,
    build_ms: f64,
    /// Interned v2 store snapshot vs. what the v1 per-cell-String codec
    /// would have written for identical content.
    store_bytes: u64,
    store_bytes_naive: u64,
    /// Delta-varint v2 index snapshot vs. the v1 fixed-width postings.
    index_bytes: u64,
    index_bytes_naive: u64,
    heap_bytes: u64,
    heap_bytes_naive: u64,
    /// OS-reported resident set size right after the rung's structures are
    /// built — the honesty cross-check of the deterministic heap model.
    /// `None` off Linux; always informational (allocators rarely return
    /// pages, so earlier rungs inflate later readings).
    rss_bytes: Option<u64>,
    qps: f64,
}

impl ScaleRun {
    fn bytes_per_row(&self) -> f64 {
        (self.store_bytes + self.index_bytes) as f64 / self.rows.max(1) as f64
    }

    fn bytes_per_row_naive(&self) -> f64 {
        (self.store_bytes_naive + self.index_bytes_naive) as f64 / self.rows.max(1) as f64
    }
}

/// Shard count of the scatter-gather phase.
const SHARDS: usize = 4;

/// Resident set size of this process from `/proc/self/statm` (resident
/// pages × the 4 KiB page size every supported Linux target uses). `None`
/// when the proc file is unavailable (non-Linux hosts).
#[cfg(target_os = "linux")]
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident * 4096)
}

#[cfg(not(target_os = "linux"))]
fn rss_bytes() -> Option<u64> {
    None
}

/// Median wall-clock seconds of `f` over `runs` runs (after one warm-up).
fn time<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut sweep_out_path: Option<String> = None;
    let mut profile = Profile::full();
    let mut serve = false;
    let mut scale = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => profile = Profile::quick(),
            "--serve" => serve = true,
            "--scale" => scale = true,
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 1;
            }
            "--check" => {
                check_path = args.get(i + 1).cloned();
                i += 1;
            }
            "--sweep-out" => {
                sweep_out_path = args.get(i + 1).cloned();
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: smoke [--smoke] [--serve] [--scale] [--out FILE] \
                     [--check BASELINE] [--sweep-out FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("building IMDB fixture ({} profile)…", profile.name);
    let t_gen = Instant::now();
    let data = ImdbDataset::generate(profile.imdb).expect("generation succeeds");
    let startup_build_ms = t_gen.elapsed().as_secs_f64() * 1e3;
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    println!(
        "  {} templates, {} index terms",
        catalog.len(),
        index.term_count()
    );

    // The acceptance scenario: a 4-keyword query with partials enabled.
    let query4 = KeywordQuery::from_terms(vec![
        "hanks".into(),
        "terminal".into(),
        "actor".into(),
        "movie".into(),
    ]);
    let k = 10;
    let runs = profile.runs;

    let exhaustive_len = interpreter.ranked_with_partials(&query4).len();
    let (topk, stats) = interpreter.top_k_with_stats(&query4, k, true);
    let t_exhaustive = time(runs, || interpreter.ranked_with_partials(&query4));
    let t_topk = time(runs, || interpreter.top_k(&query4, k));

    // Throughput of complete-only generation over a 2-keyword query — the
    // "candidate-generation throughput" headline number.
    let query2 = KeywordQuery::from_terms(vec!["hanks".into(), "terminal".into()]);
    let t_rank2 = time(2 * runs, || interpreter.ranked_interpretations(&query2));
    let space2 = interpreter.ranked_interpretations(&query2).len();
    let t_top2 = time(2 * runs, || interpreter.top_k_complete(&query2, k));

    let speedup = t_exhaustive / t_topk.max(1e-12);
    let mat_ratio = exhaustive_len as f64 / (stats.materialized.max(1)) as f64;
    println!("\n== candidate generation (4 keywords, partials) ==");
    println!(
        "  exhaustive : {exhaustive_len} interpretations in {:.2} ms",
        t_exhaustive * 1e3
    );
    println!(
        "  best-first : top {} of that space in {:.2} ms ({} materialized, {} expanded, {} pruned)",
        topk.len(),
        t_topk * 1e3,
        stats.materialized,
        stats.expanded,
        stats.pruned,
    );
    println!("  speedup    : {speedup:.1}x wall-clock, {mat_ratio:.1}x fewer materializations");
    println!("\n== complete-only generation (2 keywords) ==");
    println!(
        "  exhaustive : {space2} interpretations in {:.2} ms ({:.0} interpretations/s)",
        t_rank2 * 1e3,
        space2 as f64 / t_rank2.max(1e-12),
    );
    println!("  best-first : top {k} in {:.2} ms", t_top2 * 1e3);

    if stats.materialized * 5 > exhaustive_len && speedup < 2.0 {
        eprintln!(
            "SMOKE FAIL: neither 5x fewer materializations ({mat_ratio:.1}x) \
             nor 2x wall-clock ({speedup:.1}x)"
        );
        std::process::exit(1);
    }

    // == execution: batched hash joins vs. the naive oracle, and the
    //    end-to-end streaming answers path, on the 4-keyword query. ==
    let exec_opts = |strategy| ExecOptions {
        limit: 10_000,
        strategy,
        ..Default::default()
    };
    let sum_stats = |strategy| -> ExecStats {
        // One cache per invocation: the top-k executions share its batch
        // arena (the allocation profile `batch_allocs` gates — the arena
        // stops growing after the first queries warm it), while fresh
        // invocations stay cold so every counter is replay-deterministic.
        let mut cache = ExecCache::new();
        let mut total = ExecStats::default();
        for s in &topk {
            if let Ok(r) = execute_interpretation_cached(
                &data.db,
                &index,
                &catalog,
                &s.interpretation,
                exec_opts(strategy),
                &mut cache,
            ) {
                total.absorb(&r.stats);
            }
        }
        total
    };
    let hj = sum_stats(ExecStrategy::HashJoin);
    let nv = sum_stats(ExecStrategy::Naive);
    let t_exec_hj = time(runs, || sum_stats(ExecStrategy::HashJoin));
    let t_exec_nv = time(runs, || sum_stats(ExecStrategy::Naive));
    let (answers, astats) = interpreter.answers_top_k_with_stats(&query4, k);
    let t_answers = time(runs, || interpreter.answers_top_k(&query4, k));
    println!(
        "\n== execution (top {} interpretations of the 4-keyword query) ==",
        topk.len()
    );
    println!(
        "  naive      : {} intermediate bindings, {} probes in {:.2} ms",
        nv.intermediate_bindings,
        nv.probes,
        t_exec_nv * 1e3
    );
    println!(
        "  hash join  : {} intermediate bindings, {} probes, {} batches, \
         semi-join kept {}/{} rows ({:.0}% pruned, {} rows touched) in {:.2} ms",
        hj.intermediate_bindings,
        hj.probes,
        hj.batches,
        hj.semijoin_rows_out,
        hj.semijoin_rows_in,
        hj.semijoin_reduction() * 100.0,
        hj.reduce_rows_touched,
        t_exec_hj * 1e3
    );
    println!(
        "  answers    : top {} end-to-end in {:.2} ms ({} generated, {} executed, \
         {} intermediates)",
        answers.len(),
        t_answers * 1e3,
        astats.generated,
        astats.executed,
        astats.exec.intermediate_bindings,
    );
    println!(
        "  arena      : {} batch columns served from {} arena growths \
         (peak {:.1} KiB resident)",
        hj.batch_cols,
        hj.batch_allocs,
        hj.arena_bytes_peak as f64 / 1024.0,
    );
    if hj.intermediate_bindings >= nv.intermediate_bindings {
        eprintln!(
            "SMOKE FAIL: hash join did not materialize strictly fewer intermediate \
             bindings ({} vs {})",
            hj.intermediate_bindings, nv.intermediate_bindings
        );
        std::process::exit(1);
    }
    // The arena mandate: replaying the top-k interpretations through one
    // cache must grow the arena at least 10x less often than the pre-arena
    // executor allocated batch columns.
    if hj.batch_allocs * 10 > hj.batch_cols {
        eprintln!(
            "SMOKE FAIL: arena grew {} times for {} batch columns — the \
             reuse path is not absorbing per-batch allocations (need >= 10x fewer)",
            hj.batch_allocs, hj.batch_cols
        );
        std::process::exit(1);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // == scale: the storage-footprint tier. Regenerate the profile's IMDB
    //    fixture at scale 1/10/50, measure the interned/delta-coded snapshot
    //    codecs against the naive v1 representation of identical content,
    //    and replay a short seeded log for a per-scale QPS figure. ==
    let mut scale_runs: Vec<ScaleRun> = Vec::new();
    let mut scale_gate_failure: Option<String> = None;
    if scale {
        println!(
            "\n== scale (IMDB fixture at {}, {} profile) ==",
            profile
                .scales
                .iter()
                .map(|s| format!("x{s}"))
                .collect::<Vec<_>>()
                .join("/"),
            profile.name
        );
        for &s in profile.scales {
            let cfg = ImdbConfig {
                scale: s as f64,
                ..profile.imdb
            };
            let (data, build_ms) = if s == 1 && profile.imdb.scale == 1.0 {
                // The startup fixture *is* the x1 fixture (identical
                // generator config): reuse it instead of paying a redundant
                // regeneration, and record the startup generation's time.
                println!("  x1  : reusing the startup fixture (identical generator config)");
                (data.clone(), startup_build_ms)
            } else {
                let t = Instant::now();
                let d = ImdbDataset::generate(cfg).expect("generation succeeds");
                (d, t.elapsed().as_secs_f64() * 1e3)
            };
            let rows = data.db.total_rows();
            let store_bytes = data
                .db
                .snapshot_bytes()
                .expect("store fits the codec")
                .len() as u64;
            let store_bytes_naive = data.db.naive_snapshot_bytes();
            let heap_bytes = data.db.approx_heap_bytes();
            let heap_bytes_naive = data.db.naive_heap_bytes();
            let index = InvertedIndex::build(&data.db);
            let index_bytes = index.snapshot_bytes().expect("index fits the codec").len() as u64;
            let index_bytes_naive = index.naive_snapshot_bytes();
            // Probe RSS while this rung's store + index are resident,
            // before the serving snapshot adds its own structures.
            let rss = rss_bytes();
            let workload = Workload::imdb(
                &data,
                WorkloadConfig {
                    seed: 7,
                    n_queries: SCALE_QUERIES,
                    mc_fraction: 0.5,
                },
            );
            let queries: Vec<Vec<String>> = workload
                .queries
                .iter()
                .map(|q| q.keywords.clone())
                .collect();
            let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
            let snapshot = Arc::new(SearchSnapshot::new(
                data.db,
                index,
                catalog,
                InterpreterConfig::default(),
            ));
            let mut qps: Vec<f64> = (0..3)
                .map(|_| replay_serve(&snapshot, &queries, 1, 5).qps)
                .collect();
            qps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let run = ScaleRun {
                scale: s,
                rows,
                build_ms,
                store_bytes,
                store_bytes_naive,
                index_bytes,
                index_bytes_naive,
                heap_bytes,
                heap_bytes_naive,
                rss_bytes: rss,
                qps: qps[qps.len() / 2],
            };
            println!(
                "  x{:<3}: {:>8} rows in {:>8.1} ms   {:>6.1} B/row on disk \
                 (naive {:>6.1})   heap {:>6.2} MiB (naive {:>6.2})   rss {}   {:>7.1} qps",
                run.scale,
                run.rows,
                run.build_ms,
                run.bytes_per_row(),
                run.bytes_per_row_naive(),
                run.heap_bytes as f64 / (1024.0 * 1024.0),
                run.heap_bytes_naive as f64 / (1024.0 * 1024.0),
                run.rss_bytes.map_or("n/a".into(), |b| {
                    format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
                }),
                run.qps,
            );
            scale_runs.push(run);
        }
        // The tier's two hard gates (deferred like the serve gate so the
        // snapshot is still written as the CI artifact): the x50 fixture
        // must clear 100k rows, and at x10 the interned + delta-coded
        // snapshot must be at least 25% smaller than the naive codec.
        if let Some(r50) = scale_runs.iter().find(|r| r.scale == 50) {
            if r50.rows < 100_000 {
                scale_gate_failure = Some(format!(
                    "scale-50 fixture built only {} rows (need >= 100000)",
                    r50.rows
                ));
            }
        }
        if let Some(r10) = scale_runs.iter().find(|r| r.scale == 10) {
            let packed = r10.store_bytes + r10.index_bytes;
            let naive = r10.store_bytes_naive + r10.index_bytes_naive;
            if packed * 4 > naive * 3 && scale_gate_failure.is_none() {
                scale_gate_failure = Some(format!(
                    "scale-10 snapshot is {packed} bytes vs {naive} naive — \
                     less than the required 25% saving"
                ));
            }
        }
    }

    // == serve: query-log replay through the concurrent SearchService. ==
    let mut serve_runs: Vec<ServeRun> = Vec::new();
    let mut div_run: Option<DivServeRun> = None;
    let mut ingest_run: Option<IngestRun> = None;
    let mut recovery_run: Option<RecoveryRun> = None;
    let mut sweep_outcome: Option<SweepOutcome> = None;
    let mut sharded_run: Option<(OpenLoopRun, ServiceStats)> = None;
    let mut sweep_workers = 0usize;
    let mut serve_gate_failure: Option<String> = None;
    if serve {
        let workload = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 7,
                n_queries: profile.serve_queries,
                mc_fraction: 0.5,
            },
        );
        let queries: Vec<Vec<String>> = workload
            .queries
            .iter()
            .map(|q| q.keywords.clone())
            .collect();
        // The live-ingestion phase re-serves the same fixture from a
        // preload + insert batches; plan it before the serve snapshot takes
        // ownership of the database.
        let ingest_plan = holdout_plan(
            &data.db,
            IngestConfig {
                seed: 11,
                holdout: profile.ingest_holdout,
                batches: profile.ingest_batches,
            },
        );
        let ingest_catalog = catalog.clone();
        // The earlier sections are done with their borrows; the snapshot
        // takes ownership of the served structures.
        let snapshot = Arc::new(SearchSnapshot::new(
            data.db,
            index,
            catalog,
            InterpreterConfig::default(),
        ));
        println!(
            "\n== serve ({} queries from the seeded IMDB log, {cores} cores) ==",
            queries.len()
        );
        for &w in SERVE_WORKERS {
            // Median of three cold replays per metric: tail percentiles
            // under oversubscription jitter far too much for a single
            // sample to be comparable across runs.
            let samples: Vec<ServeRun> = (0..3)
                .map(|_| replay_serve(&snapshot, &queries, w, 5))
                .collect();
            let med = |f: fn(&ServeRun) -> f64| -> f64 {
                let mut v: Vec<f64> = samples.iter().map(f).collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            };
            let run = ServeRun {
                workers: w,
                queries: samples[0].queries,
                qps: med(|r| r.qps),
                p50_ms: med(|r| r.p50_ms),
                p95_ms: med(|r| r.p95_ms),
                p99_ms: med(|r| r.p99_ms),
            };
            println!(
                "  {w} worker{s}: {:8.1} qps   p50 {:6.3} ms   p95 {:6.3} ms   p99 {:6.3} ms",
                run.qps,
                run.p50_ms,
                run.p95_ms,
                run.p99_ms,
                s = if w == 1 { " " } else { "s" },
            );
            serve_runs.push(run);
        }
        let qps1 = serve_runs[0].qps;
        let qps4 = serve_runs
            .iter()
            .find(|r| r.workers == 4)
            .map(|r| r.qps)
            .unwrap_or(qps1);
        let scaling = qps4 / qps1.max(1e-12);
        println!("  scaling    : {scaling:.2}x QPS at 4 workers vs 1");
        // The hard gate trips only on outright concurrency breakage (an
        // accidental global lock serializes the replay to ~1x); between
        // 1.3x and the 2x target it warns, because the sub-millisecond
        // closed-loop replay has never been tuned on multi-core CI
        // hardware and queue-pop overhead eats into ideal scaling.
        if cores >= 4 && scaling < 1.3 {
            // Defer the exit: the snapshot (and its per-worker QPS/latency
            // numbers — exactly what debugging this failure needs) must
            // still be written and uploadable as the CI artifact.
            serve_gate_failure = Some(format!(
                "{cores} cores available but 4-worker replay reached only \
                 {scaling:.2}x the 1-worker QPS — concurrency is broken \
                 (a healthy pool reaches ~2x; hard floor is 1.3x)"
            ));
        } else if cores >= 4 && scaling < 2.0 {
            println!(
                "  warning: scaling {scaling:.2}x is below the 2x target \
                 on {cores} cores (hard floor 1.3x)"
            );
        } else if cores < 4 {
            println!(
                "  note: only {cores} core(s) visible — parallel scaling cannot \
                 manifest here; QPS/latency recorded, scaling gate skipped"
            );
        }

        // == diversified: the same log replayed as Alg. 4.1 requests
        //    through the pipeline's diversified mode. Pool/selection sizes
        //    are deterministic (pure functions of data + log, warm or
        //    cold); QPS is the price of serving diversified lists. ==
        let div_samples: Vec<DivServeRun> = (0..3)
            .map(|_| replay_diversified(&snapshot, &queries, 1, DiversifyOptions::default()))
            .collect();
        for s in &div_samples[1..] {
            assert_eq!(
                (s.pool_items, s.selected),
                (div_samples[0].pool_items, div_samples[0].selected),
                "diversification counters must be replay-deterministic"
            );
        }
        let mut div_qps: Vec<f64> = div_samples.iter().map(|r| r.qps).collect();
        div_qps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let run = DivServeRun {
            queries: div_samples[0].queries,
            qps: div_qps[div_qps.len() / 2],
            pool_items: div_samples[0].pool_items,
            selected: div_samples[0].selected,
        };
        println!(
            "\n== diversified ({} queries, Alg. 4.1 top-10, pool 25) ==\n  \
             1 worker : {:8.1} qps   {} pool items, {} selected across the log",
            run.queries, run.qps, run.pool_items, run.selected
        );
        div_run = Some(run);

        // == ingest: live-write throughput + post-update serving rate over
        //    the epoch-swap path, driven by the seeded mixed read/write
        //    stream (single worker, sequential: deterministic counters). ==
        let mixed = MixedWorkload::interleave(ingest_plan, &queries, 13);
        let (mixed_queries, mixed_inserts) = mixed.counts();
        let run = keybridge_bench::replay_ingest(&mixed.initial, &mixed.ops, ingest_catalog, 5);
        println!(
            "\n== ingest ({} rows held out of the fixture, {} batches mixed into \
             {} queries) ==",
            run.rows, mixed_inserts, mixed_queries
        );
        println!(
            "  ingest     : {:8.0} rows/s ({} epoch swaps, {} stale cache entries retired)",
            run.rows_per_s, run.epoch_swaps, run.stale_evictions
        );
        println!(
            "  post-update: {:8.1} qps over the {}-query log (cold epoch-{} caches)",
            run.post_qps,
            queries.len(),
            run.epoch_swaps
        );
        if run.epoch_swaps != run.batches && serve_gate_failure.is_none() {
            serve_gate_failure = Some(format!(
                "ingest published {} epochs for {} batches — the swap path is broken",
                run.epoch_swaps, run.batches
            ));
        }
        ingest_run = Some(run);

        // == recovery: the durability path over the same insert schedule.
        //    WAL every batch, checkpoint once mid-stream, drop the service
        //    (the simulated crash), reopen and time the recovery. Counters
        //    (records appended, checkpoints, tail batches replayed) are
        //    deterministic; recovery_ms is wall-clock. ==
        let dir = std::env::temp_dir().join(format!("keybridge-smoke-{}", std::process::id()));
        let opts = DurableOptions {
            max_joins: 4,
            max_templates: 100_000,
            ..DurableOptions::default()
        };
        let run = keybridge_bench::replay_recovery(&mixed.initial, &mixed.ops, &opts, &dir);
        println!("\n== recovery (WAL every batch, one mid-stream checkpoint, kill, reopen) ==");
        println!(
            "  durability : {} WAL records ({} bytes framed), {} checkpoint",
            run.wal_batches, run.wal_bytes, run.checkpoints
        );
        println!(
            "  reopen     : {} batches replayed from the log tail in {:.2} ms",
            run.replayed_batches, run.recovery_ms
        );
        recovery_run = Some(run);

        // == open-loop sweep: the capacity knee under a fixed-rate mixed
        //    schedule. Unlike the closed-loop replays above, arrival
        //    instants are fixed before each rung and latency is charged
        //    from the *scheduled* arrival, so queueing behind a slow
        //    service counts (no coordinated omission). The ladder climbs
        //    1.25x per rung until p95 or the failure/timeout rate breaks
        //    the SLO; the knee is the last rate that held it. ==
        let sweep_plan = holdout_plan(
            &mixed.initial,
            IngestConfig {
                seed: 19,
                holdout: 0.05,
                batches: profile.sweep_batches,
            },
        );
        let ol_snapshot = Arc::new(SearchSnapshot::new(
            sweep_plan.initial.clone(),
            InvertedIndex::build(&sweep_plan.initial),
            snapshot.catalog.clone(),
            InterpreterConfig::default(),
        ));
        sweep_workers = cores.clamp(1, 8);
        let sweep_cfg = SweepConfig {
            seed: 23,
            n_ops: profile.sweep_ops,
            start_rps: profile.sweep_start_rps,
            growth: 1.25,
            max_rungs: 14,
            mix: MixWeights::default(),
            slo: SloConfig {
                p95_ms: 50.0,
                max_failure_rate: 0.02,
            },
            open: OpenLoopConfig {
                workers: sweep_workers,
                sync_clients: 2,
                timeout_ms: 500.0,
                ..Default::default()
            },
        };
        let outcome = sweep_capacity(&ol_snapshot, &queries, &sweep_plan.batches, &sweep_cfg);
        println!(
            "\n== open-loop sweep ({} ops/rung, {}/{}/{}/{} search/div/session/ingest, \
             SLO p95 <= {} ms, failures <= {:.0}%, {} workers) ==",
            profile.sweep_ops,
            outcome.counts.search,
            outcome.counts.diversified,
            outcome.counts.session,
            outcome.counts.ingest,
            sweep_cfg.slo.p95_ms,
            sweep_cfg.slo.max_failure_rate * 100.0,
            sweep_workers,
        );
        for r in &outcome.rungs {
            println!(
                "  {:8.1} rps offered: p50 {:7.3} ms  p95 {:7.3} ms  p99 {:7.3} ms  \
                 achieved {:7.1} rps  {} failed  {} timed out  [{}]",
                r.target_rps,
                r.run.p50_ms,
                r.run.p95_ms,
                r.run.p99_ms,
                r.run.achieved_rps,
                r.run.failures,
                r.run.timeouts,
                if r.passed { "ok" } else { "SLO broken" },
            );
        }
        if outcome.capacity_rps > 0.0 {
            println!(
                "  capacity   : {:.1} rps (p95 {:.3} ms at the knee)",
                outcome.capacity_rps, outcome.p95_at_capacity_ms
            );
        } else {
            println!(
                "  capacity   : below the first rung ({:.1} rps) — p95 {:.3} ms there",
                profile.sweep_start_rps, outcome.p95_at_capacity_ms
            );
        }
        if let Some(path) = &sweep_out_path {
            let curve = render_sweep_curve(&profile, cores, &sweep_cfg, &outcome);
            std::fs::write(path, curve).expect("write sweep curve");
            println!("  sweep curve written to {path}");
        }
        sweep_outcome = Some(outcome);

        // == sharded: the same mixed open-loop schedule against the K-shard
        //    scatter-gather router behind the identical ServeRequests seam.
        //    The shard directory is planned over the *full* pre-holdout
        //    corpus, so replayed ingest lands every held-out row exactly
        //    where a cold partitioning would, and the routing counters
        //    (per-shard epoch advances, distinct shards touched) are pure
        //    functions of fixture + plan + directory — gated strictly. ==
        let sh = sharded_holdout_plan(
            &mixed.initial,
            IngestConfig {
                seed: 19,
                holdout: 0.05,
                batches: profile.sweep_batches,
            },
            SHARDS,
        );
        let sharded = ShardedService::start_with_assignment(
            Arc::clone(&ol_snapshot),
            sh.assignment,
            sweep_workers,
        );
        let ops = openloop_schedule(
            23,
            profile.sweep_ops,
            profile.sweep_start_rps,
            MixWeights::default(),
            queries.len(),
            sh.plan.batches.len(),
        );
        let run = run_open_loop(&sharded, &queries, &sh.plan.batches, &ops, &sweep_cfg.open);
        // The schedule may not have drawn enough ingest slots for the whole
        // plan; drain the rest so the routing counters always cover it.
        for batch in &sh.plan.batches[run.counts.ingest..] {
            sharded.ingest(batch).expect("planned batch routes cleanly");
        }
        let stats = sharded.service_stats();
        println!(
            "\n== sharded ({SHARDS} shards, {} workers each, {} ops open-loop at {:.0} rps) ==",
            sweep_workers, profile.sweep_ops, profile.sweep_start_rps
        );
        println!(
            "  latency    : p50 {:7.3} ms  p95 {:7.3} ms  achieved {:7.1} rps  \
             {} failed  {} timed out",
            run.p50_ms, run.p95_ms, run.achieved_rps, run.failures, run.timeouts
        );
        println!(
            "  routing    : {} batches → {} shard epoch advances across {} of {SHARDS} \
             shards ({} global epochs, {} stale cache entries retired)",
            sh.plan.batches.len(),
            stats.shard_epoch_swaps,
            stats.shards_touched,
            stats.epoch,
            stats.stale_evictions,
        );
        println!(
            "  merge      : {} gathered rows left untouched by the bounded top-k merge",
            stats.shard_rows_skipped
        );
        // The bounded-merge mandate: over a whole open-loop phase some
        // query must produce more rows across the shards than the global
        // limit, so a coordinator that still drains every shard reads 0.
        if stats.shard_rows_skipped == 0 && serve_gate_failure.is_none() {
            serve_gate_failure = Some(
                "bounded scatter-gather merge never skipped a gathered row — \
                 the coordinator is draining every shard"
                    .into(),
            );
        }
        if stats.epoch != sh.plan.batches.len() as u64 && serve_gate_failure.is_none() {
            serve_gate_failure = Some(format!(
                "sharded service published {} epochs for {} batches — the \
                 per-shard swap path is broken",
                stats.epoch,
                sh.plan.batches.len()
            ));
        }
        sharded_run = Some((run, stats));
    }

    let gate_failure = serve_gate_failure.or(scale_gate_failure);
    match &gate_failure {
        None => println!("\nSMOKE OK"),
        Some(why) => eprintln!("\nSMOKE FAIL (exit deferred until snapshot written): {why}"),
    }

    let json = render_json(
        &profile,
        k,
        exhaustive_len,
        &stats,
        space2,
        &nv,
        &hj,
        astats.generated,
        astats.executed,
        answers.len(),
        &[
            ("exhaustive_partials_4kw_ms", t_exhaustive * 1e3),
            ("top10_partials_4kw_ms", t_topk * 1e3),
            ("exhaustive_complete_2kw_ms", t_rank2 * 1e3),
            ("top10_complete_2kw_ms", t_top2 * 1e3),
            ("exec_naive_top10_4kw_ms", t_exec_nv * 1e3),
            ("exec_hashjoin_top10_4kw_ms", t_exec_hj * 1e3),
            ("answers_top10_4kw_ms", t_answers * 1e3),
        ],
        cores,
        &serve_runs,
        div_run.as_ref(),
        ingest_run.as_ref(),
        recovery_run.as_ref(),
        sweep_outcome.as_ref(),
        sharded_run.as_ref(),
        sweep_workers,
        &scale_runs,
    );

    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write snapshot");
        println!("snapshot written to {path}");
    }

    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_regression(&baseline, &json, CheckConfig::default()) {
            Ok(violations) if violations.is_empty() => {
                println!("CHECK OK: no regression vs {path}");
            }
            Ok(violations) => {
                eprintln!("CHECK FAIL: {} regression(s) vs {path}:", violations.len());
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("CHECK FAIL: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(why) = gate_failure {
        eprintln!("SMOKE FAIL: {why}");
        std::process::exit(1);
    }
}

/// Render the flat-keyed snapshot `check_regression` consumes. Every metric
/// key is unique across the whole document (see
/// `keybridge_bench::parse_baseline`).
#[allow(clippy::too_many_arguments)]
fn render_json(
    profile: &Profile,
    k: usize,
    exhaustive_len: usize,
    gen: &keybridge_core::GenerationStats,
    space2: usize,
    nv: &ExecStats,
    hj: &ExecStats,
    answers_generated: usize,
    answers_executed: usize,
    answers_returned: usize,
    walls: &[(&str, f64)],
    cores: usize,
    serve_runs: &[ServeRun],
    div: Option<&DivServeRun>,
    ingest: Option<&IngestRun>,
    recovery: Option<&RecoveryRun>,
    sweep: Option<&SweepOutcome>,
    sharded: Option<&(OpenLoopRun, ServiceStats)>,
    sweep_workers: usize,
    scale_runs: &[ScaleRun],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"fixture\": \"{}\",\n", profile.fixture));
    s.push_str(&format!("  \"profile\": \"{}\",\n", profile.name));
    s.push_str("  \"query4\": \"hanks terminal actor movie\",\n");
    s.push_str(&format!("  \"k\": {k},\n"));
    s.push_str(&format!("  \"exhaustive_candidates\": {exhaustive_len},\n"));
    s.push_str(&format!(
        "  \"best_first_materialized\": {},\n",
        gen.materialized
    ));
    s.push_str(&format!("  \"best_first_expanded\": {},\n", gen.expanded));
    s.push_str(&format!("  \"best_first_pruned\": {},\n", gen.pruned));
    s.push_str(&format!(
        "  \"nonempty_probes\": {},\n",
        gen.nonempty_probes
    ));
    s.push_str(&format!(
        "  \"nonempty_cache_hits\": {},\n",
        gen.nonempty_cache_hits
    ));
    s.push_str(&format!("  \"complete_space_2kw\": {space2},\n"));
    s.push_str("  \"executor\": {\n");
    s.push_str(&format!(
        "    \"naive_intermediate_bindings\": {},\n",
        nv.intermediate_bindings
    ));
    s.push_str(&format!(
        "    \"hashjoin_intermediate_bindings\": {},\n",
        hj.intermediate_bindings
    ));
    s.push_str(&format!("    \"naive_probes\": {},\n", nv.probes));
    s.push_str(&format!("    \"hashjoin_probes\": {},\n", hj.probes));
    s.push_str(&format!("    \"hashjoin_batches\": {},\n", hj.batches));
    s.push_str(&format!(
        "    \"semijoin_rows_in\": {},\n",
        hj.semijoin_rows_in
    ));
    s.push_str(&format!(
        "    \"semijoin_rows_out\": {},\n",
        hj.semijoin_rows_out
    ));
    // Informational: the reducer's work, not in the gated counter set.
    s.push_str(&format!(
        "    \"reduce_rows_touched\": {},\n",
        hj.reduce_rows_touched
    ));
    s.push_str(&format!("    \"batch_cols\": {},\n", hj.batch_cols));
    s.push_str(&format!("    \"batch_allocs\": {},\n", hj.batch_allocs));
    s.push_str(&format!(
        "    \"arena_bytes_peak\": {},\n",
        hj.arena_bytes_peak
    ));
    s.push_str(&format!(
        "    \"answers_generated\": {answers_generated},\n"
    ));
    s.push_str(&format!("    \"answers_executed\": {answers_executed},\n"));
    s.push_str(&format!("    \"answers_returned\": {answers_returned}\n"));
    s.push_str("  },\n");
    s.push_str("  \"wall_clock_ms\": {\n");
    for (i, (key, ms)) in walls.iter().enumerate() {
        let comma = if i + 1 < walls.len() { "," } else { "" };
        s.push_str(&format!("    \"{key}\": {ms:.3}{comma}\n"));
    }
    s.push_str("  }");
    if !serve_runs.is_empty() {
        s.push_str(",\n  \"serve\": {\n");
        s.push_str(&format!("    \"serve_cores\": {cores},\n"));
        s.push_str(&format!(
            "    \"serve_queries\": {},\n",
            serve_runs[0].queries
        ));
        for r in serve_runs {
            let w = r.workers;
            s.push_str(&format!("    \"qps_w{w}\": {:.1},\n", r.qps));
            s.push_str(&format!("    \"p50_ms_w{w}\": {:.3},\n", r.p50_ms));
            s.push_str(&format!("    \"p95_ms_w{w}\": {:.3},\n", r.p95_ms));
            s.push_str(&format!("    \"p99_ms_w{w}\": {:.3},\n", r.p99_ms));
        }
        let qps1 = serve_runs[0].qps.max(1e-12);
        let qps4 = serve_runs
            .iter()
            .find(|r| r.workers == 4)
            .map(|r| r.qps)
            .unwrap_or(qps1);
        s.push_str(&format!("    \"serve_scaling_w4\": {:.3}", qps4 / qps1));
        if let Some(run) = div {
            s.push_str(",\n");
            s.push_str(&format!("    \"qps_diversified\": {:.1},\n", run.qps));
            s.push_str(&format!("    \"div_pool_items\": {},\n", run.pool_items));
            s.push_str(&format!("    \"div_selected\": {}", run.selected));
        }
        if let Some(run) = ingest {
            s.push_str(",\n");
            s.push_str(&format!("    \"ingest_rows\": {},\n", run.rows));
            s.push_str(&format!("    \"ingest_batches\": {},\n", run.batches));
            s.push_str(&format!("    \"epoch_swaps\": {},\n", run.epoch_swaps));
            s.push_str(&format!(
                "    \"stale_evictions\": {},\n",
                run.stale_evictions
            ));
            s.push_str(&format!(
                "    \"ingest_rows_per_s\": {:.1},\n",
                run.rows_per_s
            ));
            s.push_str(&format!("    \"qps_post_ingest\": {:.1}", run.post_qps));
        }
        if let Some(run) = recovery {
            s.push_str(",\n");
            s.push_str(&format!("    \"wal_batches\": {},\n", run.wal_batches));
            s.push_str(&format!("    \"wal_bytes\": {},\n", run.wal_bytes));
            s.push_str(&format!(
                "    \"recovery_checkpoints\": {},\n",
                run.checkpoints
            ));
            s.push_str(&format!(
                "    \"recovery_replayed_batches\": {},\n",
                run.replayed_batches
            ));
            s.push_str(&format!("    \"recovery_ms\": {:.3}", run.recovery_ms));
        }
        if let Some(o) = sweep {
            s.push_str(",\n");
            s.push_str(&format!("    \"openloop_workers\": {sweep_workers},\n"));
            s.push_str(&format!(
                "    \"openloop_search_ops\": {},\n",
                o.counts.search
            ));
            s.push_str(&format!(
                "    \"openloop_diversified_ops\": {},\n",
                o.counts.diversified
            ));
            s.push_str(&format!(
                "    \"openloop_session_ops\": {},\n",
                o.counts.session
            ));
            s.push_str(&format!(
                "    \"openloop_ingest_ops\": {},\n",
                o.counts.ingest
            ));
            s.push_str(&format!("    \"capacity_rps\": {:.1},\n", o.capacity_rps));
            s.push_str(&format!(
                "    \"p95_at_capacity_ms\": {:.3}",
                o.p95_at_capacity_ms
            ));
        }
        if let Some((run, stats)) = sharded {
            s.push_str(",\n");
            s.push_str(&format!("    \"sharded_shards\": {SHARDS},\n"));
            s.push_str(&format!(
                "    \"shard_epoch_swaps\": {},\n",
                stats.shard_epoch_swaps
            ));
            s.push_str(&format!(
                "    \"shards_touched\": {},\n",
                stats.shards_touched
            ));
            s.push_str(&format!(
                "    \"shard_rows_skipped\": {},\n",
                stats.shard_rows_skipped
            ));
            s.push_str(&format!("    \"p95_sharded_ms\": {:.3}", run.p95_ms));
        }
        s.push('\n');
        s.push_str("  }");
    }
    if !scale_runs.is_empty() {
        s.push_str(",\n  \"scale\": {\n");
        s.push_str(&format!("    \"scale_cores\": {cores},\n"));
        for (i, r) in scale_runs.iter().enumerate() {
            let n = r.scale;
            let comma = if i + 1 < scale_runs.len() { "," } else { "" };
            s.push_str(&format!("    \"scale{n}_rows\": {},\n", r.rows));
            s.push_str(&format!("    \"scale{n}_build_ms\": {:.3},\n", r.build_ms));
            s.push_str(&format!(
                "    \"scale{n}_store_bytes\": {},\n",
                r.store_bytes
            ));
            s.push_str(&format!(
                "    \"scale{n}_store_bytes_naive\": {},\n",
                r.store_bytes_naive
            ));
            s.push_str(&format!(
                "    \"scale{n}_index_bytes\": {},\n",
                r.index_bytes
            ));
            s.push_str(&format!(
                "    \"scale{n}_index_bytes_naive\": {},\n",
                r.index_bytes_naive
            ));
            s.push_str(&format!("    \"scale{n}_heap_bytes\": {},\n", r.heap_bytes));
            s.push_str(&format!(
                "    \"scale{n}_heap_bytes_naive\": {},\n",
                r.heap_bytes_naive
            ));
            s.push_str(&format!(
                "    \"scale{n}_bytes_per_row\": {:.2},\n",
                r.bytes_per_row()
            ));
            s.push_str(&format!(
                "    \"scale{n}_bytes_per_row_naive\": {:.2},\n",
                r.bytes_per_row_naive()
            ));
            if let Some(rss) = r.rss_bytes {
                s.push_str(&format!("    \"scale{n}_rss_bytes\": {rss},\n"));
            }
            s.push_str(&format!("    \"qps_scale{n}\": {:.1}{comma}\n", r.qps));
        }
        s.push_str("  }");
    }
    s.push_str("\n}\n");
    s
}

/// Render the per-rung sweep curve as its own JSON document (the CI
/// artifact behind a knee-gate failure). This file is diagnostic only —
/// `check_regression` never reads it — so it carries the full ladder
/// rather than one flat-keyed scalar per metric.
fn render_sweep_curve(
    profile: &Profile,
    cores: usize,
    cfg: &SweepConfig,
    outcome: &SweepOutcome,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"profile\": \"{}\",\n", profile.name));
    s.push_str(&format!("  \"serve_cores\": {cores},\n"));
    s.push_str(&format!("  \"slo_p95_ms\": {:.1},\n", cfg.slo.p95_ms));
    s.push_str(&format!(
        "  \"slo_max_failure_rate\": {:.3},\n",
        cfg.slo.max_failure_rate
    ));
    s.push_str(&format!(
        "  \"capacity_rps\": {:.1},\n",
        outcome.capacity_rps
    ));
    s.push_str("  \"rungs\": [\n");
    for (i, r) in outcome.rungs.iter().enumerate() {
        let comma = if i + 1 < outcome.rungs.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"target_rps\": {:.1}, \"achieved_rps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"completed\": {}, \"failures\": {}, \
             \"timeouts\": {}, \"passed\": {} }}{comma}\n",
            r.target_rps,
            r.run.achieved_rps,
            r.run.p50_ms,
            r.run.p95_ms,
            r.run.p99_ms,
            r.run.max_ms,
            r.run.completed,
            r.run.failures,
            r.run.timeouts,
            r.passed,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
