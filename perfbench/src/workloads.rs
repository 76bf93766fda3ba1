//! The four workloads. Each builds its fixture and service, draws its
//! operations from the seed, drives them through the public serving API,
//! checks every reply against a cold oracle, and fills a [`Report`].

use crate::load::{
    self, closed_loop, open_loop, ops_for, shuffle, Done, LoadRun, Mode, Op, Outcome, K,
};
use crate::report::Report;
use crate::trace::{self, ColdSearch, View, WarmSearch, WarmTier};
use crate::util::{
    fp_window, mean, median, peak_rss_mb, percentile, process_cpu_s, sorted, SplitMix,
};
use keybridge_core::{
    DurableOptions, InterpreterConfig, KeywordQuery, SearchService, SearchSnapshot, ServeRequests,
    SessionConfig, ShardedService, TemplateCatalog,
};
use keybridge_datagen::{
    holdout_plan, ImdbConfig, ImdbDataset, IngestConfig, Workload, WorkloadConfig,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{assign_shards, split_database, Database, RowBatch, RowId, TableId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Serving workers per pool: one per core of the two-core machine the
/// workloads are sized for.
pub const WORKERS: usize = 2;
/// Catalog bounds, shared by every start and reopen.
const MAX_JOINS: usize = 4;
const MAX_TEMPLATES: usize = 100_000;
/// Search p99 limit of the knee search.
const KNEE_P99_MS: f64 = 25.0;
/// The open-loop generator fell behind when its median issue lag exceeds
/// `LAG_P50_LIMIT_MS`, or when more than `LATE_SHARE_LIMIT` of operations
/// went out `LATE_MS` or more after their due instant. Single stalls (the
/// writer's O(database) publish stalls this whole process now and then)
/// are charged to the latencies, which run from the due instant.
const LAG_P50_LIMIT_MS: f64 = 1.0;
const LATE_MS: f64 = 10.0;
const LATE_SHARE_LIMIT: f64 = 0.1;

/// Why the generator fell behind, if it did.
fn behind(lag_ms: &[f64]) -> Option<String> {
    let lag = sorted(lag_ms.to_vec());
    let p50 = median(&lag);
    let late = lag.iter().filter(|l| **l >= LATE_MS).count() as f64 / lag.len().max(1) as f64;
    if p50 > LAG_P50_LIMIT_MS {
        Some(format!(
            "generator fell behind: median issue lag {p50:.3} ms"
        ))
    } else if late > LATE_SHARE_LIMIT {
        Some(format!(
            "generator fell behind: {:.1}% of operations issued {LATE_MS} ms late or more",
            late * 100.0
        ))
    } else {
        None
    }
}

/// The x1 quick IMDB fixture (3,072 rows); `scale` multiplies row counts.
fn imdb(scale: f64) -> ImdbConfig {
    ImdbConfig {
        seed: 1,
        actors: 400,
        directors: 100,
        movies: 500,
        companies: 50,
        avg_cast: 3,
        scale,
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub knee: bool,
    /// Scratch directory for durable stores (inside the checkout).
    pub state_dir: PathBuf,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `f` and the CPU seconds this process's threads spent while it ran.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - c)
}

fn log_queries(data: &ImdbDataset, seed: u64, n: usize) -> Vec<KeywordQuery> {
    Workload::imdb(
        data,
        WorkloadConfig {
            seed,
            n_queries: n,
            mc_fraction: 0.5,
        },
    )
    .queries
    .into_iter()
    .filter(|q| !q.keywords.is_empty())
    .map(|q| KeywordQuery::from_terms(q.keywords))
    .collect()
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

/// CPU seconds spent in each set-up layer, up to the first served request
/// (process CPU time: time the hypervisor stole from the virtual CPUs,
/// which swings wall-clock set-up by a third from run to run, is left
/// out). `wall` is the same span on the wall clock.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    fixture: f64,
    index: f64,
    catalog: f64,
    start: f64,
    first: f64,
    wall: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.fixture + self.index + self.catalog + self.start + self.first
    }
}

/// Fixture, index and catalog of one IMDB scale (`holdout` splits a
/// preload plus insert batches off it, inside the fixture time).
struct Built {
    snapshot: Arc<SearchSnapshot>,
    batches: Vec<RowBatch>,
    queries: Vec<KeywordQuery>,
}

fn build(
    scale: f64,
    log: Option<(u64, usize)>,
    holdout: Option<IngestConfig>,
    st: &mut Setup,
) -> Built {
    let wall = Instant::now();
    let (data, fixture_s) = cpu_timed(|| ImdbDataset::generate(imdb(scale)).expect("fixture"));
    let (queries, log_s) =
        timed(|| log.map_or_else(Vec::new, |(seed, n)| log_queries(&data, seed, n)));
    let ((db, batches), split_s) = cpu_timed(|| match holdout {
        Some(cfg) => {
            let plan = holdout_plan(&data.db, cfg);
            (plan.initial, plan.batches)
        }
        None => (data.db, Vec::new()),
    });
    let (index, index_s) = cpu_timed(|| InvertedIndex::build(&db));
    let (catalog, catalog_s) =
        cpu_timed(|| TemplateCatalog::enumerate(&db, MAX_JOINS, MAX_TEMPLATES).expect("catalog"));
    st.wall = wall.elapsed().as_secs_f64() - log_s;
    st.fixture = fixture_s + split_s;
    st.index = index_s;
    st.catalog = catalog_s;
    Built {
        snapshot: Arc::new(SearchSnapshot::new(
            db,
            index,
            catalog,
            InterpreterConfig::default(),
        )),
        batches,
        queries,
    }
}

/// Serve the first request (the end of set-up): its CPU and wall seconds.
fn first_request(svc: &dyn ServeRequests, q: &KeywordQuery) -> (f64, f64) {
    let t = Instant::now();
    let cpu = cpu_timed(|| svc.submit(q.clone(), K).wait()).1;
    (cpu, t.elapsed().as_secs_f64())
}

/// Start a service, then serve the first request: fills `st.start`,
/// `st.first` and adds both to `st.wall`.
fn start_and_probe<S: ServeRequests>(
    st: &mut Setup,
    start: impl FnOnce() -> S,
    q: &KeywordQuery,
) -> S {
    let t = Instant::now();
    let (svc, start_s) = cpu_timed(start);
    st.start = start_s;
    st.wall += t.elapsed().as_secs_f64();
    let (cpu, wall) = first_request(&svc, q);
    st.first = cpu;
    st.wall += wall;
    svc
}

fn report_setup(r: &mut Report, setups: &[Setup], start_name: &str) {
    let med = |f: fn(&Setup) -> f64| median(&sorted(setups.iter().map(f).collect()));
    let n = Some(setups.len());
    r.put("setup_s", med(Setup::total), "s", n);
    r.put("datagen.fixture_s", med(|s| s.fixture), "s", n);
    r.put("textindex.build_s", med(|s| s.index), "s", n);
    r.put("core.catalog_s", med(|s| s.catalog), "s", n);
    r.put(start_name, med(|s| s.start), "s", n);
    r.put("setup_wall_s", med(|s| s.wall), "s", n);
}

// ---------------------------------------------------------------------------
// Oracle and trace bookkeeping.
// ---------------------------------------------------------------------------

/// Cold oracle results keyed by `(epoch, query)`, plus the traced warm
/// replay keyed by the run's `done` index.
#[derive(Default)]
struct Traces {
    /// Whether searches are decomposed into replayed spans.
    traced: bool,
    search: HashMap<(u64, usize), ColdSearch>,
    diversified: HashMap<(u64, usize), (u64, f64, usize)>,
    session: HashMap<(u64, usize), u64>,
    warm: HashMap<usize, WarmSearch>,
}

enum Cold {
    Search(Box<ColdSearch>),
    Diversified((u64, f64, usize)),
    Session(u64),
}

/// `f` over `items` on two threads (one per core), order kept.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| items.iter().skip(1).step_by(2).map(&f).collect::<Vec<R>>());
        let even: Vec<R> = items.iter().step_by(2).map(&f).collect();
        (even, odd.join().expect("oracle thread"))
    });
    let mut out = Vec::with_capacity(items.len());
    let mut odd = odd.into_iter();
    for e in even {
        out.push(e);
        out.extend(odd.next());
    }
    out
}

fn reply_epoch(o: &Outcome) -> Option<u64> {
    match o {
        Outcome::Answers { epoch, .. }
        | Outcome::Diversified { epoch, .. }
        | Outcome::Session { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

/// Check the replies in `members` (all served at `epoch`) against cold
/// oracles over `view`, computing each distinct oracle once.
fn verify(
    r: &mut Report,
    view: View<'_>,
    epoch: u64,
    done: &[Done],
    members: &[usize],
    queries: &[KeywordQuery],
    tr: &mut Traces,
) {
    let traced = tr.traced;
    let mut keys: Vec<(Mode, usize)> = members
        .iter()
        .map(|&i| (done[i].mode, done[i].arg))
        .filter(|&(m, q)| match m {
            Mode::Search => !tr.search.contains_key(&(epoch, q)),
            Mode::Diversified => !tr.diversified.contains_key(&(epoch, q)),
            Mode::Session => !tr.session.contains_key(&(epoch, q)),
            Mode::Ingest => false,
        })
        .collect();
    keys.sort_by_key(|&(m, q)| (m as u8, q));
    keys.dedup();
    let cold = par_map(&keys, |&(m, q)| match m {
        Mode::Search => Cold::Search(Box::new(trace::cold_search(view, &queries[q], traced))),
        Mode::Diversified => Cold::Diversified(trace::cold_diversified(view, &queries[q])),
        _ => Cold::Session(trace::cold_session(view, &queries[q])),
    });
    for (&(_, q), c) in keys.iter().zip(cold) {
        match c {
            Cold::Search(c) => {
                if let Some(rep) = &c.replay {
                    if rep.fp != c.fp {
                        r.fail(format!(
                            "traced replay of query {q} diverged from the pipeline"
                        ));
                    }
                }
                tr.search.insert((epoch, q), *c);
            }
            Cold::Diversified(c) => {
                tr.diversified.insert((epoch, q), c);
            }
            Cold::Session(c) => {
                tr.session.insert((epoch, q), c);
            }
        }
    }
    for &i in members {
        let d = &done[i];
        let want = match d.outcome {
            Outcome::Answers { fp, .. } => (fp, tr.search[&(epoch, d.arg)].fp),
            Outcome::Diversified { fp, .. } => (fp, tr.diversified[&(epoch, d.arg)].0),
            Outcome::Session { fp, .. } => (fp, tr.session[&(epoch, d.arg)]),
            _ => continue,
        };
        if want.0 != want.1 {
            r.fail(format!(
                "{:?} reply for query {} at epoch {epoch} differs from the cold oracle",
                d.mode, d.arg
            ));
        }
    }
}

/// Count every operation, fail the ones that failed, and group the rest
/// by the epoch their reply reports.
fn by_epoch(r: &mut Report, run: &LoadRun) -> Vec<(u64, Vec<usize>)> {
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    r.attempted += run.done.len();
    for (i, d) in run.done.iter().enumerate() {
        if let Outcome::Failed(why) = &d.outcome {
            r.fail(format!("{:?} op {} failed: {why}", d.mode, d.op));
        }
        if let Some(e) = reply_epoch(&d.outcome) {
            groups.entry(e).or_default().push(i);
        }
    }
    let mut groups: Vec<(u64, Vec<usize>)> = groups.into_iter().collect();
    groups.sort_by_key(|g| g.0);
    groups
}

/// Replay `members` in op order through a warm bench-owned cache tier —
/// the service's work for each op, without its queue.
fn warm_pass(
    view: View<'_>,
    tier: &WarmTier,
    done: &[Done],
    members: &[usize],
    queries: &[KeywordQuery],
    tr: &mut Traces,
) {
    for &i in members {
        let q = &queries[done[i].arg];
        match done[i].mode {
            Mode::Search => {
                tr.warm.insert(i, tier.search(view, q));
            }
            Mode::Diversified => tier.diversified(view, q),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics shared by every workload.
// ---------------------------------------------------------------------------

/// `<stem>_p50_ms` and the highest of `<stem>_p99_ms` / `_p95_ms` /
/// `_p90_ms` that has ten samples beyond it, over ascending `lat`.
fn put_latency(r: &mut Report, stem: &str, lat: &[f64]) {
    let n = Some(lat.len());
    if let Some(p) = percentile(lat, 0.5) {
        r.put(&format!("{stem}_p50_ms"), p, "ms", n);
    }
    if let Some((q, p)) = [(99, 0.99), (95, 0.95), (90, 0.9)]
        .into_iter()
        .find_map(|(q, f)| percentile(lat, f).map(|p| (q, p)))
    {
        r.put(&format!("{stem}_p{q}_ms"), p, "ms", n);
    }
}

/// End-to-end read metrics, CPU per operation, and the generator's lag.
/// Called right after the load phase, so `peak_rss_mb` covers set-up and
/// serving but not the oracles and replays that follow.
fn report_reads(r: &mut Report, run: &LoadRun, open: bool) {
    r.put("peak_rss_mb", peak_rss_mb(), "MiB", None);
    put_latency(r, "search", &run.latencies(Mode::Search));
    put_latency(
        r,
        "op",
        &sorted(run.done.iter().map(|d| d.latency_ms).collect()),
    );
    r.put(
        "cpu_ms_per_op",
        run.cpu_ms_per_op(),
        "ms",
        Some(run.cpu_ops()),
    );
    let reads = run.done.iter().filter(|d| d.mode != Mode::Ingest).count();
    r.put("qps", run.read_rate(), "1/s", Some(reads));
    let lag = sorted(run.lag_ms.clone());
    let lag99 = percentile(&lag, 0.99).unwrap_or(lag.last().copied().unwrap_or(0.0));
    r.put("core.service.gen_lag_ms", lag99, "ms", Some(lag.len()));
    if open {
        r.invalid.extend(behind(&run.lag_ms));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced run, aggregated over the run's search
/// operations (per-op means; shares as ratios of sums). The child spans
/// replay a search's final generation wave only, so the self time and the
/// reduce share are taken over the single-wave searches, whose root span
/// covers the same work; `core.pipeline.answers.multiwave_share` says how
/// many searches that leaves out.
fn report_layers(r: &mut Report, run: &LoadRun, tr: &Traces) {
    #[derive(Default)]
    struct Sum {
        n: f64,
        pipeline: f64,
        waves: f64,
        executed: f64,
        nonempty: f64,
        generate: f64,
        materialized: f64,
        expanded: f64,
        ne_probes: f64,
        probe_us: f64,
        probes_timed: f64,
        predicate: f64,
        predicate_rows: f64,
        reduce: f64,
        rows_given: f64,
        rows_out: f64,
        join: f64,
        probes: f64,
        bindings: f64,
        allocs: f64,
        multiwave: f64,
        one_n: f64,
        one_pipeline: f64,
        one_reduce: f64,
        one_self: f64,
        ne_hits: f64,
        ne_lookups: f64,
        pred_hits: f64,
        pred_lookups: f64,
        res_hits: f64,
        res_lookups: f64,
    }
    let mut s = Sum::default();
    let mut wait = Vec::new();
    for (i, d) in run.done.iter().enumerate() {
        let Outcome::Answers { epoch, .. } = d.outcome else {
            continue;
        };
        // A reply the oracle walk never reached (it stopped on a rejected
        // batch) is already a failure; it has no spans.
        let Some(c) = tr.search.get(&(epoch, d.arg)) else {
            continue;
        };
        let Some(rep) = &c.replay else { continue };
        s.n += 1.0;
        s.pipeline += c.pipeline_ms;
        s.waves += c.stats.waves as f64;
        s.executed += c.stats.executed as f64;
        s.nonempty += c.stats.nonempty as f64;
        s.generate += rep.generate_ms;
        s.materialized += rep.materialized as f64;
        s.expanded += rep.expanded as f64;
        s.ne_probes += rep.nonempty_probes as f64;
        s.probe_us += rep.probe_us;
        s.probes_timed += rep.probes_timed as f64;
        s.predicate += rep.predicate_ms;
        s.predicate_rows += rep.predicate_rows as f64;
        s.reduce += rep.reduce_ms;
        s.rows_given += rep.rows_given as f64;
        s.rows_out += rep.rows_out as f64;
        s.join += rep.join_ms;
        s.probes += rep.probes as f64;
        s.bindings += rep.bindings as f64;
        s.allocs += rep.batch_allocs as f64;
        if c.stats.waves > 1 {
            s.multiwave += 1.0;
        } else {
            s.one_n += 1.0;
            s.one_pipeline += c.pipeline_ms;
            s.one_reduce += rep.reduce_ms;
            s.one_self += c.pipeline_ms - rep.children_ms();
        }
        if let Some(w) = tr.warm.get(&i) {
            let g = &w.stats.gen;
            let hits = (g.nonempty_cache_hits + g.nonempty_shared_hits) as f64;
            s.ne_hits += hits;
            s.ne_lookups += hits + g.nonempty_probes as f64;
            s.pred_hits += w.stats.predicate_cache_hits as f64;
            s.pred_lookups += w.predicate_lookups as f64;
            let res = w.stats.result_cache_hits as f64;
            s.res_hits += res;
            s.res_lookups += res + (w.stats.executed + w.stats.exec_errors) as f64;
            wait.push(d.latency_ms - w.ms);
        }
    }
    let n = s.n.max(1.0);
    let ops = Some(s.n as usize);
    let per = |v: f64| v / n;
    r.put("core.pipeline.answers.ms", per(s.pipeline), "ms", ops);
    let one = Some(s.one_n as usize);
    r.put(
        "core.pipeline.answers.self_ms",
        s.one_self / s.one_n.max(1.0),
        "ms",
        one,
    );
    r.put("core.pipeline.answers.waves", per(s.waves), "count", ops);
    r.put(
        "core.pipeline.answers.multiwave_share",
        per(s.multiwave),
        "ratio",
        ops,
    );
    r.put(
        "core.pipeline.answers.nonempty_per_executed",
        ratio(s.nonempty, s.executed),
        "ratio",
        ops,
    );
    r.put("core.generate.ms", per(s.generate), "ms", ops);
    r.put(
        "core.generate.materialized",
        per(s.materialized),
        "count",
        ops,
    );
    r.put("core.generate.expanded", per(s.expanded), "count", ops);
    r.put(
        "core.generate.nonempty_probes",
        per(s.ne_probes),
        "count",
        ops,
    );
    r.put(
        "core.generate.nonempty_hit_ratio",
        ratio(s.ne_hits, s.ne_lookups),
        "ratio",
        ops,
    );
    r.put(
        "textindex.probe.us",
        ratio(s.probe_us, s.probes_timed),
        "us",
        Some(s.probes_timed as usize),
    );
    r.put("textindex.predicate.ms", per(s.predicate), "ms", ops);
    r.put(
        "textindex.predicate.rows",
        per(s.predicate_rows),
        "count",
        ops,
    );
    r.put("relstore.reduce.ms", per(s.reduce), "ms", ops);
    r.put(
        "relstore.reduce.rows_given",
        per(s.rows_given),
        "count",
        ops,
    );
    r.put("relstore.reduce.rows_out", per(s.rows_out), "count", ops);
    r.put(
        "relstore.reduce.share_of_answers",
        ratio(s.one_reduce, s.one_pipeline),
        "ratio",
        one,
    );
    r.put("relstore.join.ms", per(s.join), "ms", ops);
    r.put("relstore.join.probes", per(s.probes), "count", ops);
    r.put("relstore.join.bindings", per(s.bindings), "count", ops);
    r.put("relstore.join.batch_allocs", per(s.allocs), "count", ops);
    r.put(
        "core.exec.predicate_hit_ratio",
        ratio(s.pred_hits, s.pred_lookups),
        "ratio",
        ops,
    );
    r.put(
        "core.exec.result_hit_ratio",
        ratio(s.res_hits, s.res_lookups),
        "ratio",
        ops,
    );
    let wait = sorted(wait);
    r.put(
        "core.service.wait_ms",
        median(&wait),
        "ms",
        Some(wait.len()),
    );
}

/// `perfbench.check_cpu_ms_per_op`: process CPU per operation spent after
/// the load window since `cpu0` — checking replies against the oracles
/// and, in a traced run, replaying and timing the spans. The load window
/// itself runs no tracing code, so what tracing costs is this figure of a
/// traced run minus that of an untraced one.
fn put_check_cpu(r: &mut Report, cpu0: f64, ops: usize) {
    r.put(
        "perfbench.check_cpu_ms_per_op",
        (process_cpu_s() - cpu0) * 1e3 / ops.max(1) as f64,
        "ms",
        Some(ops),
    );
}

// ---------------------------------------------------------------------------
// hot-x1
// ---------------------------------------------------------------------------

const HOT_MIX: [(Mode, u32); 3] = [
    (Mode::Search, 90),
    (Mode::Diversified, 5),
    (Mode::Session, 5),
];
/// Fixed offered rate of hot-x1: about 40% of its knee, measured with
/// `--knee 1` at 4.4–4.75k rps (median of three searches 4.64k) on two
/// cores.
const HOT_RPS: f64 = 1800.0;
const HOT_SETUPS: usize = 25;
/// Seconds per knee-search rung.
const KNEE_RUNG_S: f64 = 2.0;

fn session_outcome(svc: &SearchService, q: &KeywordQuery) -> Outcome {
    let view = svc.open_session(q, trace::SESSION_WINDOW, SessionConfig::default());
    let answers = svc.session_answers(view.id, trace::SESSION_LIMIT);
    svc.close_session(view.id);
    match answers {
        Some(a) => Outcome::Session {
            epoch: a.epoch.0,
            fp: fp_window(&a.answers),
        },
        None => Outcome::Failed("session vanished".into()),
    }
}

/// One knee-search rung: passed, search p99, achieved and offered read rates.
struct Rung {
    rate: f64,
    p99: Option<f64>,
    achieved: f64,
    passed: bool,
}

fn hot_rung(
    svc: &SearchService,
    queries: &[KeywordQuery],
    seed: u64,
    rate: f64,
    runs: &mut Vec<LoadRun>,
) -> Rung {
    let ops = ops_for(seed, rate, KNEE_RUNG_S, &HOT_MIX, queries.len());
    let sync = |op: &Op| session_outcome(svc, &queries[op.arg]);
    let run = open_loop(svc, queries, &ops, rate, KNEE_RUNG_S, &sync);
    let p99 = percentile(&run.latencies(Mode::Search), 0.99);
    let offered = ops.iter().filter(|o| o.mode != Mode::Ingest).count() as f64 / KNEE_RUNG_S;
    let achieved = run.read_rate();
    let passed = p99.is_some_and(|p| p <= KNEE_P99_MS)
        && achieved >= 0.97 * offered
        && behind(&run.lag_ms).is_none()
        && run.failed() == 0;
    runs.push(run);
    Rung {
        rate,
        p99,
        achieved,
        passed,
    }
}

/// Bracket a failing rate above a passing one, then bisect until the gap
/// is under 4%. Censored (`None`) unless one rung passed and one failed.
fn knee_search(
    svc: &SearchService,
    queries: &[KeywordQuery],
    seed: u64,
    runs: &mut Vec<LoadRun>,
) -> (Option<f64>, Vec<Rung>) {
    const MAX_RPS: f64 = 20_000.0;
    const MIN_RPS: f64 = 50.0;
    let mut rungs = Vec::new();
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut rate = HOT_RPS;
    while lo.is_none() || hi.is_none() {
        if !(MIN_RPS..=MAX_RPS).contains(&rate) {
            return (None, rungs);
        }
        let rung = hot_rung(svc, queries, seed, rate, runs);
        if rung.passed {
            lo = Some(rate);
            rate *= 1.5;
        } else {
            hi = Some(rate);
            rate /= 1.5;
        }
        rungs.push(rung);
    }
    let (mut lo, mut hi) = (lo.expect("bracketed"), hi.expect("bracketed"));
    while (hi - lo) / lo > 0.04 {
        let mid = (lo + hi) / 2.0;
        let rung = hot_rung(svc, queries, seed, mid, runs);
        if rung.passed {
            lo = mid;
        } else {
            hi = mid;
        }
        rungs.push(rung);
    }
    (Some(lo), rungs)
}

pub fn hot_x1(o: &Opts) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..HOT_SETUPS {
        drop(kept.take());
        let mut st = Setup::default();
        let b = build(1.0, Some((7, 108)), None, &mut st);
        let svc = start_and_probe(
            &mut st,
            || SearchService::start(Arc::clone(&b.snapshot), WORKERS),
            &b.queries[0],
        );
        setups.push(st);
        kept = Some((b, svc));
    }
    let (b, svc) = kept.expect("at least one set-up");
    report_setup(&mut r, &setups, "core.service.start_s");
    let queries = &b.queries;

    // Warm-up: every query once in each read mode, then a short burst.
    for q in queries {
        let _ = svc.submit(q.clone(), K).wait();
        let _ = svc.submit_diversified(q.clone(), Default::default()).wait();
    }
    let sync = |op: &Op| session_outcome(&svc, &queries[op.arg]);
    let warm_ops = ops_for(o.seed ^ 0x5eed, HOT_RPS, 1.0, &HOT_MIX, queries.len());
    let _ = open_loop(&svc, queries, &warm_ops, HOT_RPS, 1.0, &sync);

    let ops = ops_for(o.seed, HOT_RPS, o.seconds, &HOT_MIX, queries.len());
    let run = open_loop(&svc, queries, &ops, HOT_RPS, o.seconds, &sync);
    report_reads(&mut r, &run, true);
    put_latency(&mut r, "diversified", &run.latencies(Mode::Diversified));
    put_latency(&mut r, "session", &run.latencies(Mode::Session));

    let mut knee_runs = Vec::new();
    if o.knee {
        let (knee, rungs) = knee_search(&svc, queries, o.seed, &mut knee_runs);
        for g in &rungs {
            println!(
                "  knee rung {:8.1} rps: search p99 {} ms, achieved {:.1} reads/s [{}]",
                g.rate,
                g.p99.map_or("n/a".into(), |p| format!("{p:.3}")),
                g.achieved,
                if g.passed { "pass" } else { "fail" }
            );
        }
        match knee {
            Some(k) => r.put("knee_rps", k, "1/s", Some(rungs.len())),
            None => println!("  knee_rps censored: no bracketing pass/fail pair among the rungs"),
        }
    }

    let view = View {
        db: &b.snapshot.db,
        index: &b.snapshot.index,
        catalog: &b.snapshot.catalog,
    };
    let mut tr = Traces {
        traced: o.traced,
        ..Traces::default()
    };
    let check0 = process_cpu_s();
    for (epoch, members) in by_epoch(&mut r, &run) {
        verify(&mut r, view, epoch, &run.done, &members, queries, &mut tr);
    }
    if o.traced {
        let tier = WarmTier::default();
        let all: Vec<usize> = (0..run.done.len()).collect();
        warm_pass(view, &tier, &run.done, &all, queries, &mut tr);
        report_layers(&mut r, &run, &tr);
        let div: Vec<(f64, usize)> = run
            .done
            .iter()
            .filter(|d| d.mode == Mode::Diversified)
            .filter_map(|d| tr.diversified.get(&(0, d.arg)).map(|c| (c.1, c.2)))
            .collect();
        let n = Some(div.len());
        r.put(
            "core.pipeline.diversified.ms",
            mean(&div.iter().map(|d| d.0).collect::<Vec<_>>()),
            "ms",
            n,
        );
        r.put(
            "core.pipeline.diversified.pool_items",
            mean(&div.iter().map(|d| d.1 as f64).collect::<Vec<_>>()),
            "count",
            n,
        );
    }
    put_check_cpu(&mut r, check0, run.done.len());
    for run in &knee_runs {
        for (epoch, members) in by_epoch(&mut r, run) {
            verify(&mut r, view, epoch, &run.done, &members, queries, &mut tr);
        }
    }
    r
}

// ---------------------------------------------------------------------------
// cold-x50
// ---------------------------------------------------------------------------

const COLD_SETUPS: usize = 5;
/// The cold log: a fixed seed (apart from hot-x1's), mostly distinct
/// queries. The run's seed picks where the replay starts.
const COLD_LOG_SEED: u64 = 1009;
const COLD_LOG: usize = 600;

pub fn cold_x50(o: &Opts) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    let mut queries = Vec::new();
    for i in 0..COLD_SETUPS {
        drop(kept.take());
        let mut st = Setup::default();
        // The log is input, not set-up: drawn once.
        let log = (i == 0).then_some((COLD_LOG_SEED, COLD_LOG));
        let b = build(50.0, log, None, &mut st);
        // Probe with a query outside the log.
        let svc = start_and_probe(
            &mut st,
            || SearchService::start(Arc::clone(&b.snapshot), WORKERS),
            &KeywordQuery::from_terms(vec!["movie".into()]),
        );
        setups.push(st);
        if i == 0 {
            queries = b.queries.clone();
        }
        kept = Some((b, svc));
    }
    let (b, _) = kept.expect("at least one set-up");
    report_setup(&mut r, &setups, "core.service.start_s");
    let queries = &queries;
    // One fixed shuffle of the log, started at a seeded offset: every seed
    // does the same work, in nearly the same order, so the cache hits a
    // query finds do not hinge on the seed.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    shuffle(&mut order, &mut SplitMix::new(COLD_LOG_SEED));
    let start = SplitMix::new(o.seed).below(order.len().max(1));
    order.rotate_left(start);
    let run = closed_loop(
        || SearchService::start(Arc::clone(&b.snapshot), WORKERS),
        queries,
        &order,
        o.seconds,
    );
    report_reads(&mut r, &run, false);
    println!(
        "  cold-x50: {} searches, {} of them in complete passes over the {}-query log",
        run.done.len(),
        run.cpu_ops(),
        queries.len()
    );

    let view = View {
        db: &b.snapshot.db,
        index: &b.snapshot.index,
        catalog: &b.snapshot.catalog,
    };
    let mut tr = Traces {
        traced: o.traced,
        ..Traces::default()
    };
    let check0 = process_cpu_s();
    for (epoch, members) in by_epoch(&mut r, &run) {
        verify(&mut r, view, epoch, &run.done, &members, queries, &mut tr);
    }
    if o.traced {
        // Each pass ran on a cold service: so does its replay.
        let all: Vec<usize> = (0..run.done.len()).collect();
        for pass in all.chunks(order.len()) {
            warm_pass(
                view,
                &WarmTier::default(),
                &run.done,
                pass,
                queries,
                &mut tr,
            );
        }
        report_layers(&mut r, &run, &tr);
    }
    put_check_cpu(&mut r, check0, run.done.len());
    r
}

// ---------------------------------------------------------------------------
// ingest-x10
// ---------------------------------------------------------------------------

const INGEST_MIX: [(Mode, u32); 2] = [(Mode::Search, 75), (Mode::Ingest, 25)];
/// Offered operations per second (a quarter of them writes).
const INGEST_RPS: f64 = 80.0;
const INGEST_SETUPS: usize = 9;
/// Per-row holdout probability of the insert plan (before FK closure).
const INGEST_HOLDOUT: f64 = 0.1;
const INGEST_PLAN_SEED: u64 = 11;
/// Flush policy: every batch is fsynced to the WAL; checkpoint every 25.
const CHECKPOINT_EVERY: usize = 25;

fn durable_opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: CHECKPOINT_EVERY,
        config: InterpreterConfig::default(),
        max_joins: MAX_JOINS,
        max_templates: MAX_TEMPLATES,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The rows of `batch` as `insert_batch` returned them.
fn inserted(batch: &RowBatch, ids: Vec<RowId>) -> Vec<(TableId, RowId)> {
    batch.iter().map(|(t, _)| *t).zip(ids).collect()
}

pub fn ingest_x10(o: &Opts) -> Report {
    let mut r = Report::default();
    let opts = durable_opts();
    // The same plan on every seed (the seed draws the schedule): batches
    // for half again the expected writes.
    let expected = INGEST_RPS * o.seconds * 0.25;
    let plan = IngestConfig {
        seed: INGEST_PLAN_SEED,
        holdout: INGEST_HOLDOUT,
        batches: (expected * 1.5) as usize + 16,
    };
    let dir_of = |i: usize| {
        o.state_dir
            .join(format!("ingest-{}-{i}", std::process::id()))
    };
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..INGEST_SETUPS {
        drop(kept.take());
        let dir = dir_of(i);
        let _ = std::fs::remove_dir_all(&dir);
        let mut st = Setup::default();
        let b = build(10.0, Some((7, 108)), Some(plan), &mut st);
        let svc = start_and_probe(
            &mut st,
            || {
                SearchService::start_durable(Arc::clone(&b.snapshot), WORKERS, &dir, &opts)
                    .expect("durable start")
            },
            &b.queries[0],
        );
        setups.push(st);
        if i > 0 {
            let _ = std::fs::remove_dir_all(dir_of(i - 1));
        }
        kept = Some((b, svc, dir));
    }
    let (b, svc, dir) = kept.expect("at least one set-up");
    report_setup(&mut r, &setups, "core.service.start_s");
    let queries = &b.queries;
    let batches = &b.batches;
    let ops = ops_for(o.seed, INGEST_RPS, o.seconds, &INGEST_MIX, queries.len());
    let writes = ops.iter().filter(|op| op.mode == Mode::Ingest).count();
    if batches.len() < writes {
        r.invalid.push(format!(
            "plan holds {} batches for {writes} writes",
            batches.len()
        ));
        return r;
    }
    let preload_rows = b.snapshot.db.total_rows();
    let planned_rows: usize = batches.iter().map(Vec::len).sum();
    println!(
        "  ingest-x10: {preload_rows}-row preload, {} batches holding {planned_rows} rows, \
         {} ops offered",
        batches.len(),
        ops.len()
    );

    let service_ms = std::sync::Mutex::new(Vec::new());
    let sync = |op: &Op| {
        let t = Instant::now();
        let out = match svc.ingest(&batches[op.arg]) {
            Ok(rc) => Outcome::Ingest {
                epoch: rc.epoch.0,
                rows: rc.rows,
            },
            Err(e) => Outcome::Failed(e.to_string()),
        };
        service_ms
            .lock()
            .expect("timing lock")
            .push(t.elapsed().as_secs_f64() * 1e3);
        out
    };
    let run = open_loop(&svc, queries, &ops, INGEST_RPS, o.seconds, &sync);
    report_reads(&mut r, &run, true);
    let check0 = process_cpu_s();
    put_latency(&mut r, "write", &run.latencies(Mode::Ingest));
    let acked: Vec<(u64, usize)> = run
        .done
        .iter()
        .filter_map(|d| match d.outcome {
            Outcome::Ingest { epoch, rows } => Some((epoch, rows)),
            _ => None,
        })
        .collect();
    let rows: usize = acked.iter().map(|a| a.1).sum();
    let busy_s: f64 = service_ms.lock().expect("timing lock").iter().sum::<f64>() / 1e3;
    r.put(
        "ingest_rows_per_s",
        ratio(rows as f64, busy_s),
        "1/s",
        Some(acked.len()),
    );
    let stats = svc.stats();
    r.put(
        "disk_bytes_per_row",
        ratio(dir_bytes(&dir) as f64, rows as f64),
        "B",
        Some(rows),
    );
    r.put(
        "core.service.stale_evictions_per_write",
        ratio(stats.stale_evictions as f64, stats.epoch_swaps as f64),
        "count",
        Some(stats.epoch_swaps),
    );
    r.put(
        "core.wal.bytes_per_row",
        ratio(stats.wal_bytes as f64, rows as f64),
        "B",
        Some(rows),
    );
    let acked_epoch = acked.iter().map(|a| a.0).max().unwrap_or(0);
    if acked.iter().map(|a| a.0).collect::<Vec<_>>() != (1..=acked.len() as u64).collect::<Vec<_>>()
    {
        r.fail("ingest receipts are not the consecutive epochs 1..n".into());
    }

    // Kill and reopen: dropping the service runs no shutdown hook that
    // writes to the store, so the directory holds exactly what the
    // acknowledged writes fsynced.
    drop(svc);
    let (reopened, first_open_s) = timed(|| SearchService::open(&dir, WORKERS, &opts));
    // Two more opens of the same directory (nothing was written since).
    let mut opens = vec![first_open_s];
    if reopened.is_ok() {
        for _ in 0..2 {
            opens.push(timed(|| SearchService::open(&dir, WORKERS, &opts)).1);
        }
    }
    let opens = sorted(opens);
    r.put("recovery_s", median(&opens), "s", Some(opens.len()));
    r.put("core.wal.open_s", median(&opens), "s", Some(opens.len()));

    // Oracles: walk the store through every epoch from the preload.
    let mut tr = Traces {
        traced: o.traced,
        ..Traces::default()
    };
    let groups = by_epoch(&mut r, &run);
    let mut db: Database = b.snapshot.db.clone();
    let mut index = b.snapshot.index.clone();
    let catalog = &b.snapshot.catalog;
    let mut layer = WriteLayers::default();
    let wal_dir = o.state_dir.join(format!("wal-{}", std::process::id()));
    let mut wal = o.traced.then(|| {
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).expect("wal dir");
        keybridge_core::Wal::create(&wal_dir).expect("wal")
    });
    let faults = keybridge_core::FaultPlan::new();
    let mut epoch = 0u64;
    let mut g = groups.iter().peekable();
    loop {
        let view = View {
            db: &db,
            index: &index,
            catalog,
        };
        if let Some((_, members)) = g.next_if(|(e, _)| *e == epoch) {
            verify(&mut r, view, epoch, &run.done, members, queries, &mut tr);
            if o.traced {
                warm_pass(
                    view,
                    &WarmTier::default(),
                    &run.done,
                    members,
                    queries,
                    &mut tr,
                );
            }
        }
        if epoch == acked_epoch {
            break;
        }
        let batch = &batches[epoch as usize];
        let (ids, t_insert) = timed(|| db.insert_batch(batch));
        let Ok(ids) = ids else {
            let unchecked: usize = g.by_ref().map(|(_, m)| m.len()).sum();
            r.fail(format!(
                "oracle rejected batch {epoch}: {unchecked} later replies left unchecked"
            ));
            break;
        };
        let (_, t_index) = timed(|| index.index_batch(&db, &inserted(batch, ids)));
        epoch += 1;
        if let Some(w) = wal.as_mut() {
            let (copy, t_clone) = timed(|| (db.clone(), index.clone()));
            drop(copy);
            let (_, t_append) = timed(|| w.append(epoch, batch, &faults).expect("wal append"));
            layer.insert.push(t_insert * 1e3);
            layer.index.push(t_index * 1e3);
            layer.clone.push(t_clone * 1e3);
            layer.append.push(t_append * 1e3);
        }
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Durability: the reopened store is exactly the acknowledged epoch and
    // answers like the oracle of that epoch.
    match reopened {
        Ok(svc) => {
            if svc.current_epoch().0 != acked_epoch {
                r.fail(format!(
                    "reopened at epoch {} but epoch {acked_epoch} was acknowledged",
                    svc.current_epoch().0
                ));
            }
            let view = View {
                db: &db,
                index: &index,
                catalog,
            };
            let oracle = par_map(queries, |q| {
                crate::util::fp_answers(&view.interpreter().answers_top_k(q, K))
            });
            for (q, want) in queries.iter().zip(oracle) {
                r.attempted += 1;
                match svc.submit(q.clone(), K).wait() {
                    Some(Ok(rep)) if crate::util::fp_answers(&rep.answers) == want => {}
                    _ => r.fail(format!("post-recovery answers for {:?} differ", q.terms())),
                }
            }
            if o.traced {
                let cps = sorted(
                    (0..3)
                        .map(|_| timed(|| svc.checkpoint().expect("checkpoint")).1 * 1e3)
                        .collect(),
                );
                r.put(
                    "core.wal.checkpoint_ms",
                    median(&cps),
                    "ms",
                    Some(cps.len()),
                );
            }
        }
        Err(e) => r.fail(format!("reopen failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if o.traced {
        report_layers(&mut r, &run, &tr);
        let write_p50 = r.get("write_p50_ms").unwrap_or(f64::NAN);
        let med = |v: &[f64]| median(&sorted(v.to_vec()));
        let n = Some(layer.insert.len());
        r.put("relstore.insert_batch.ms", med(&layer.insert), "ms", n);
        r.put("textindex.index_batch.ms", med(&layer.index), "ms", n);
        r.put("core.publish.clone_ms", med(&layer.clone), "ms", n);
        r.put(
            "core.publish.clone_share_of_write",
            med(&layer.clone) / write_p50,
            "ratio",
            n,
        );
        r.put("core.wal.append_ms", med(&layer.append), "ms", n);
    }
    put_check_cpu(&mut r, check0, run.done.len());
    r
}

#[derive(Default)]
struct WriteLayers {
    insert: Vec<f64>,
    index: Vec<f64>,
    clone: Vec<f64>,
    append: Vec<f64>,
}

// ---------------------------------------------------------------------------
// sharded-x10
// ---------------------------------------------------------------------------

const SHARDS: usize = 2;
/// Fixed offered rate: 45% of the saturated capacity, measured with
/// `--knee 1` at 700–1,220 searches/s (median of six probes about 980)
/// on two cores.
const SHARDED_RPS: f64 = 440.0;
/// Capacity probe: searches kept in flight, and seconds.
const CAPACITY_IN_FLIGHT: usize = 8;
const CAPACITY_S: f64 = 5.0;
const SHARDED_SETUPS: usize = 9;

pub fn sharded_x10(o: &Opts) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SHARDED_SETUPS {
        drop(kept.take());
        let mut st = Setup::default();
        let b = build(10.0, Some((7, 108)), None, &mut st);
        let svc = start_and_probe(
            &mut st,
            || ShardedService::start(Arc::clone(&b.snapshot), SHARDS, 1),
            &b.queries[0],
        );
        setups.push(st);
        kept = Some((b, svc));
    }
    let (b, svc) = kept.expect("at least one set-up");
    report_setup(&mut r, &setups, "core.sharded.start_s");
    let queries = &b.queries;
    for q in queries {
        let _ = svc.submit(q.clone(), K).wait();
    }
    let ops = ops_for(
        o.seed,
        SHARDED_RPS,
        o.seconds,
        &[(Mode::Search, 1)],
        queries.len(),
    );
    let sync = |_: &Op| Outcome::Failed("no blocking ops in this mix".into());
    let run = open_loop(&svc, queries, &ops, SHARDED_RPS, o.seconds, &sync);
    report_reads(&mut r, &run, true);
    let stats = svc.service_stats();
    if o.knee {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        shuffle(&mut order, &mut SplitMix::new(o.seed));
        let cap = load::capacity(&svc, queries, &order, CAPACITY_IN_FLIGHT, CAPACITY_S);
        r.put("capacity_rps", cap, "1/s", None);
        println!(
            "  sharded-x10: offered {SHARDED_RPS} rps is {:.0}% of the measured capacity",
            SHARDED_RPS / cap * 100.0
        );
    }
    drop(svc);

    let view = View {
        db: &b.snapshot.db,
        index: &b.snapshot.index,
        catalog: &b.snapshot.catalog,
    };
    let mut tr = Traces {
        traced: o.traced,
        ..Traces::default()
    };
    let check0 = process_cpu_s();
    for (epoch, members) in by_epoch(&mut r, &run) {
        verify(&mut r, view, epoch, &run.done, &members, queries, &mut tr);
    }
    if o.traced {
        let tier = WarmTier::default();
        let all: Vec<usize> = (0..run.done.len()).collect();
        warm_pass(view, &tier, &run.done, &all, queries, &mut tr);
        report_layers(&mut r, &run, &tr);
        let over = sorted(
            tr.warm
                .iter()
                .map(|(&i, w)| run.done[i].latency_ms - w.ms)
                .collect(),
        );
        r.put(
            "core.sharded.overhead_ms",
            median(&over),
            "ms",
            Some(over.len()),
        );
        r.put(
            "core.sharded.rows_skipped",
            ratio(stats.shard_rows_skipped as f64, run.done.len() as f64),
            "count",
            Some(run.done.len()),
        );
        let parts = sorted(
            (0..3)
                .map(|_| {
                    timed(|| {
                        let a = assign_shards(&b.snapshot.db, SHARDS);
                        split_database(&b.snapshot.db, &a).expect("split")
                    })
                    .1
                })
                .collect(),
        );
        r.put(
            "relstore.partition_s",
            median(&parts),
            "s",
            Some(parts.len()),
        );
        // Per-shard reduction of every search's walked interpretations.
        let split =
            split_database(&b.snapshot.db, &assign_shards(&b.snapshot.db, SHARDS)).expect("split");
        for (s, db) in split.dbs.iter().enumerate() {
            let index = InvertedIndex::build(db);
            let view = View {
                db,
                index: &index,
                catalog: &b.snapshot.catalog,
            };
            let mut per_query: HashMap<usize, f64> = HashMap::new();
            let (mut total, mut n) = (0.0, 0usize);
            for d in &run.done {
                if let Some(rep) = tr.search.get(&(0, d.arg)).and_then(|c| c.replay.as_ref()) {
                    total += *per_query
                        .entry(d.arg)
                        .or_insert_with(|| trace::replay_reduce(view, &rep.walked));
                    n += 1;
                }
            }
            r.put(
                &format!("relstore.reduce.shard{s}.ms"),
                total / n.max(1) as f64,
                "ms",
                Some(n),
            );
        }
    }
    put_check_cpu(&mut r, check0, run.done.len());
    r
}

/// A workload's entry point.
pub type RunWorkload = fn(&Opts) -> Report;

/// Every workload, under the name `BENCHMARK.json` gives it.
pub const WORKLOADS: [(&str, RunWorkload); 4] = [
    ("hot-x1", hot_x1),
    ("cold-x50", cold_x50),
    ("ingest-x10", ingest_x10),
    ("sharded-x10", sharded_x10),
];

pub fn by_name(name: &str) -> Option<RunWorkload> {
    WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
}
