//! Answer oracles and the traced decomposition of one request.
//!
//! Every span is recorded here, around calls into each layer's public
//! functions; nothing is timed inside the program. A search's root span
//! (`core.pipeline.answers`) is a cold `answers_top_k_with_caches` — which
//! is also the answer oracle. Its final generation wave is then replayed
//! as child spans sharing the request: `top_k_with_cache` →
//! `rows_with_all` → `reduce_join_tree` → `plan_join_order` +
//! `execute_reduced_in`. The replayed answers must equal the pipeline's.

use crate::load::K;
use crate::util::{fp_diversified, fp_window};
use keybridge_core::{
    AnswerStats, BindingTarget, ConstructionSession, DiversifyOptions, ExecCache, Interpreter,
    KeywordQuery, NonemptyCache, QueryInterpretation, QueryPipeline, SessionConfig,
    SharedExecCache, SharedNonemptyCache,
};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    execute_reduced_in, plan_join_order, reduce_join_tree, AttrRef, BatchArena, Candidates,
    Database, ExecOptions, JoinedRow, RowId,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Session bursts: candidate window and JTTs materialized per candidate.
pub const SESSION_WINDOW: usize = 10;
pub const SESSION_LIMIT: usize = 5;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Fingerprint of `(interpretation, joining tuple tree, score)` triples —
/// the one definition both served replies and replays are hashed with.
pub fn fp_parts<'a>(
    parts: impl ExactSizeIterator<Item = (&'a QueryInterpretation, &'a JoinedRow, f64)>,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    parts.len().hash(&mut h);
    for (i, jtt, score) in parts {
        i.hash(&mut h);
        jtt.hash(&mut h);
        score.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Child spans and work counters of one replayed search.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub generate_ms: f64,
    pub materialized: usize,
    pub expanded: usize,
    pub nonempty_probes: usize,
    /// `has_row_with_all` over the distinct predicates of the generated
    /// interpretations.
    pub probe_us: f64,
    pub probes_timed: usize,
    pub predicate_ms: f64,
    /// Keyword-given rows: sizes of the `rows_with_all` sets.
    pub predicate_rows: usize,
    pub reduce_ms: f64,
    /// Rows handed to the reducer: the keyword-given candidate sets.
    pub rows_given: usize,
    /// Rows the reducer kept: `ReducedTree.sets` sizes.
    pub rows_out: usize,
    pub join_ms: f64,
    pub probes: usize,
    pub bindings: usize,
    pub batch_allocs: usize,
    pub executed: usize,
    pub nonempty: usize,
    /// Interpretations the replay walked, in rank order.
    pub walked: Vec<QueryInterpretation>,
    pub fp: u64,
}

impl Replay {
    pub fn children_ms(&self) -> f64 {
        self.generate_ms + self.predicate_ms + self.reduce_ms + self.join_ms
    }
}

/// A cold search: the root span plus, when traced, its replayed children.
#[derive(Debug, Clone)]
pub struct ColdSearch {
    pub fp: u64,
    pub pipeline_ms: f64,
    pub stats: AnswerStats,
    pub replay: Option<Replay>,
}

/// Read-only view of one epoch of the store.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pub db: &'a Database,
    pub index: &'a InvertedIndex,
    pub catalog: &'a keybridge_core::TemplateCatalog,
}

impl<'a> View<'a> {
    pub fn interpreter(&self) -> Interpreter<'a> {
        Interpreter::new(self.db, self.index, self.catalog, Default::default())
    }
}

/// Cold top-k answers (the oracle), optionally decomposed.
pub fn cold_search(view: View<'_>, query: &KeywordQuery, traced: bool) -> ColdSearch {
    let interp = view.interpreter();
    let t = Instant::now();
    let (answers, stats) = interp.answers_top_k_with_caches(
        query,
        K,
        ExecOptions::default(),
        &mut NonemptyCache::new(),
        &mut ExecCache::new(),
    );
    let pipeline_ms = ms_since(t);
    let fp = crate::util::fp_answers(&answers);
    let replay = traced.then(|| replay_search(view, &interp, query, stats.waves));
    ColdSearch {
        fp,
        pipeline_ms,
        stats,
        replay,
    }
}

/// Sorted-merge intersection of two ascending row lists.
fn intersect(a: Vec<RowId>, b: &[RowId]) -> Vec<RowId> {
    let mut j = 0;
    a.into_iter()
        .filter(|r| {
            while j < b.len() && b[j] < *r {
                j += 1;
            }
            j < b.len() && b[j] == *r
        })
        .collect()
}

/// Keyword-given candidate rows of `interp`'s nodes (same-node predicates
/// intersected), the time spent in `rows_with_all`, and the sizes of the
/// sets it returned.
fn candidates_of(view: View<'_>, interp: &QueryInterpretation) -> (Candidates, f64, usize) {
    let tpl = view.catalog.get(interp.template);
    let mut per_node: Vec<Option<Vec<RowId>>> = vec![None; tpl.tree.nodes.len()];
    let mut ms = 0.0;
    let mut fetched = 0;
    for b in &interp.bindings {
        if let BindingTarget::Value { node, attr } = b.target {
            let aref = AttrRef {
                table: tpl.tree.nodes[node],
                attr,
            };
            let t = Instant::now();
            let rows = view.index.rows_with_all(&b.keywords, aref);
            ms += ms_since(t);
            fetched += rows.len();
            per_node[node] = Some(match per_node[node].take() {
                Some(prev) => intersect(prev, &rows),
                None => rows,
            });
        }
    }
    (Candidates { per_node }, ms, fetched)
}

/// `reduce_join_tree` time (ms) of `walked` on one store — the per-shard
/// view of a replayed search.
pub fn replay_reduce(view: View<'_>, walked: &[QueryInterpretation]) -> f64 {
    let mut ms = 0.0;
    for interp in walked {
        let tpl = view.catalog.get(interp.template);
        let (candidates, _, _) = candidates_of(view, interp);
        let t = Instant::now();
        let _ = std::hint::black_box(reduce_join_tree(view.db, &tpl.tree, &candidates));
        ms += ms_since(t);
    }
    ms
}

/// Replay the final generation wave of a `waves`-wave pipeline run through
/// the layers' public functions, timing each.
pub fn replay_search(
    view: View<'_>,
    interp: &Interpreter<'_>,
    query: &KeywordQuery,
    waves: usize,
) -> Replay {
    let mut r = Replay::default();
    // The pipeline's wave schedule: start at max(k, 8), grow 4x per wave.
    let cap = interp.config().max_interpretations;
    let mut gen_k = K.max(8).min(cap);
    for _ in 1..waves {
        gen_k = gen_k.saturating_mul(4).min(cap);
    }
    let t = Instant::now();
    let (ranked, g) = interp.top_k_with_cache(query, gen_k, true, &mut NonemptyCache::new());
    r.generate_ms = ms_since(t);
    r.materialized = g.materialized;
    r.expanded = g.expanded;
    r.nonempty_probes = g.nonempty_probes;

    let mut seen = HashSet::new();
    for s in &ranked {
        let tpl = view.catalog.get(s.interpretation.template);
        for b in &s.interpretation.bindings {
            if let BindingTarget::Value { node, attr } = b.target {
                let aref = AttrRef {
                    table: tpl.tree.nodes[node],
                    attr,
                };
                if seen.insert((b.keywords.clone(), aref)) {
                    let t = Instant::now();
                    std::hint::black_box(view.index.has_row_with_all(&b.keywords, aref));
                    r.probe_us += t.elapsed().as_secs_f64() * 1e6;
                    r.probes_timed += 1;
                }
            }
        }
    }

    let mut arena = BatchArena::new();
    let mut answers: Vec<(&QueryInterpretation, JoinedRow, f64)> = Vec::new();
    for s in &ranked {
        let remaining = K - answers.len();
        if remaining == 0 {
            break;
        }
        r.walked.push(s.interpretation.clone());
        let tpl = view.catalog.get(s.interpretation.template);
        let (candidates, predicate_ms, fetched) = candidates_of(view, &s.interpretation);
        r.predicate_ms += predicate_ms;
        r.predicate_rows += fetched;
        r.rows_given += candidates
            .per_node
            .iter()
            .flatten()
            .map(Vec::len)
            .sum::<usize>();
        let t = Instant::now();
        let reduced = reduce_join_tree(view.db, &tpl.tree, &candidates);
        r.reduce_ms += ms_since(t);
        let Ok(reduced) = reduced else { continue };
        r.executed += 1;
        r.rows_out += reduced.sets.iter().map(Vec::len).sum::<usize>();
        if reduced.sets.iter().any(Vec::is_empty) {
            continue;
        }
        let opts = ExecOptions {
            limit: remaining,
            ..ExecOptions::default()
        };
        let t = Instant::now();
        let sizes: Vec<usize> = reduced.sets.iter().map(Vec::len).collect();
        let plan = plan_join_order(&tpl.tree, &reduced.given, &sizes);
        let out = execute_reduced_in(view.db, &tpl.tree, reduced.sets, &plan, opts, &mut arena);
        r.join_ms += ms_since(t);
        let Ok(out) = out else { continue };
        r.probes += out.stats.probes;
        r.bindings += out.stats.intermediate_bindings;
        r.batch_allocs += out.stats.batch_allocs;
        if !out.rows.is_empty() {
            r.nonempty += 1;
        }
        for jtt in out.rows.into_iter().take(remaining) {
            answers.push((&s.interpretation, jtt, s.log_score));
        }
    }
    r.fp = fp_parts(answers.iter().map(|(i, j, s)| (*i, j, *s)));
    r
}

/// Cold diversified top-k (the `divq` oracle path): fingerprint, span
/// duration and executed pool size.
pub fn cold_diversified(view: View<'_>, query: &KeywordQuery) -> (u64, f64, usize) {
    let interp = view.interpreter();
    let t = Instant::now();
    let out = QueryPipeline::new(
        &interp,
        ExecOptions::default(),
        &mut NonemptyCache::new(),
        &mut ExecCache::new(),
    )
    .diversified(query, DiversifyOptions::default());
    (
        fp_diversified(out.pool, &out.answers),
        ms_since(t),
        out.pool,
    )
}

/// Cold session window (the offline construction-session oracle).
pub fn cold_session(view: View<'_>, query: &KeywordQuery) -> u64 {
    let interp = view.interpreter();
    let session =
        ConstructionSession::for_query(&interp, query, SESSION_WINDOW, SessionConfig::default());
    fp_window(&session.window_answers(view.db, view.index, view.catalog, SESSION_LIMIT))
}

/// A bench-owned shared cache tier, driven with the service's own
/// per-request pattern, so a sequential replay of the served op sequence
/// sees the same cache state the workers saw — minus the queue.
#[derive(Default)]
pub struct WarmTier {
    nonempty: Arc<SharedNonemptyCache>,
    exec: Arc<SharedExecCache>,
}

/// One warm, direct (unqueued) search.
#[derive(Debug, Clone, Default)]
pub struct WarmSearch {
    pub ms: f64,
    pub stats: AnswerStats,
    /// Predicate lookups: cache hits plus fresh `rows_with_all` fetches.
    pub predicate_lookups: usize,
}

impl WarmTier {
    pub fn search(&self, view: View<'_>, query: &KeywordQuery) -> WarmSearch {
        let interp = view.interpreter();
        let mut gen = NonemptyCache::with_shared(Arc::clone(&self.nonempty));
        let mut exec = ExecCache::with_shared(Arc::clone(&self.exec));
        let shared_before = self.exec.predicate_hits();
        let t = Instant::now();
        let (_, stats) =
            interp.answers_top_k_with_caches(query, K, ExecOptions::default(), &mut gen, &mut exec);
        let ms = ms_since(t);
        // Local entries are shared hits plus fresh fetches.
        let fresh = exec.predicate_count() - (self.exec.predicate_hits() - shared_before);
        WarmSearch {
            ms,
            predicate_lookups: stats.predicate_cache_hits + fresh,
            stats,
        }
    }

    /// One warm diversified request: fills the tier the way the service's
    /// diversified requests do (its timing is not used).
    pub fn diversified(&self, view: View<'_>, query: &KeywordQuery) {
        let interp = view.interpreter();
        let mut gen = NonemptyCache::with_shared(Arc::clone(&self.nonempty));
        let mut exec = ExecCache::with_shared(Arc::clone(&self.exec));
        let _ = QueryPipeline::new(&interp, ExecOptions::default(), &mut gen, &mut exec)
            .diversified(query, DiversifyOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keybridge_core::TemplateCatalog;
    use keybridge_datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};

    /// The replayed spans reproduce the pipeline's answers, so the layer
    /// times describe the work that produced the reply.
    #[test]
    fn traced_replay_reproduces_the_pipeline() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(3)).expect("fixture");
        let log = Workload::imdb(
            &data,
            WorkloadConfig {
                seed: 5,
                n_queries: 40,
                mc_fraction: 0.5,
            },
        );
        let index = InvertedIndex::build(&data.db);
        let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("catalog");
        let view = View {
            db: &data.db,
            index: &index,
            catalog: &catalog,
        };
        let mut answered = 0;
        for q in log.queries.iter().filter(|q| !q.keywords.is_empty()) {
            let q = KeywordQuery::from_terms(q.keywords.clone());
            let cold = cold_search(view, &q, true);
            let replay = cold.replay.expect("traced");
            assert_eq!(replay.fp, cold.fp, "replay of {:?} diverged", q.terms());
            answered += usize::from(cold.stats.answers > 0);
        }
        assert!(answered > 10, "only {answered} queries had answers");
    }
}
