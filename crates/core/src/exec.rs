//! Materializing the results of a query interpretation (§2.2.6): translate
//! the interpretation's value predicates into candidate row sets via the
//! inverted index, run the template's join tree, and collect joining tuple
//! trees with their primary keys (the "information nuggets" of Chapter 4).
//!
//! [`ExecCache`] makes repeated execution cheap across a candidate list:
//! predicate row sets are computed once per distinct `(keyword bag, attr)`
//! pair — the same probe the generator's non-emptiness cache answers — and
//! whole [`ExecutedResult`]s are memoized per interpretation, which is what
//! lets [`crate::Interpreter::answers_top_k`] replay its ranked prefix in
//! successive generation waves for free.
//!
//! An `ExecCache` can additionally be backed by a process-wide
//! [`SharedExecCache`] (see [`crate::SearchService`]): predicate row sets
//! and completed results then outlive the query that computed them, so one
//! user's intersections prune every other user's executions. Whole-result
//! hits are shared (`Arc`) and cost no copying on any thread; a predicate
//! hit skips the index intersection but still copies its row list out of
//! the `Arc` when an execution consumes it (the join-tree `Candidates` API
//! takes owned vectors).

use crate::interp::BindingTarget;
use crate::template::TemplateCatalog;
use crate::QueryInterpretation;
use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    execute_join_tree_with_stats_in, AttrRef, BatchArena, Candidates, Database, ExecOptions,
    ExecStats, JoinedRow, RelResult, RowId, TableId,
};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// The primary key of a row: what [`ResultKey`]s are minted from. A
/// [`Database`] answers from its own rows; the sharded coordinator, which
/// holds no global database, answers from its global pk maps.
pub trait PkLookup {
    fn pk(&self, table: TableId, row: RowId) -> i64;
}

impl PkLookup for Database {
    fn pk(&self, table: TableId, row: RowId) -> i64 {
        self.pk_value(table, row)
    }
}

/// A tuple identifier: table plus primary-key value. The unit of result
/// overlap in DivQ's metrics (one `ResultKey` = one information nugget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResultKey {
    pub table: TableId,
    pub pk: i64,
}

/// Materialized results of one interpretation.
#[derive(Debug, Clone)]
pub struct ExecutedResult {
    /// Joining tuple trees: one row per template node, aligned with the
    /// template's node order.
    pub jtts: Vec<JoinedRow>,
    /// The distinct *answer* tuples: rows of the non-free nodes (those
    /// carrying a keyword predicate). These are the information nuggets /
    /// subtopics of Chapter 4 — connector rows of free tables join the
    /// answer together but do not identify it.
    pub keys: BTreeSet<ResultKey>,
    /// All distinct tuples appearing in any JTT, free nodes included.
    pub all_keys: BTreeSet<ResultKey>,
    /// Executor counters of this run (batches, probes, semi-join reduction).
    pub stats: ExecStats,
}

impl ExecutedResult {
    /// Number of JTTs.
    pub fn len(&self) -> usize {
        self.jtts.len()
    }

    /// Whether the interpretation returned no results.
    pub fn is_empty(&self) -> bool {
        self.jtts.is_empty()
    }
}

/// One memoized execution: the options it ran under plus its result.
#[derive(Debug, Clone)]
struct CachedExecution {
    limit: usize,
    max_intermediate: usize,
    count_only: bool,
    strategy: keybridge_relstore::ExecStrategy,
    result: Arc<ExecutedResult>,
}

impl CachedExecution {
    /// Whether this cached run can stand in for a request under `opts`: it
    /// ran in the same mode (strategy and `count_only` match, the cached run
    /// was at least as strict about `max_intermediate`) and its limit was
    /// not the binding constraint (it either completed below its limit or
    /// had at least the requested one).
    fn satisfies(&self, opts: &ExecOptions) -> bool {
        let complete = !self.count_only && self.result.jtts.len() < self.limit;
        self.strategy == opts.strategy
            && self.count_only == opts.count_only
            && self.max_intermediate <= opts.max_intermediate
            && (complete || self.limit >= opts.limit)
    }

    /// Whether the run finished below its limit, i.e. holds the *full*
    /// result set. Only complete runs may enter the shared cache: a prefix
    /// of a complete result is byte-identical to a fresh limited run
    /// (post-reduction truncation preserves enumeration order), so serving
    /// them cross-query cannot change what any caller observes.
    fn is_complete(&self) -> bool {
        !self.count_only && self.result.jtts.len() < self.limit
    }
}

/// Number of lock stripes in the shared caches (here and in
/// `SharedNonemptyCache`). Power of two; small enough to stay
/// cache-friendly, large enough that 8 workers rarely collide.
pub(crate) const STRIPES: usize = 16;

/// The stripe a key hashes to — the one stripe-pick routine every shared
/// cache in the crate uses.
pub(crate) fn stripe_of<K: Hash>(key: &K) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (STRIPES - 1)
}

/// Per-shard admission caps: the shared tiers are bounded, not evicting —
/// a full shard stops admitting new entries (existing ones keep serving
/// hits; fresh work just re-computes), so a long-lived service under a
/// diverse or adversarial query stream cannot grow without bound.
const PREDICATE_SHARD_CAP: usize = 4096;
const RESULT_SHARD_CAP: usize = 1024;

/// A predicate's cache identity: sorted keyword bag + attribute.
type PredicateKey = (Vec<String>, AttrRef);
/// One lock stripe of the shared predicate map.
type PredicateShard = RwLock<HashMap<PredicateKey, Arc<Vec<RowId>>>>;
/// One lock stripe of the shared (complete-only) result map.
type ResultShard = RwLock<HashMap<QueryInterpretation, CachedExecution>>;

/// Process-wide execution cache shared by every worker of a
/// [`crate::SearchService`]: lock-striped maps of predicate row sets and
/// *complete* memoized results, keyed exactly like [`ExecCache`]. All maps
/// are valid only for the snapshot (database + index + catalog) they were
/// populated against — the service owns both, so the pairing is structural.
#[derive(Debug)]
pub struct SharedExecCache {
    predicates: Vec<PredicateShard>,
    results: Vec<ResultShard>,
    predicate_hits: AtomicUsize,
    result_hits: AtomicUsize,
}

impl Default for SharedExecCache {
    fn default() -> Self {
        SharedExecCache {
            predicates: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            results: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            predicate_hits: AtomicUsize::new(0),
            result_hits: AtomicUsize::new(0),
        }
    }
}

impl SharedExecCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct predicate row sets currently shared.
    pub fn predicate_count(&self) -> usize {
        self.predicates
            .iter()
            .map(|s| s.read().unwrap().len())
            .sum()
    }

    /// Complete executions currently shared.
    pub fn result_count(&self) -> usize {
        self.results.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Cross-query predicate hits served so far.
    pub fn predicate_hits(&self) -> usize {
        self.predicate_hits.load(Ordering::Relaxed)
    }

    /// Cross-query result hits served so far.
    pub fn result_hits(&self) -> usize {
        self.result_hits.load(Ordering::Relaxed)
    }

    fn get_predicate(&self, key: &PredicateKey) -> Option<Arc<Vec<RowId>>> {
        let hit = self.predicates[stripe_of(key)]
            .read()
            .unwrap()
            .get(key)
            .cloned();
        if hit.is_some() {
            self.predicate_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn put_predicate(&self, key: PredicateKey, rows: Arc<Vec<RowId>>) {
        let mut shard = self.predicates[stripe_of(&key)].write().unwrap();
        if shard.len() < PREDICATE_SHARD_CAP {
            shard.entry(key).or_insert(rows);
        }
    }

    fn get_result(
        &self,
        interp: &QueryInterpretation,
        opts: &ExecOptions,
    ) -> Option<Arc<ExecutedResult>> {
        let shard = self.results[stripe_of(interp)].read().unwrap();
        let c = shard.get(interp)?;
        if c.satisfies(opts) {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(&c.result))
        } else {
            None
        }
    }

    fn put_result(&self, interp: &QueryInterpretation, cached: &CachedExecution) {
        if !cached.is_complete() {
            return;
        }
        let mut shard = self.results[stripe_of(interp)].write().unwrap();
        if shard.len() < RESULT_SHARD_CAP {
            shard
                .entry(interp.clone())
                .or_insert_with(|| cached.clone());
        }
    }
}

/// Shared execution state across many interpretations of one query:
/// predicate row sets keyed by `(sorted keyword bag, attribute)` and
/// memoized per-interpretation results. Optionally backed by a
/// [`SharedExecCache`], in which case local misses consult (and local
/// fills feed) the process-wide maps.
#[derive(Debug, Default)]
pub struct ExecCache {
    predicate_rows: HashMap<PredicateKey, Arc<Vec<RowId>>>,
    results: HashMap<QueryInterpretation, CachedExecution>,
    shared: Option<Arc<SharedExecCache>>,
    /// Columnar batch arena reused by every execution routed through this
    /// cache: one query's capacity growth pays for the whole candidate
    /// list's joins (the `batch_allocs` counter measures exactly this).
    pub(crate) arena: BatchArena,
    /// Predicate row sets served from the cache (local or shared).
    pub predicate_hits: usize,
    /// Whole executions served from the cache (local or shared).
    pub result_hits: usize,
}

impl ExecCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A per-query cache whose misses fall through to `shared`.
    pub fn with_shared(shared: Arc<SharedExecCache>) -> Self {
        ExecCache {
            shared: Some(shared),
            ..Default::default()
        }
    }

    /// Whether a cached predicate is known (non-)empty — the executor-side
    /// twin of the generator's non-emptiness probe. `None` when the bag was
    /// never materialized.
    pub fn predicate_nonempty(&self, keywords: &[String], attr: AttrRef) -> Option<bool> {
        let mut key = keywords.to_vec();
        key.sort();
        self.predicate_rows.get(&(key, attr)).map(|r| !r.is_empty())
    }

    /// Number of distinct predicates materialized so far.
    pub fn predicate_count(&self) -> usize {
        self.predicate_rows.len()
    }

    /// Number of memoized executions.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Rows of `attr` containing all of `keywords`, from the local cache,
    /// the shared cache, or freshly intersected (and then cached in both).
    pub(crate) fn rows(
        &mut self,
        index: &InvertedIndex,
        keywords: &[String],
        attr: AttrRef,
    ) -> Arc<Vec<RowId>> {
        let mut sorted = keywords.to_vec();
        sorted.sort();
        let key = (sorted, attr);
        if let Some(rows) = self.predicate_rows.get(&key) {
            self.predicate_hits += 1;
            return Arc::clone(rows);
        }
        if let Some(shared) = &self.shared {
            if let Some(rows) = shared.get_predicate(&key) {
                self.predicate_hits += 1;
                self.predicate_rows.insert(key, Arc::clone(&rows));
                return rows;
            }
        }
        let rows = Arc::new(index.rows_with_all(keywords, attr));
        if let Some(shared) = &self.shared {
            shared.put_predicate(key.clone(), Arc::clone(&rows));
        }
        self.predicate_rows.insert(key, Arc::clone(&rows));
        rows
    }
}

/// Intersect two sorted row lists in place (`prev ∩= other`), two-pointer
/// merge — the sorted-merge path replacing the old per-binding `HashSet`.
fn intersect_sorted(prev: &mut Vec<RowId>, other: &[RowId]) {
    let mut out_i = 0;
    let mut j = 0;
    for i in 0..prev.len() {
        let r = prev[i];
        while j < other.len() && other[j] < r {
            j += 1;
        }
        if j < other.len() && other[j] == r {
            prev[out_i] = r;
            out_i += 1;
            j += 1;
        }
    }
    prev.truncate(out_i);
}

/// Node indexes of `interp` carrying a value predicate (the "bound" nodes
/// whose rows identify an answer).
pub fn bound_nodes(interp: &QueryInterpretation, node_count: usize) -> Vec<bool> {
    let mut bound = vec![false; node_count];
    for b in &interp.bindings {
        if matches!(b.target, BindingTarget::Value { .. }) {
            bound[b.target.node()] = true;
        }
    }
    bound
}

/// Execute `interp` over `db`.
pub fn execute_interpretation(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
) -> RelResult<ExecutedResult> {
    execute_inner(db, index, catalog, interp, opts, &mut None)
}

/// Execute `interp`, sharing predicate row sets and memoized results through
/// `cache`. A cached result is reused only when it ran in the same mode
/// (strategy and `count_only` match, the cached run was at least as strict
/// about `max_intermediate`) and its limit was not the binding constraint
/// (it either completed below its limit or had at least the requested one).
/// When `cache` is backed by a [`SharedExecCache`], local result misses fall
/// through to the *complete* runs other queries have shared, and fresh
/// complete runs are published back.
///
/// Results are shared (`Arc`) so cache hits cost no copying. Note a cache
/// hit on a *complete* cached result may carry more than `opts.limit` JTTs;
/// callers that need an exact cap must truncate themselves (the streaming
/// answer loop takes only what it still needs).
pub fn execute_interpretation_cached(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    cache: &mut ExecCache,
) -> RelResult<Arc<ExecutedResult>> {
    with_result_cache(cache, interp, opts, |c| {
        execute_inner(db, index, catalog, interp, opts, &mut Some(c))
    })
}

/// The result-memoization spine of [`execute_interpretation_cached`] with the
/// actual execution abstracted out: check the local then shared caches under
/// the `satisfies` rule, otherwise run `compute` and publish its (complete)
/// result to both tiers. The sharded coordinator's execution backend routes
/// its scatter-gather executions through this same path, so single-shard and
/// sharded serving share one caching semantics.
pub(crate) fn with_result_cache(
    cache: &mut ExecCache,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    compute: impl FnOnce(&mut ExecCache) -> RelResult<ExecutedResult>,
) -> RelResult<Arc<ExecutedResult>> {
    if let Some(c) = cache.results.get(interp) {
        if c.satisfies(&opts) {
            cache.result_hits += 1;
            return Ok(Arc::clone(&c.result));
        }
    }
    if let Some(shared) = &cache.shared {
        if let Some(result) = shared.get_result(interp, &opts) {
            cache.result_hits += 1;
            // Shared entries are complete; remember locally under a limit
            // that marks them complete for any follow-up request.
            cache.results.insert(
                interp.clone(),
                CachedExecution {
                    limit: result.jtts.len() + 1,
                    max_intermediate: opts.max_intermediate,
                    count_only: opts.count_only,
                    strategy: opts.strategy,
                    result: Arc::clone(&result),
                },
            );
            return Ok(result);
        }
    }
    let result = Arc::new(compute(cache)?);
    let cached = CachedExecution {
        limit: opts.limit,
        max_intermediate: opts.max_intermediate,
        count_only: opts.count_only,
        strategy: opts.strategy,
        result: Arc::clone(&result),
    };
    if let Some(shared) = &cache.shared {
        shared.put_result(interp, &cached);
    }
    cache.results.insert(interp.clone(), cached);
    Ok(result)
}

/// The answer/all keys of a JTT slice under one interpretation's bound-node
/// projection — the single definition both fresh executions and prefix
/// truncations use, so the two can never drift apart.
pub(crate) fn collect_result_keys<P: PkLookup + ?Sized>(
    pks: &P,
    nodes: &[TableId],
    bound: &[bool],
    jtts: &[JoinedRow],
) -> (BTreeSet<ResultKey>, BTreeSet<ResultKey>) {
    let mut keys = BTreeSet::new();
    let mut all_keys = BTreeSet::new();
    for jtt in jtts {
        for (node, row) in jtt.iter().enumerate() {
            let table = nodes[node];
            let key = ResultKey {
                table,
                pk: pks.pk(table, *row),
            };
            all_keys.insert(key);
            if bound[node] {
                keys.insert(key);
            }
        }
    }
    (keys, all_keys)
}

/// `res` truncated to at most `cap` JTTs, keys recomputed over the prefix —
/// the *answer content* (`jtts`, `keys`, `all_keys`) is byte-identical to a
/// fresh run under `limit = cap`. A *complete* cached result may carry more
/// JTTs than a limited request asked for; since post-reduction truncation
/// preserves enumeration order, its prefix is exactly what the fresh
/// limited run would have returned, which is what lets warm shared-cache
/// hits serve limit-sensitive callers (session windows, diversification
/// pools) without breaking oracle equality. The `stats` field is the one
/// deliberate exception: it keeps the cached run's counters (`result_count`
/// etc. describe the complete execution, not a hypothetical re-run) — cache
/// hits cost no executor work, so fabricating fresh-run counters would
/// misreport what actually happened.
pub fn truncate_result<P: PkLookup + ?Sized>(
    pks: &P,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    res: &Arc<ExecutedResult>,
    cap: usize,
) -> Arc<ExecutedResult> {
    if res.jtts.len() <= cap {
        return Arc::clone(res);
    }
    let tpl = catalog.get(interp.template);
    let bound = bound_nodes(interp, tpl.tree.nodes.len());
    let jtts: Vec<JoinedRow> = res.jtts[..cap].to_vec();
    let (keys, all_keys) = collect_result_keys(pks, &tpl.tree.nodes, &bound, &jtts);
    Arc::new(ExecutedResult {
        jtts,
        keys,
        all_keys,
        stats: res.stats,
    })
}

/// The answer keys of `res`'s first `cap` JTTs — [`truncate_result`]'s
/// keys-only fast path for stages that never look at the tuple trees.
pub(crate) fn prefix_keys<P: PkLookup + ?Sized>(
    pks: &P,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    res: &ExecutedResult,
    cap: usize,
) -> BTreeSet<ResultKey> {
    if res.jtts.len() <= cap {
        return res.keys.clone();
    }
    let tpl = catalog.get(interp.template);
    let bound = bound_nodes(interp, tpl.tree.nodes.len());
    collect_result_keys(pks, &tpl.tree.nodes, &bound, &res.jtts[..cap]).0
}

/// The candidate row sets of `interp` over a join tree with `nodes`: each
/// value predicate's rows come from `rows`, and two predicates on one node
/// are sorted-merge intersected (both lists come out of the index sorted).
/// The one harvest the single-store executor and every shard job run.
pub fn harvest_candidates(
    nodes: &[TableId],
    interp: &QueryInterpretation,
    mut rows: impl FnMut(&[String], AttrRef) -> Vec<RowId>,
) -> Candidates {
    let mut per_node: Vec<Option<Vec<RowId>>> = vec![None; nodes.len()];
    for b in &interp.bindings {
        if let BindingTarget::Value { node, attr } = b.target {
            let fetched = rows(
                &b.keywords,
                AttrRef {
                    table: nodes[node],
                    attr,
                },
            );
            per_node[node] = Some(match per_node[node].take() {
                Some(mut prev) => {
                    intersect_sorted(&mut prev, &fetched);
                    prev
                }
                None => fetched,
            });
        }
    }
    Candidates { per_node }
}

fn execute_inner(
    db: &Database,
    index: &InvertedIndex,
    catalog: &TemplateCatalog,
    interp: &QueryInterpretation,
    opts: ExecOptions,
    cache: &mut Option<&mut ExecCache>,
) -> RelResult<ExecutedResult> {
    let tpl = catalog.get(interp.template);
    let mut scratch = Vec::new();
    let candidates = harvest_candidates(&tpl.tree.nodes, interp, |keywords, aref| {
        match cache.as_deref_mut() {
            Some(c) => (*c.rows(index, keywords, aref)).clone(),
            None => {
                let mut out = Vec::new();
                index.rows_with_all_into(keywords, aref, &mut out, &mut scratch);
                out
            }
        }
    });
    let bound = bound_nodes(interp, tpl.tree.nodes.len());
    // Cached executions share the cache's arena across the whole candidate
    // list; uncached one-shot executions pay for a fresh one.
    let outcome = match cache.as_deref_mut() {
        Some(c) => execute_join_tree_with_stats_in(db, &tpl.tree, &candidates, opts, &mut c.arena)?,
        None => execute_join_tree_with_stats_in(
            db,
            &tpl.tree,
            &candidates,
            opts,
            &mut BatchArena::new(),
        )?,
    };
    let (keys, all_keys) = collect_result_keys(db, &tpl.tree.nodes, &bound, &outcome.rows);
    Ok(ExecutedResult {
        jtts: outcome.rows,
        keys,
        all_keys,
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::KeywordBinding;
    use crate::template::TemplateCatalog;
    use keybridge_relstore::{ExecStrategy, SchemaBuilder, TableKind, Value};

    fn setup() -> (Database, InvertedIndex, TemplateCatalog) {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let acts = db.schema().table_id("acts").unwrap();
        for (id, n) in [(1, "tom hanks"), (2, "tom cruise")] {
            db.insert(actor, vec![Value::Int(id), Value::text(n)])
                .unwrap();
        }
        for (id, t) in [(10, "the terminal"), (11, "top gun")] {
            db.insert(movie, vec![Value::Int(id), Value::text(t)])
                .unwrap();
        }
        for (id, a, m) in [(100, 1, 10), (101, 2, 11)] {
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        let idx = InvertedIndex::build(&db);
        let catalog = TemplateCatalog::enumerate(&db, 2, 100).unwrap();
        (db, idx, catalog)
    }

    fn hanks_terminal(db: &Database, catalog: &TemplateCatalog) -> QueryInterpretation {
        let sig = vec!["actor".to_owned(), "acts".to_owned(), "movie".to_owned()];
        let tpl = catalog.iter().find(|t| t.signature(db) == sig).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let actor_node = tpl.nodes_of_table(actor)[0];
        let movie_node = tpl.nodes_of_table(movie)[0];
        QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["hanks".into()],
                    target: BindingTarget::Value {
                        node: actor_node,
                        attr: db.schema().resolve("actor", "name").unwrap().attr,
                    },
                },
                KeywordBinding {
                    keywords: vec!["terminal".into()],
                    target: BindingTarget::Value {
                        node: movie_node,
                        attr: db.schema().resolve("movie", "title").unwrap().attr,
                    },
                },
            ],
        )
    }

    #[test]
    fn executes_and_collects_keys() {
        let (db, idx, catalog) = setup();
        let interp = hanks_terminal(&db, &catalog);
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 1);
        assert!(!res.is_empty());
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        assert!(res.keys.contains(&ResultKey {
            table: actor,
            pk: 1
        }));
        assert!(res.keys.contains(&ResultKey {
            table: movie,
            pk: 10
        }));
        assert_eq!(res.keys.len(), 2); // the bound actor + movie tuples
        assert_eq!(res.all_keys.len(), 3); // plus the free acts tuple
        assert!(res.stats.probes > 0);
    }

    #[test]
    fn mismatched_predicates_yield_empty() {
        let (db, idx, catalog) = setup();
        // "cruise" + "terminal" never join.
        let sig = vec!["actor".to_owned(), "acts".to_owned(), "movie".to_owned()];
        let tpl = catalog.iter().find(|t| t.signature(&db) == sig).unwrap();
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["cruise".into()],
                    target: BindingTarget::Value {
                        node: tpl.nodes_of_table(actor)[0],
                        attr: db.schema().resolve("actor", "name").unwrap().attr,
                    },
                },
                KeywordBinding {
                    keywords: vec!["terminal".into()],
                    target: BindingTarget::Value {
                        node: tpl.nodes_of_table(movie)[0],
                        attr: db.schema().resolve("movie", "title").unwrap().attr,
                    },
                },
            ],
        );
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn single_table_execution() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![KeywordBinding {
                keywords: vec!["tom".into()],
                target: BindingTarget::Value {
                    node: 0,
                    attr: db.schema().resolve("actor", "name").unwrap().attr,
                },
            }],
        );
        let res =
            execute_interpretation(&db, &idx, &catalog, &interp, ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 2); // both toms
        assert_eq!(res.keys.len(), 2);
    }

    #[test]
    fn same_node_predicates_intersect_by_merge() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let name = db.schema().resolve("actor", "name").unwrap().attr;
        // Two separate predicates on the same node: "tom" ∩ "hanks".
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![
                KeywordBinding {
                    keywords: vec!["tom".into()],
                    target: BindingTarget::Value {
                        node: 0,
                        attr: name,
                    },
                },
                KeywordBinding {
                    keywords: vec!["hanks".into()],
                    target: BindingTarget::Value {
                        node: 0,
                        attr: name,
                    },
                },
            ],
        );
        for strategy in [ExecStrategy::HashJoin, ExecStrategy::Naive] {
            let res = execute_interpretation(
                &db,
                &idx,
                &catalog,
                &interp,
                ExecOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(res.len(), 1, "{strategy:?}");
            assert!(res.keys.contains(&ResultKey {
                table: actor,
                pk: 1
            }));
        }
    }

    #[test]
    fn cache_reuses_predicates_and_results() {
        let (db, idx, catalog) = setup();
        let interp = hanks_terminal(&db, &catalog);
        let mut cache = ExecCache::new();
        let a = execute_interpretation_cached(
            &db,
            &idx,
            &catalog,
            &interp,
            ExecOptions::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(cache.result_hits, 0);
        assert_eq!(cache.predicate_count(), 2);
        let b = execute_interpretation_cached(
            &db,
            &idx,
            &catalog,
            &interp,
            ExecOptions::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(cache.result_hits, 1);
        assert_eq!(a.jtts, b.jtts);
        assert_eq!(a.keys, b.keys);
        // The predicate sets answer non-emptiness without re-probing.
        let name = db.schema().resolve("actor", "name").unwrap();
        assert_eq!(
            cache.predicate_nonempty(&["hanks".into()], name),
            Some(true)
        );
        assert_eq!(cache.predicate_nonempty(&["zzz".into()], name), None);
    }

    #[test]
    fn cached_result_not_reused_when_limit_grows() {
        let (db, idx, catalog) = setup();
        let actor = db.schema().table_id("actor").unwrap();
        let tpl = catalog
            .iter()
            .find(|t| t.tree.nodes == vec![actor])
            .unwrap();
        let interp = QueryInterpretation::new(
            tpl.id,
            vec![KeywordBinding {
                keywords: vec!["tom".into()],
                target: BindingTarget::Value {
                    node: 0,
                    attr: db.schema().resolve("actor", "name").unwrap().attr,
                },
            }],
        );
        let mut cache = ExecCache::new();
        let small = ExecOptions {
            limit: 1,
            ..Default::default()
        };
        let r1 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, small, &mut cache).unwrap();
        assert_eq!(r1.len(), 1); // truncated: cached entry hit its limit
        let big = ExecOptions {
            limit: 10,
            ..Default::default()
        };
        let r2 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, big, &mut cache).unwrap();
        assert_eq!(
            cache.result_hits, 0,
            "limited result must not satisfy a larger limit"
        );
        assert_eq!(r2.len(), 2);
        // And now the bigger (complete) result satisfies smaller requests.
        let r3 =
            execute_interpretation_cached(&db, &idx, &catalog, &interp, small, &mut cache).unwrap();
        assert_eq!(cache.result_hits, 1);
        assert_eq!(r3.len(), 2); // cached complete result, caller sees ≥ limit
    }

    #[test]
    fn intersect_sorted_basics() {
        let mut a = vec![RowId(1), RowId(3), RowId(5), RowId(9)];
        intersect_sorted(&mut a, &[RowId(0), RowId(3), RowId(4), RowId(9), RowId(11)]);
        assert_eq!(a, vec![RowId(3), RowId(9)]);
        let mut b: Vec<RowId> = vec![];
        intersect_sorted(&mut b, &[RowId(1)]);
        assert!(b.is_empty());
        let mut c = vec![RowId(2)];
        intersect_sorted(&mut c, &[]);
        assert!(c.is_empty());
    }
}
