//! Execution of join trees (the relational shape of candidate networks).
//!
//! A [`JoinTree`] has one node per table *occurrence* — the same table may
//! appear several times (e.g. a movie with two actors joins `acts` twice) —
//! and tree edges labelled with the foreign key that connects two occurrences.
//!
//! The executor receives, per node, an optional candidate row set (the rows
//! matching that node's keyword predicates, produced by the inverted index).
//! `None` means the node is a *free* table: any row may participate. It
//! returns joining tuple trees (JTTs): one [`RowId`] per node.
//!
//! Two strategies are available (see [`ExecStrategy`]):
//!
//! * **Hash join** (the default): a semi-join reduction pre-pass shrinks
//!   every candidate set to rows that participate in at least one complete
//!   JTT. Free nodes are materialized cheapest-first, expanding outward
//!   from the keyword-given nodes through the pk / fk indexes (never by
//!   scanning a free table), then one bottom-up and one top-down sweep over
//!   the tree — the Yannakakis full reducer — filters every set by sorted
//!   join keys. The fully reduced sets are unique, so the materialization
//!   order changes the work, never the output. Bindings then grow in
//!   *columnar batches* (one
//!   `Vec<RowId>` column per joined node, struct-of-arrays) by build/probe
//!   hash joins along the tree, attaching the most selective node first.
//!   Because the tree is fully reduced, every partial binding is guaranteed
//!   to extend to a result, so [`ExecOptions::limit`] can cut *every* batch,
//!   not just the final one — the executor streams top-`limit` answers
//!   without materializing the full join.
//! * **Naive** nested-loop expansion: the original executor — one
//!   `Vec<Option<RowId>>` per partial binding, cloned on every edge attach —
//!   retained as the correctness oracle for the differential test suite.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::schema::{FkId, ForeignKey, TableId};
use crate::value::RowId;
use std::collections::{HashMap, HashSet};

/// An edge of a join tree: node indexes into [`JoinTree::nodes`] plus the
/// foreign key joining the two table occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTreeEdge {
    pub a: usize,
    pub b: usize,
    pub fk: FkId,
}

/// A tree of table occurrences joined along foreign keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    pub nodes: Vec<TableId>,
    pub edges: Vec<JoinTreeEdge>,
}

impl JoinTree {
    /// A single-table tree.
    pub fn single(table: TableId) -> Self {
        JoinTree {
            nodes: vec![table],
            edges: Vec::new(),
        }
    }

    /// Number of joins (edges).
    pub fn join_count(&self) -> usize {
        self.edges.len()
    }

    /// Check the tree shape: `nodes.len() == edges.len() + 1`, all edge
    /// endpoints valid and connected, and every edge's foreign key actually
    /// joins the two endpoint tables (in either orientation).
    pub fn validate(&self, db: &Database) -> RelResult<()> {
        if self.nodes.is_empty() {
            return Err(RelError::MalformedJoinTree("empty tree".into()));
        }
        if self.edges.len() + 1 != self.nodes.len() {
            return Err(RelError::MalformedJoinTree(format!(
                "{} nodes but {} edges",
                self.nodes.len(),
                self.edges.len()
            )));
        }
        for e in &self.edges {
            if e.a >= self.nodes.len() || e.b >= self.nodes.len() || e.a == e.b {
                return Err(RelError::MalformedJoinTree("bad edge endpoints".into()));
            }
            let fk = db.schema().fk(e.fk);
            let (ta, tb) = (self.nodes[e.a], self.nodes[e.b]);
            let forward = fk.from.table == ta && fk.to.table == tb;
            let backward = fk.from.table == tb && fk.to.table == ta;
            if !forward && !backward {
                return Err(RelError::MalformedJoinTree(
                    "edge fk does not join its endpoints".into(),
                ));
            }
        }
        // Connectivity via union-find over edges.
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for e in &self.edges {
            let (ra, rb) = (find(&mut parent, e.a), find(&mut parent, e.b));
            if ra == rb {
                return Err(RelError::MalformedJoinTree("cycle".into()));
            }
            parent[ra] = rb;
        }
        Ok(())
    }
}

/// Per-node candidate rows. `None` = unrestricted (free table). Candidate
/// lists are expected to be duplicate-free (the inverted index produces
/// sorted, distinct rows); duplicates are tolerated but result multiplicity
/// is then strategy-defined.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    pub per_node: Vec<Option<Vec<RowId>>>,
}

impl Candidates {
    /// All nodes unrestricted.
    pub fn free(n: usize) -> Self {
        Candidates {
            per_node: vec![None; n],
        }
    }

    /// Restrict node `i` to `rows`.
    pub fn restrict(mut self, i: usize, rows: Vec<RowId>) -> Self {
        self.per_node[i] = Some(rows);
        self
    }
}

/// How the executor evaluates the join tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Semi-join reduction + columnar batched hash joins. The default.
    #[default]
    HashJoin,
    /// Per-binding nested-loop expansion — the original executor, retained
    /// as the differential-testing oracle.
    Naive,
}

/// Execution limits and mode.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Stop after this many result tuples.
    pub limit: usize,
    /// Abort if the intermediate binding count exceeds this bound
    /// (protects against free-table blowups).
    pub max_intermediate: usize,
    /// Count matching JTTs (up to `limit`) without materializing them;
    /// [`ExecOutcome::rows`] stays empty and only
    /// [`ExecStats::result_count`] is meaningful.
    pub count_only: bool,
    /// Evaluation strategy.
    pub strategy: ExecStrategy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            limit: 1000,
            max_intermediate: 200_000,
            count_only: false,
            strategy: ExecStrategy::default(),
        }
    }
}

/// Counters describing one execution, for benches and regression assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Edge-attach steps performed (batches built).
    pub batches: usize,
    /// Hash/index probe operations (one per partial binding per edge).
    pub probes: usize,
    /// Partial bindings materialized across all steps, seed included — the
    /// quantity the batched executor minimizes.
    pub intermediate_bindings: usize,
    /// Candidate rows across all nodes before semi-join reduction
    /// (hash-join strategy only). A nominal input size, not work: free
    /// nodes count their full table although the reducer never scans them
    /// — see [`ExecStats::reduce_rows_touched`] for the work done.
    pub semijoin_rows_in: usize,
    /// Candidate rows across all nodes after the bottom-up + top-down
    /// reduction sweeps.
    pub semijoin_rows_out: usize,
    /// Rows the semi-join reducer touched: rows written into materialized
    /// sets, plus source rows whose join keys were extracted, plus target
    /// rows examined by each filter step.
    pub reduce_rows_touched: usize,
    /// Result tuples found (capped at `limit`).
    pub result_count: usize,
    /// Columnar batch materializations: what the pre-arena executor paid
    /// one heap allocation for — the selection vector, the new column, and
    /// every regathered column of every attach step. The arena still does
    /// this work, but into reused backing storage.
    pub batch_cols: usize,
    /// Fresh backing allocations the batch arena performed (capacity
    /// growth events). Reusing one [`BatchArena`] across batches and
    /// executions keeps this O(1) per query instead of O(nodes × batches).
    pub batch_allocs: usize,
    /// Peak bytes of arena backing capacity observed during execution.
    pub arena_bytes_peak: usize,
}

impl ExecStats {
    /// Merge `other` into `self` (for aggregating over many executions).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.batches += other.batches;
        self.probes += other.probes;
        self.intermediate_bindings += other.intermediate_bindings;
        self.semijoin_rows_in += other.semijoin_rows_in;
        self.semijoin_rows_out += other.semijoin_rows_out;
        self.reduce_rows_touched += other.reduce_rows_touched;
        self.result_count += other.result_count;
        self.batch_cols += other.batch_cols;
        self.batch_allocs += other.batch_allocs;
        // A peak, not a flow: aggregation over executions sharing one
        // arena reports the high-water mark, not a meaningless sum.
        self.arena_bytes_peak = self.arena_bytes_peak.max(other.arena_bytes_peak);
    }

    /// Fraction of candidate rows the semi-join pre-pass removed
    /// (0.0 when the pass did not run or removed nothing).
    pub fn semijoin_reduction(&self) -> f64 {
        if self.semijoin_rows_in == 0 {
            return 0.0;
        }
        1.0 - self.semijoin_rows_out as f64 / self.semijoin_rows_in as f64
    }
}

/// One result: a row id per join-tree node (a joining tuple tree).
pub type JoinedRow = Vec<RowId>;

/// A forced join order for the hash-join executor: the seed node plus the
/// edge indexes in attach order. [`plan_join_order`] replicates exactly the
/// choices `ExecStrategy::HashJoin` makes on its own, but from bare
/// cardinalities — so a coordinator can compute one plan from *global*
/// (cross-shard summed) cardinalities and force every shard to execute the
/// same order, keeping a scatter-gather execution bit-identical to a
/// single-store run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Node index the columnar batches are seeded from.
    pub seed: usize,
    /// Edge indexes into [`JoinTree::edges`], in attach order.
    pub attach: Vec<usize>,
}

/// Output of the semi-join reduction pre-pass ([`reduce_join_tree`]): fully
/// materialized, fully reduced per-node row sets, the pre-reduction (given)
/// cardinalities the join planner keys on, and the reduction counters.
/// Unique for given inputs: it does not depend on how the reducer
/// materializes or sweeps.
#[derive(Debug, Clone)]
pub struct ReducedTree {
    /// Per node: the rows that take part in at least one complete JTT. A
    /// given node keeps its candidate list's order (and any duplicates); a
    /// free node's rows are sorted and distinct. If the join has no
    /// results, every set is empty.
    pub sets: Vec<Vec<RowId>>,
    /// Per node: candidate rows *before* reduction (free nodes count their
    /// full table) — the quantity seed selection keys on.
    pub given: Vec<usize>,
    /// `semijoin_rows_in` / `semijoin_rows_out` / `reduce_rows_touched`
    /// for this reduction; the join-phase counters stay zero.
    pub stats: ExecStats,
}

/// Result rows plus execution counters.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Matching JTTs, at most `limit` (empty under `count_only`).
    pub rows: Vec<JoinedRow>,
    pub stats: ExecStats,
}

/// Execute `tree` over `db` with per-node `candidates`; rows only.
pub fn execute_join_tree(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
) -> RelResult<Vec<JoinedRow>> {
    execute_join_tree_with_stats(db, tree, candidates, opts).map(|o| o.rows)
}

/// Execute `tree` over `db` with per-node `candidates`, returning rows and
/// execution counters. Dispatches on [`ExecOptions::strategy`]. Uses a
/// throwaway [`BatchArena`]; repeat executors should hold one and call
/// [`execute_join_tree_with_stats_in`].
pub fn execute_join_tree_with_stats(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
) -> RelResult<ExecOutcome> {
    execute_join_tree_with_stats_in(db, tree, candidates, opts, &mut BatchArena::new())
}

/// [`execute_join_tree_with_stats`] against a caller-held [`BatchArena`]
/// (the naive strategy ignores it).
pub fn execute_join_tree_with_stats_in(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
    arena: &mut BatchArena,
) -> RelResult<ExecOutcome> {
    tree.validate(db)?;
    if candidates.per_node.len() != tree.nodes.len() {
        return Err(RelError::MalformedJoinTree(
            "candidate arity mismatch".into(),
        ));
    }
    match opts.strategy {
        ExecStrategy::HashJoin => execute_hash_join(db, tree, candidates, opts, arena),
        ExecStrategy::Naive => execute_naive(db, tree, candidates, opts),
    }
}

/// The join key of `row` at node `node` under `fk`, where `fk_side` says
/// whether the node holds the referencing column. `None` = null fk value,
/// which joins nothing.
#[inline]
fn join_key(
    db: &Database,
    table: TableId,
    row: RowId,
    fk: &ForeignKey,
    fk_side: bool,
) -> Option<i64> {
    if fk_side {
        db.cell(table, row, fk.from).as_int()
    } else {
        Some(db.pk_value(table, row))
    }
}

/// Whether endpoint `a` of `edge` is the foreign-key (referencing) side.
/// For self-referencing foreign keys both orientations type-check; the `a`
/// side wins deterministically.
fn a_is_fk_side(db: &Database, tree: &JoinTree, edge: &JoinTreeEdge) -> bool {
    let fk = db.schema().fk(edge.fk);
    fk.from.table == tree.nodes[edge.a] && fk.to.table == tree.nodes[edge.b]
}

// ---------------------------------------------------------------------------
// Hash-join strategy: semi-join reduction + columnar batches.
// ---------------------------------------------------------------------------

fn execute_hash_join(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
    arena: &mut BatchArena,
) -> RelResult<ExecOutcome> {
    let reduced = reduce_join_tree(db, tree, candidates)?;
    let mut stats = reduced.stats;
    if reduced.sets.iter().any(Vec::is_empty) {
        return Ok(ExecOutcome {
            rows: Vec::new(),
            stats,
        });
    }
    let sizes: Vec<usize> = reduced.sets.iter().map(Vec::len).collect();
    let plan = plan_join_order(tree, &reduced.given, &sizes);
    let out = execute_reduced_in(db, tree, reduced.sets, &plan, opts, arena)?;
    stats.absorb(&out.stats);
    Ok(ExecOutcome {
        rows: out.rows,
        stats,
    })
}

/// The semi-join reduction pre-pass of the hash-join strategy, exposed on
/// its own so sharded executions can reduce locally, exchange only the
/// resulting cardinalities, and then run [`execute_reduced`] under a plan
/// forced by a coordinator.
///
/// Two phases. **Cheapest-first materialization**: the restricted (given)
/// nodes start materialized; then, repeatedly, the edge from a materialized
/// node `u` to a free node `v` with the smallest estimated size of `v` —
/// `|set u|` when `v` is the pk side, `|set u| × |table v| / |table u|`
/// when `v` references `u` (ties: lowest edge index) — materializes `v`
/// exactly from `u`'s join keys through the pk / fk indexes, sorted and
/// deduplicated. Expansion thus grows outward from the selective side and
/// never scans a free table; only an all-free tree starts from full
/// tables. **One exact sweep**: the Yannakakis full reducer (filter each
/// parent by its children bottom-up, then each child by its parent
/// top-down) over the materialized sets, each step a binary search of the
/// target's join keys in the source's sorted, distinct keys. A step is
/// skipped when it cannot remove anything: its target was already made
/// consistent with (or materialized from) the source's current set. An
/// empty set ends the reduction: no complete JTT exists.
///
/// The output does not depend on the materialization order: a fully
/// reduced node holds exactly its rows that take part in some complete
/// JTT. Given sets are filtered order-preservingly (their order and any
/// duplicates survive) and materialized sets come out sorted, so every
/// exact full reducer returns the same [`ReducedTree`].
pub fn reduce_join_tree(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
) -> RelResult<ReducedTree> {
    tree.validate(db)?;
    if candidates.per_node.len() != tree.nodes.len() {
        return Err(RelError::MalformedJoinTree(
            "candidate arity mismatch".into(),
        ));
    }
    let n = tree.nodes.len();
    let given: Vec<usize> = (0..n)
        .map(|i| match &candidates.per_node[i] {
            Some(rows) => rows.len(),
            None => db.table(tree.nodes[i]).len(),
        })
        .collect();
    let mut r = Reducer {
        db,
        tree,
        a_fk: tree
            .edges
            .iter()
            .map(|e| a_is_fk_side(db, tree, e))
            .collect(),
        version: vec![0; n],
        synced: vec![None; 2 * tree.edges.len()],
        touched: 0,
    };
    let mut sets = candidates.per_node.clone();
    if sets.iter().all(Option::is_none) {
        // Nothing selective to expand from.
        for (i, s) in sets.iter_mut().enumerate() {
            let rows: Vec<RowId> = db.table(tree.nodes[i]).rows().map(|(r, _)| r).collect();
            r.touched += rows.len();
            *s = Some(rows);
        }
    }
    while !sets.iter().flatten().any(Vec::is_empty) {
        let Some((ei, u, v)) = r.cheapest_free_edge(&sets) else {
            break;
        };
        let rows = r.materialize(sets[u].as_deref().expect("materialized"), ei, u, v);
        sets[v] = Some(rows);
    }
    // The tree is connected (validated), so expansion reaches every node
    // unless it stopped at an empty set.
    let mut sets: Vec<Vec<RowId>> = sets.into_iter().map(Option::unwrap_or_default).collect();
    if !sets.iter().any(Vec::is_empty) {
        let (order, parent_edge) = bfs_order(tree, &given);
        let steps = order.iter().skip(1).rev().map(|&v| (v, true));
        let steps = steps.chain(order.iter().skip(1).map(|&v| (v, false)));
        for (v, bottom_up) in steps {
            let ei = parent_edge[v].expect("non-root");
            let e = &tree.edges[ei];
            let parent = if e.a == v { e.b } else { e.a };
            let (target, source) = if bottom_up { (parent, v) } else { (v, parent) };
            if r.filter(&mut sets, target, source, ei) {
                break;
            }
        }
    }
    if sets.iter().any(Vec::is_empty) {
        sets.iter_mut().for_each(Vec::clear);
    }
    let stats = ExecStats {
        semijoin_rows_in: given.iter().sum(),
        semijoin_rows_out: sets.iter().map(Vec::len).sum(),
        reduce_rows_touched: r.touched,
        ..ExecStats::default()
    };
    Ok(ReducedTree { sets, given, stats })
}

/// Working state of [`reduce_join_tree`].
struct Reducer<'a> {
    db: &'a Database,
    tree: &'a JoinTree,
    /// Per edge: whether endpoint `a` holds the referencing (fk) column.
    a_fk: Vec<bool>,
    /// Per node: how many times its set shrank.
    version: Vec<usize>,
    /// Per directed edge (`2 × edge + (target is b)`): the source version
    /// the target was last made consistent with.
    synced: Vec<Option<usize>>,
    /// [`ExecStats::reduce_rows_touched`] so far.
    touched: usize,
}

impl Reducer<'_> {
    /// Whether node `x` holds the referencing column of edge `ei`.
    fn fk_side(&self, ei: usize, x: usize) -> bool {
        (self.tree.edges[ei].a == x) == self.a_fk[ei]
    }

    /// Index of the directed edge `ei` into `target`.
    fn dir(&self, ei: usize, target: usize) -> usize {
        2 * ei + usize::from(self.tree.edges[ei].b == target)
    }

    /// The sorted, distinct join keys of node `x`'s `rows` under edge `ei`.
    fn keys(&mut self, rows: &[RowId], ei: usize, x: usize) -> Vec<i64> {
        self.touched += rows.len();
        let fk = self.db.schema().fk(self.tree.edges[ei].fk);
        let x_fk = self.fk_side(ei, x);
        let mut keys: Vec<i64> = rows
            .iter()
            .filter_map(|&r| join_key(self.db, self.tree.nodes[x], r, fk, x_fk))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Among edges from a materialized node `u` to a free node `v`, the one
    /// with the smallest estimated `|v|` (lowest edge index on ties), as
    /// `(edge, u, v)`.
    fn cheapest_free_edge(&self, sets: &[Option<Vec<RowId>>]) -> Option<(usize, usize, usize)> {
        let table_len = |i: usize| self.db.table(self.tree.nodes[i]).len() as u128;
        let mut best: Option<(u128, usize, usize, usize)> = None;
        for (ei, e) in self.tree.edges.iter().enumerate() {
            let (u, v, su) = match (&sets[e.a], &sets[e.b]) {
                (Some(rows), None) => (e.a, e.b, rows.len() as u128),
                (None, Some(rows)) => (e.b, e.a, rows.len() as u128),
                _ => continue,
            };
            let est = if self.fk_side(ei, v) {
                su * table_len(v) / table_len(u).max(1)
            } else {
                su
            };
            if best.is_none_or(|(b, ..)| est < b) {
                best = Some((est, ei, u, v));
            }
        }
        best.map(|(_, ei, u, v)| (ei, u, v))
    }

    /// Node `v`'s rows that join some row of `src` (node `u`'s set) along
    /// edge `ei`, sorted and distinct, looked up through the pk / fk
    /// indexes.
    fn materialize(&mut self, src: &[RowId], ei: usize, u: usize, v: usize) -> Vec<RowId> {
        let keys = self.keys(src, ei, u);
        let fk = self.tree.edges[ei].fk;
        let mut rows: Vec<RowId> = if self.fk_side(ei, v) {
            keys.iter()
                .flat_map(|&k| self.db.fk_referrers(fk, k))
                .copied()
                .collect()
        } else {
            let table = self.db.table(self.tree.nodes[v]);
            keys.iter().filter_map(|&k| table.by_pk(k)).collect()
        };
        self.touched += rows.len();
        rows.sort_unstable();
        rows.dedup();
        let d = self.dir(ei, v);
        self.synced[d] = Some(self.version[u]);
        rows
    }

    /// Semi-join `sets[target]` by `sets[source]` along edge `ei`, in
    /// place and order-preserving. Returns whether the target is empty.
    fn filter(&mut self, sets: &mut [Vec<RowId>], target: usize, source: usize, ei: usize) -> bool {
        let d = self.dir(ei, target);
        if self.synced[d] == Some(self.version[source]) {
            return false;
        }
        let keys = self.keys(&sets[source], ei, source);
        let fk = self.db.schema().fk(self.tree.edges[ei].fk);
        let (table, t_fk) = (self.tree.nodes[target], self.fk_side(ei, target));
        let rows = &mut sets[target];
        let before = rows.len();
        self.touched += before;
        rows.retain(|&r| {
            join_key(self.db, table, r, fk, t_fk).is_some_and(|k| keys.binary_search(&k).is_ok())
        });
        if rows.len() < before {
            // The dropped rows had no partner in the source, so a source
            // consistent with the target stays consistent.
            let back = self.dir(ei, source);
            let was_synced = self.synced[back] == Some(self.version[target]);
            self.version[target] += 1;
            if was_synced {
                self.synced[back] = Some(self.version[target]);
            }
        }
        self.synced[d] = Some(self.version[source]);
        rows.is_empty()
    }
}

/// BFS order of `tree` rooted at its most selective given node (first on
/// ties), with the edge to its parent for every non-root node.
fn bfs_order(tree: &JoinTree, given: &[usize]) -> (Vec<usize>, Vec<Option<usize>>) {
    let n = tree.nodes.len();
    let root = (0..n).min_by_key(|&i| given[i]).expect("non-empty");
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge idx, neighbor)
    for (ei, e) in tree.edges.iter().enumerate() {
        adj[e.a].push((ei, e.b));
        adj[e.b].push((ei, e.a));
    }
    let mut order = Vec::with_capacity(n);
    let mut parent_edge = vec![None; n];
    let mut seen = vec![false; n];
    order.push(root);
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(ei, v) in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent_edge[v] = Some(ei);
                order.push(v);
            }
        }
    }
    (order, parent_edge)
}

/// Replicate the hash-join executor's order choices from per-node *given*
/// cardinalities (pre-reduction) and reduced set sizes: the seed is the
/// first node with minimal given cardinality, then the edge whose new node
/// has the smallest reduced set is attached, the live edge list evolving by
/// `swap_remove` exactly as in execution — so ties break identically.
pub fn plan_join_order(tree: &JoinTree, given: &[usize], reduced: &[usize]) -> JoinPlan {
    let n = tree.nodes.len();
    let seed = (0..n).min_by_key(|&i| given[i]).expect("non-empty");
    let mut joined = vec![false; n];
    joined[seed] = true;
    let mut remaining: Vec<usize> = (0..tree.edges.len()).collect();
    let mut attach = Vec::with_capacity(tree.edges.len());
    while !remaining.is_empty() {
        let (pos, &ei) = remaining
            .iter()
            .enumerate()
            .filter(|(_, &ei)| {
                let e = &tree.edges[ei];
                joined[e.a] != joined[e.b]
            })
            .min_by_key(|(_, &ei)| {
                let e = &tree.edges[ei];
                let new = if joined[e.a] { e.b } else { e.a };
                reduced[new]
            })
            .expect("connected tree always has an attachable edge");
        remaining.swap_remove(pos);
        let e = &tree.edges[ei];
        let new = if joined[e.a] { e.b } else { e.a };
        joined[new] = true;
        attach.push(ei);
    }
    JoinPlan { seed, attach }
}

/// Reusable backing store for the executor's columnar binding batches.
///
/// The pre-arena executor allocated one `Vec<RowId>` per joined node per
/// attach step (the regather), plus a selection vector and the new column —
/// O(nodes × batches) heap allocations per query. The arena keeps all
/// columns in one flat `Vec<RowId>` (per-node spans of equal length, in
/// join order) plus a ping-pong buffer for the regather, *reset but never
/// freed* between batches — and, when one arena is threaded through a
/// pipeline via the executor cache, between waves and executions too.
/// [`ExecStats::batch_allocs`] counts the capacity-growth events that
/// remain; [`ExecStats::arena_bytes_peak`] records the high-water mark.
#[derive(Debug, Default)]
pub struct BatchArena {
    /// Current batch: `slot` spans of `batch_len` rows each, join order.
    front: Vec<RowId>,
    /// Regather target, swapped with `front` after each attach step.
    back: Vec<RowId>,
    /// Probe selection indexes into the previous batch.
    sel: Vec<u32>,
    /// The attach step's new column, staged before the regather.
    newcol: Vec<RowId>,
    /// Cumulative capacity-growth events over the arena's lifetime.
    allocs: usize,
}

impl BatchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of backing capacity currently held.
    fn bytes(&self) -> usize {
        (self.front.capacity() + self.back.capacity() + self.newcol.capacity())
            * std::mem::size_of::<RowId>()
            + self.sel.capacity() * std::mem::size_of::<u32>()
    }
}

/// Floor on any fresh arena reservation: a cold buffer jumps straight to a
/// useful capacity (4 KiB of `RowId`s) instead of logging several growth
/// events while the first small batches warm it.
const ARENA_MIN_RESERVE: usize = 1024;

/// Reserve `additional` headroom in `v`, counting a capacity growth.
fn arena_reserve<T>(v: &mut Vec<T>, additional: usize, allocs: &mut usize) {
    let before = v.capacity();
    if v.len() + additional <= before {
        return;
    }
    v.reserve(additional.max(ARENA_MIN_RESERVE));
    if v.capacity() != before {
        *allocs += 1;
    }
}

/// The join phase of the hash-join strategy over already-reduced sets,
/// following a [`JoinPlan`] instead of choosing its own order. With the plan
/// produced by [`plan_join_order`] on this store's own cardinalities this is
/// bit-identical to `ExecStrategy::HashJoin`; under a coordinator-forced
/// plan every participating store joins in the same order.
///
/// Convenience wrapper over [`execute_reduced_in`] with a throwaway arena;
/// callers executing more than once should hold a [`BatchArena`] and reuse
/// it.
pub fn execute_reduced(
    db: &Database,
    tree: &JoinTree,
    sets: Vec<Vec<RowId>>,
    plan: &JoinPlan,
    opts: ExecOptions,
) -> RelResult<ExecOutcome> {
    execute_reduced_in(db, tree, sets, plan, opts, &mut BatchArena::new())
}

/// [`execute_reduced`] against a caller-held [`BatchArena`].
///
/// Columnar binding batches: one column span per joined node, all of equal
/// length, living in the arena. Full reduction guarantees every partial
/// binding extends to at least one distinct result, so each batch can be
/// truncated to `limit`. Row output is byte-identical to the historical
/// per-`Vec` executor — the arena changes where the columns live, never
/// their contents or order.
pub fn execute_reduced_in(
    db: &Database,
    tree: &JoinTree,
    sets: Vec<Vec<RowId>>,
    plan: &JoinPlan,
    opts: ExecOptions,
    arena: &mut BatchArena,
) -> RelResult<ExecOutcome> {
    let n = tree.nodes.len();
    let mut stats = ExecStats::default();
    let allocs_before = arena.allocs;
    if sets.iter().any(Vec::is_empty) {
        return Ok(ExecOutcome {
            rows: Vec::new(),
            stats,
        });
    }
    let cap = opts.limit;
    // Node -> column span index (in join order) inside the arena.
    let mut slot: Vec<Option<usize>> = vec![None; n];
    let seed_set = &sets[plan.seed];
    let mut batch_len = seed_set.len().min(cap);
    arena.front.clear();
    arena_reserve(&mut arena.front, batch_len, &mut arena.allocs);
    arena.front.extend_from_slice(&seed_set[..batch_len]);
    stats.intermediate_bindings += batch_len;
    slot[plan.seed] = Some(0);
    let mut joined = vec![false; n];
    joined[plan.seed] = true;
    let mut joined_cols = 1usize;

    for &ei in &plan.attach {
        let edge = tree.edges[ei];
        debug_assert!(
            joined[edge.a] != joined[edge.b],
            "plan attaches a non-attachable edge"
        );
        let (known, new) = if joined[edge.a] {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        joined[new] = true;
        let a_fk = a_is_fk_side(db, tree, &edge);
        let known_fk = (edge.a == known) == a_fk;
        let fk = *db.schema().fk(edge.fk);
        let known_table = tree.nodes[known];
        let new_table = tree.nodes[new];

        // Build a hash table over the new node's reduced candidates, keyed
        // by join key. The pk side has unique keys; the fk side may not.
        let new_set = &sets[new];
        let mut build: HashMap<i64, Vec<RowId>> = HashMap::with_capacity(new_set.len());
        for &r in new_set {
            if let Some(k) = join_key(db, new_table, r, &fk, !known_fk) {
                build.entry(k).or_default().push(r);
            }
        }

        // Probe with every current partial binding; `sel` gathers the
        // batch. Disjoint-field borrows: the known column is a span of
        // `front`, the staging buffers are `sel`/`newcol`.
        let BatchArena {
            front,
            back,
            sel,
            newcol,
            allocs,
        } = &mut *arena;
        let ks = slot[known].expect("joined nodes have columns");
        let known_col = &front[ks * batch_len..(ks + 1) * batch_len];
        sel.clear();
        newcol.clear();
        arena_reserve(sel, batch_len, allocs);
        arena_reserve(newcol, batch_len, allocs);
        'probe: for (bi, &krow) in known_col.iter().enumerate() {
            stats.probes += 1;
            let Some(key) = join_key(db, known_table, krow, &fk, known_fk) else {
                continue;
            };
            let Some(matches) = build.get(&key) else {
                continue;
            };
            for &m in matches {
                if newcol.len() >= opts.max_intermediate {
                    return Err(RelError::MalformedJoinTree(
                        "intermediate result exceeds max_intermediate".into(),
                    ));
                }
                sel.push(bi as u32);
                newcol.push(m);
                if newcol.len() >= cap {
                    break 'probe;
                }
            }
        }
        stats.batches += 1;
        stats.intermediate_bindings += newcol.len();
        // One logical column materialization per regathered span + the new
        // column + the selection vector: exactly the per-step allocation
        // count of the pre-arena executor.
        stats.batch_cols += joined_cols + 2;
        let new_len = newcol.len();

        // Regather every existing column through `sel` into the back
        // buffer, append the new column as the next span, and flip.
        back.clear();
        arena_reserve(back, (joined_cols + 1) * new_len, allocs);
        for c in 0..joined_cols {
            let span = &front[c * batch_len..(c + 1) * batch_len];
            back.extend(sel.iter().map(|&i| span[i as usize]));
        }
        back.extend_from_slice(newcol);
        std::mem::swap(front, back);
        slot[new] = Some(joined_cols);
        joined_cols += 1;
        batch_len = new_len;
        stats.arena_bytes_peak = stats.arena_bytes_peak.max(arena.bytes());
        if batch_len == 0 {
            stats.batch_allocs += arena.allocs - allocs_before;
            return Ok(ExecOutcome {
                rows: Vec::new(),
                stats,
            });
        }
    }

    stats.result_count = batch_len;
    stats.arena_bytes_peak = stats.arena_bytes_peak.max(arena.bytes());
    stats.batch_allocs += arena.allocs - allocs_before;
    let rows = if opts.count_only {
        Vec::new()
    } else {
        (0..batch_len)
            .map(|i| {
                (0..n)
                    .map(|node| {
                        let c = slot[node].expect("all joined");
                        arena.front[c * batch_len + i]
                    })
                    .collect()
            })
            .collect()
    };
    Ok(ExecOutcome { rows, stats })
}

// ---------------------------------------------------------------------------
// Naive strategy: the original per-binding expansion, kept as the oracle.
// ---------------------------------------------------------------------------

fn execute_naive(
    db: &Database,
    tree: &JoinTree,
    candidates: &Candidates,
    opts: ExecOptions,
) -> RelResult<ExecOutcome> {
    let n = tree.nodes.len();
    let mut stats = ExecStats::default();
    // Estimated cardinality per node, used to order the join.
    let node_card = |i: usize| -> usize {
        match &candidates.per_node[i] {
            Some(rows) => rows.len(),
            None => db.table(tree.nodes[i]).len(),
        }
    };

    // Seed: the most selective node.
    let seed = (0..n).min_by_key(|&i| node_card(i)).expect("non-empty");

    // Partial bindings: each is a Vec<Option<RowId>> indexed by node.
    let mut bindings: Vec<Vec<Option<RowId>>> = Vec::new();
    let seed_rows: Vec<RowId> = match &candidates.per_node[seed] {
        Some(rows) => rows.clone(),
        None => db.table(tree.nodes[seed]).rows().map(|(r, _)| r).collect(),
    };
    for r in seed_rows {
        let mut b = vec![None; n];
        b[seed] = Some(r);
        bindings.push(b);
    }
    stats.intermediate_bindings += bindings.len();

    let cand_sets: Vec<Option<HashSet<RowId>>> = candidates
        .per_node
        .iter()
        .map(|c| c.as_ref().map(|rows| rows.iter().copied().collect()))
        .collect();

    let mut joined = vec![false; n];
    joined[seed] = true;
    let mut remaining_edges: Vec<JoinTreeEdge> = tree.edges.clone();

    while !remaining_edges.is_empty() {
        // Choose the attachable edge whose new node is cheapest.
        let pos = remaining_edges
            .iter()
            .position(|e| joined[e.a] != joined[e.b])
            .ok_or_else(|| RelError::MalformedJoinTree("disconnected tree".into()))?;
        let best = remaining_edges
            .iter()
            .enumerate()
            .filter(|(_, e)| joined[e.a] != joined[e.b])
            .min_by_key(|(_, e)| {
                let new = if joined[e.a] { e.b } else { e.a };
                node_card(new)
            })
            .map(|(i, _)| i)
            .unwrap_or(pos);
        let edge = remaining_edges.swap_remove(best);
        let (known, new) = if joined[edge.a] {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        joined[new] = true;

        let fk = *db.schema().fk(edge.fk);
        let known_table = tree.nodes[known];
        let new_table = tree.nodes[new];
        // Forward: known node holds the fk column, probe parent's pk index.
        // Orientation comes from the shared per-edge helper so both
        // strategies agree even on self-referencing foreign keys.
        let forward = (edge.a == known) == a_is_fk_side(db, tree, &edge);

        let mut next: Vec<Vec<Option<RowId>>> = Vec::with_capacity(bindings.len());
        for b in &bindings {
            let known_row = b[known].expect("joined nodes are bound");
            stats.probes += 1;
            if forward {
                let key = db.cell(known_table, known_row, fk.from);
                let Some(key) = key.as_int() else { continue };
                let Some(parent) = db.table(new_table).by_pk(key) else {
                    continue;
                };
                if let Some(set) = &cand_sets[new] {
                    if !set.contains(&parent) {
                        continue;
                    }
                }
                let mut nb = b.clone();
                nb[new] = Some(parent);
                next.push(nb);
            } else {
                // Backward: new node holds the fk column referencing known's pk.
                let key = db.pk_value(known_table, known_row);
                for &child in db.fk_referrers(edge.fk, key) {
                    if let Some(set) = &cand_sets[new] {
                        if !set.contains(&child) {
                            continue;
                        }
                    }
                    let mut nb = b.clone();
                    nb[new] = Some(child);
                    next.push(nb);
                }
            }
            if next.len() > opts.max_intermediate {
                return Err(RelError::MalformedJoinTree(
                    "intermediate result exceeds max_intermediate".into(),
                ));
            }
        }
        stats.batches += 1;
        stats.intermediate_bindings += next.len();
        bindings = next;
        if bindings.is_empty() {
            return Ok(ExecOutcome {
                rows: Vec::new(),
                stats,
            });
        }
    }

    stats.result_count = bindings.len().min(opts.limit);
    let rows = if opts.count_only {
        Vec::new()
    } else {
        bindings
            .into_iter()
            .take(opts.limit)
            .map(|b| b.into_iter().map(|r| r.expect("all nodes bound")).collect())
            .collect()
    };
    Ok(ExecOutcome { rows, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SchemaBuilder, TableKind};
    use crate::value::Value;

    /// actor(id,name) <- acts(id,actor_id,movie_id) -> movie(id,title,year)
    fn movie_db() -> Database {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity)
            .pk("id")
            .text_attr("name");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .text_attr("title")
            .int_attr("year");
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
        for (id, name) in [(1, "Tom Hanks"), (2, "Tom Cruise"), (3, "Meg Ryan")] {
            db.insert(actor, vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        for (id, title, year) in [
            (10, "The Terminal", 2004),
            (11, "Top Gun", 1986),
            (12, "Joe vs the Volcano", 1990),
        ] {
            db.insert(
                movie,
                vec![Value::Int(id), Value::text(title), Value::Int(year)],
            )
            .unwrap();
        }
        // Hanks in Terminal & Volcano, Cruise in Top Gun, Ryan in Volcano.
        for (id, a, m) in [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 12)] {
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    fn actor_acts_movie_tree(db: &Database) -> JoinTree {
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
        let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
        JoinTree {
            nodes: vec![actor, acts, movie],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
            ],
        }
    }

    fn naive_opts() -> ExecOptions {
        ExecOptions {
            strategy: ExecStrategy::Naive,
            ..Default::default()
        }
    }

    /// Sorted copies, for multiset comparison between strategies.
    fn sorted(mut rows: Vec<JoinedRow>) -> Vec<JoinedRow> {
        rows.sort();
        rows
    }

    #[test]
    fn full_join_unrestricted() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &Candidates::free(3), opts).unwrap();
            assert_eq!(rows.len(), 4); // one JTT per acts row
        }
    }

    #[test]
    fn restricted_join() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let cands = Candidates::free(3).restrict(0, vec![hanks]);
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &cands, opts).unwrap();
            assert_eq!(rows.len(), 2); // Terminal + Volcano
            for r in &rows {
                assert_eq!(r[0], hanks);
            }
        }
    }

    #[test]
    fn doubly_restricted_join() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let terminal = db.table(movie).by_pk(10).unwrap();
        let cands = Candidates::free(3)
            .restrict(0, vec![hanks])
            .restrict(2, vec![terminal]);
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &cands, opts).unwrap();
            assert_eq!(rows.len(), 1);
        }
    }

    #[test]
    fn empty_candidates_empty_result() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let cands = Candidates::free(3).restrict(0, vec![]);
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &cands, opts).unwrap();
            assert!(rows.is_empty());
        }
    }

    #[test]
    fn self_join_two_actors() {
        // actor - acts - movie - acts - actor: movies with two named actors.
        let db = movie_db();
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let movie = s.table_id("movie").unwrap();
        let acts = s.table_id("acts").unwrap();
        let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
        let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
        let tree = JoinTree {
            nodes: vec![actor, acts, movie, acts, actor],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 3,
                    b: 4,
                    fk: fk_actor,
                },
            ],
        };
        let hanks = db.table(actor).by_pk(1).unwrap();
        let ryan = db.table(actor).by_pk(3).unwrap();
        let cands = Candidates::free(5)
            .restrict(0, vec![hanks])
            .restrict(4, vec![ryan]);
        let volcano = db.table(movie).by_pk(12).unwrap();
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &cands, opts).unwrap();
            assert_eq!(rows.len(), 1); // Joe vs the Volcano
            assert_eq!(rows[0][2], volcano);
        }
    }

    #[test]
    fn limit_respected() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        for strategy in [ExecStrategy::HashJoin, ExecStrategy::Naive] {
            let opts = ExecOptions {
                limit: 2,
                strategy,
                ..Default::default()
            };
            let rows = execute_join_tree(&db, &tree, &Candidates::free(3), opts).unwrap();
            assert_eq!(rows.len(), 2);
        }
    }

    #[test]
    fn strategies_agree_on_multisets() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let toms: Vec<RowId> = [1, 2]
            .iter()
            .map(|&pk| db.table(actor).by_pk(pk).unwrap())
            .collect();
        let cases = [
            Candidates::free(3),
            Candidates::free(3).restrict(0, toms.clone()),
            Candidates::free(3).restrict(0, toms).restrict(2, vec![]),
        ];
        let big = |strategy| ExecOptions {
            limit: usize::MAX,
            strategy,
            ..Default::default()
        };
        for cands in &cases {
            let hj = execute_join_tree(&db, &tree, cands, big(ExecStrategy::HashJoin)).unwrap();
            let nv = execute_join_tree(&db, &tree, cands, big(ExecStrategy::Naive)).unwrap();
            assert_eq!(sorted(hj), sorted(nv));
        }
    }

    #[test]
    fn self_referencing_fk_strategies_agree() {
        // employee.manager_id -> employee: both edge orientations type-check,
        // so the executor must pick one deterministically (node `a` = fk
        // side) and both strategies must implement the same choice.
        let mut b = SchemaBuilder::new();
        b.table("employee", TableKind::Entity)
            .pk("id")
            .text_attr("name")
            .int_attr("manager_id");
        b.foreign_key("employee", "manager_id", "employee").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let emp = db.schema().table_id("employee").unwrap();
        // 2 and 4 report to 1; 3 reports to 2.
        for (id, name, mgr) in [
            (1, "root", Value::Null),
            (2, "a", Value::Int(1)),
            (3, "b", Value::Int(2)),
            (4, "c", Value::Int(1)),
        ] {
            db.insert(emp, vec![Value::Int(id), Value::text(name), mgr])
                .unwrap();
        }
        db.validate().unwrap();
        let fk0 = db.schema().fks().next().unwrap().0;
        let tree = JoinTree {
            nodes: vec![emp, emp],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 1,
                fk: fk0,
            }],
        };
        let r3 = db.table(emp).by_pk(3).unwrap();
        let r1 = db.table(emp).by_pk(1).unwrap();
        // Vary selectivity so the naive seed lands on either endpoint.
        let cases = [
            Candidates::free(2),
            Candidates::free(2).restrict(0, vec![r3]),
            Candidates::free(2).restrict(1, vec![r1]),
        ];
        let big = |strategy| ExecOptions {
            limit: usize::MAX,
            strategy,
            ..Default::default()
        };
        for cands in &cases {
            let hj = execute_join_tree(&db, &tree, cands, big(ExecStrategy::HashJoin)).unwrap();
            let nv = execute_join_tree(&db, &tree, cands, big(ExecStrategy::Naive)).unwrap();
            assert_eq!(sorted(hj.clone()), sorted(nv));
            // Node 0 is the fk (reporting) side: every result pairs an
            // employee with their manager.
            for row in &hj {
                let mgr = db.cell(emp, row[0], db.schema().fk(fk0).from).as_int();
                assert_eq!(mgr, Some(db.pk_value(emp, row[1])));
            }
        }
    }

    #[test]
    fn count_only_counts_without_rows() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let opts = ExecOptions {
            count_only: true,
            ..Default::default()
        };
        let out = execute_join_tree_with_stats(&db, &tree, &Candidates::free(3), opts).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.stats.result_count, 4);
    }

    #[test]
    fn semijoin_prunes_dead_bindings() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let actor = db.schema().table_id("actor").unwrap();
        let movie = db.schema().table_id("movie").unwrap();
        let hanks = db.table(actor).by_pk(1).unwrap();
        let terminal = db.table(movie).by_pk(10).unwrap();
        let cands = Candidates::free(3)
            .restrict(0, vec![hanks])
            .restrict(2, vec![terminal]);
        let hj = execute_join_tree_with_stats(&db, &tree, &cands, ExecOptions::default()).unwrap();
        let nv = execute_join_tree_with_stats(&db, &tree, &cands, naive_opts()).unwrap();
        assert_eq!(hj.stats.result_count, nv.stats.result_count);
        // The reducer must strip the acts rows that don't reach Terminal.
        assert!(hj.stats.semijoin_rows_out < hj.stats.semijoin_rows_in);
        assert!(
            hj.stats.intermediate_bindings <= nv.stats.intermediate_bindings,
            "hash join materialized more: {} vs {}",
            hj.stats.intermediate_bindings,
            nv.stats.intermediate_bindings
        );
        assert!((0.0..=1.0).contains(&hj.stats.semijoin_reduction()));
    }

    /// actor(1) – acts – movie – genre – movie(N): a selective actor and a
    /// keyword-matched movie list joined through a high-fan-out genre. The
    /// free movie and acts tables are over 20x larger than the given sets.
    #[test]
    fn reduction_expands_from_the_selective_side() {
        let mut b = SchemaBuilder::new();
        b.table("actor", TableKind::Entity).pk("id");
        b.table("genre", TableKind::Entity).pk("id");
        b.table("movie", TableKind::Entity)
            .pk("id")
            .int_attr("genre_id");
        b.table("acts", TableKind::Relation)
            .pk("id")
            .int_attr("actor_id")
            .int_attr("movie_id");
        b.foreign_key("movie", "genre_id", "genre").unwrap();
        b.foreign_key("acts", "actor_id", "actor").unwrap();
        b.foreign_key("acts", "movie_id", "movie").unwrap();
        let mut db = Database::new(b.finish().unwrap());
        let s = db.schema();
        let [actor, genre, movie, acts] =
            ["actor", "genre", "movie", "acts"].map(|t| s.table_id(t).unwrap());
        let fk = |from, to| {
            s.fks()
                .find(|(_, f)| f.from.table == from && f.to.table == to)
        };
        let fk_genre = fk(movie, genre).unwrap().0;
        let fk_actor = fk(acts, actor).unwrap().0;
        let fk_movie = fk(acts, movie).unwrap().0;
        for id in 0..200 {
            db.insert(actor, vec![Value::Int(id)]).unwrap();
        }
        for id in 0..4 {
            db.insert(genre, vec![Value::Int(id)]).unwrap();
        }
        for id in 0..400 {
            db.insert(movie, vec![Value::Int(id), Value::Int(id % 4)])
                .unwrap();
        }
        // Three cast members per movie.
        for id in 0..1200 {
            let (a, m) = (id % 200, id / 3);
            db.insert(acts, vec![Value::Int(id), Value::Int(a), Value::Int(m)])
                .unwrap();
        }
        db.validate().unwrap();
        let tree = JoinTree {
            nodes: vec![actor, acts, movie, genre, movie],
            edges: vec![
                JoinTreeEdge {
                    a: 1,
                    b: 0,
                    fk: fk_actor,
                },
                JoinTreeEdge {
                    a: 1,
                    b: 2,
                    fk: fk_movie,
                },
                JoinTreeEdge {
                    a: 2,
                    b: 3,
                    fk: fk_genre,
                },
                JoinTreeEdge {
                    a: 4,
                    b: 3,
                    fk: fk_genre,
                },
            ],
        };
        // One actor; ten matched movies spanning every genre.
        let given_actor = vec![db.table(actor).by_pk(7).unwrap()];
        let given_movies: Vec<RowId> = (100..110)
            .map(|pk| db.table(movie).by_pk(pk).unwrap())
            .collect();
        let given_rows = given_actor.len() + given_movies.len();
        assert!(db.table(movie).len() >= 20 * given_rows);
        assert!(db.table(acts).len() >= 20 * given_rows);
        let cands = Candidates::free(5)
            .restrict(0, given_actor)
            .restrict(4, given_movies);
        let reduced = reduce_join_tree(&db, &tree, &cands).unwrap();
        let stats = reduced.stats;
        assert!(stats.semijoin_rows_out > 0);
        assert!(
            stats.reduce_rows_touched <= 8 * (given_rows + stats.semijoin_rows_out),
            "reducer touched {} rows for {} given and {} kept",
            stats.reduce_rows_touched,
            given_rows,
            stats.semijoin_rows_out
        );
        let big = |strategy| ExecOptions {
            limit: usize::MAX,
            strategy,
            ..Default::default()
        };
        let hj = execute_join_tree(&db, &tree, &cands, big(ExecStrategy::HashJoin)).unwrap();
        let nv = execute_join_tree(&db, &tree, &cands, big(ExecStrategy::Naive)).unwrap();
        assert!(!hj.is_empty());
        assert_eq!(sorted(hj), sorted(nv));
    }

    #[test]
    fn early_termination_caps_every_batch() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let opts = ExecOptions {
            limit: 1,
            ..Default::default()
        };
        let out = execute_join_tree_with_stats(&db, &tree, &Candidates::free(3), opts).unwrap();
        assert_eq!(out.rows.len(), 1);
        // With limit 1 no batch ever holds more than one binding:
        // seed + one per attach step.
        assert!(out.stats.intermediate_bindings <= 1 + tree.join_count());
    }

    #[test]
    fn malformed_trees_rejected() {
        let db = movie_db();
        let s = db.schema();
        let actor = s.table_id("actor").unwrap();
        let fk0 = s.fks().next().unwrap().0;
        // Empty.
        let t = JoinTree {
            nodes: vec![],
            edges: vec![],
        };
        assert!(t.validate(&db).is_err());
        // Edge count mismatch.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![],
        };
        assert!(t.validate(&db).is_err());
        // Self edge.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 0,
                fk: fk0,
            }],
        };
        assert!(t.validate(&db).is_err());
        // FK does not join endpoints.
        let t = JoinTree {
            nodes: vec![actor, actor],
            edges: vec![JoinTreeEdge {
                a: 0,
                b: 1,
                fk: fk0,
            }],
        };
        assert!(t.validate(&db).is_err());
    }

    #[test]
    fn candidate_arity_checked() {
        let db = movie_db();
        let tree = actor_acts_movie_tree(&db);
        let err = execute_join_tree(&db, &tree, &Candidates::free(2), ExecOptions::default())
            .unwrap_err();
        assert!(matches!(err, RelError::MalformedJoinTree(_)));
    }

    #[test]
    fn single_node_tree() {
        let db = movie_db();
        let movie = db.schema().table_id("movie").unwrap();
        let tree = JoinTree::single(movie);
        for opts in [ExecOptions::default(), naive_opts()] {
            let rows = execute_join_tree(&db, &tree, &Candidates::free(1), opts).unwrap();
            assert_eq!(rows.len(), 3);
        }
        assert_eq!(tree.join_count(), 0);
    }
}
