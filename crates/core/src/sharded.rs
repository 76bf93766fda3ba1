//! Sharded scatter-gather serving — the same [`ServeRequests`] surface as
//! the single-shard [`crate::SearchService`], over K FK-closed partitions.
//!
//! ## Architecture
//!
//! Rows are partitioned across K shards by [`assign_shards`]: whole
//! foreign-key components land on one shard, so every join tree an
//! interpretation can execute stays *within* a shard and the global result
//! set is the disjoint union of the per-shard result sets. Each shard owns
//! its own [`Database`], its own local [`InvertedIndex`], its own
//! [`SharedExecCache`] generation, and its own [`SnapshotEpoch`] chain — an
//! ingest touching shards {i, j} republishes only those two shards; every
//! other shard keeps its `Arc`'d state *and* its warm caches.
//!
//! The coordinator keeps what sharding cannot split:
//!
//! - the **global inverted index** (generation must see global term
//!   statistics to rank interpretations byte-identically to one store),
//! - the **pk maps** (global `RowId` → primary key per table, the
//!   [`PkLookup`] result keys are minted through without a global database),
//! - the global [`SharedNonemptyCache`] / result-level [`SharedExecCache`]
//!   generations (swapped on every ingest, like the single-shard service).
//!
//! ## Execution: two-phase scatter-gather
//!
//! The coordinator serves every request through the same
//! [`QueryPipeline`] as the single-shard service — same generation waves,
//! same post-processing stages, same result cache — with one difference:
//! its execution backend ([`ScatterExec`]) scatters each interpretation:
//!
//! 1. **Reduce**: every shard harvests its local candidate rows and runs
//!    the full Yannakakis semi-join reduction; it reports its per-node
//!    `given` and reduced-set cardinalities and *blocks*.
//! 2. **Plan + gather**: the coordinator sums the cardinalities — under
//!    FK-closed partitioning the sums equal the single-store values — and
//!    forces one global [`JoinPlan`] on every shard. Shards enumerate their
//!    (limit-capped) result prefixes, translate local row ids to global
//!    through their monotone row maps, and the coordinator merges by the
//!    plan's visit-order row tuple. Because the executor enumerates
//!    lexicographically in visit order and each shard's output is the
//!    order-preserved restriction of the global enumeration, the merged
//!    prefix is **byte-identical** to the single-store oracle.
//!
//! The one deliberate divergence: the `max_intermediate` abort guard fires
//! per shard, so a query that aborts on one big store may succeed sharded
//! (each shard's intermediate stays under the bound). The differential
//! fixtures never trigger the guard; byte-identity there is exact.
//!
//! Predicate rows live in the shards' caches, never in the coordinator's,
//! so the pipeline's executor-to-generator verdict seeding finds nothing to
//! seed on the coordinator. Seeded verdicts are index-derivable anyway:
//! generation output, and therefore every answer, is unchanged.
//!
//! Coordinator pool size equals every shard pool size, so at most one job
//! per shard pool exists per in-flight request and the two-phase barrier
//! cannot deadlock: every in-flight request's shard jobs hold threads
//! simultaneously, reduce always completes, and the plan (or an abort) is
//! always delivered.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use keybridge_index::InvertedIndex;
use keybridge_relstore::{
    assign_shards, execute_reduced_in, hash_shard, plan_join_order, reduce_join_tree,
    split_database, BatchError, Database, ExecOptions, ExecStats, JoinPlan, JoinTree, JoinedRow,
    RelResult, RowBatch, RowId, Schema, ShardAssignment, TableId,
};

use crate::exec::{
    bound_nodes, collect_result_keys, harvest_candidates, with_result_cache, ExecCache,
    ExecutedResult, PkLookup, SharedExecCache,
};
use crate::generate::{Interpreter, NonemptyCache, SharedNonemptyCache};
use crate::interp::QueryInterpretation;
use crate::pipeline::{ExecBackend, QueryPipeline};
use crate::pool::WorkerPool;
use crate::service::{
    serve_request, submit_pinned, IngestError, IngestReceipt, Reply, Request, SearchSnapshot,
    ServeRequests, ServiceError, ServiceStats, SnapshotEpoch, Ticket,
};
#[cfg(any(test, feature = "test-seams"))]
use crate::service::{timed_answers, SearchReply, TimedReply};

// ---------------------------------------------------------------------------
// Published state.
// ---------------------------------------------------------------------------

/// One shard's immutable serving state. Untouched shards keep their `Arc`
/// (and warm predicate cache) across ingests.
struct ShardState {
    /// This shard's own epoch chain: bumped only when an ingest routes rows
    /// *here*.
    epoch: SnapshotEpoch,
    db: Arc<Database>,
    /// Local inverted index over the shard's rows (local row ids).
    index: Arc<InvertedIndex>,
    /// Shard-generation predicate cache (local row ids — never valid across
    /// this shard's epochs, so it is replaced whenever `epoch` bumps).
    exec: Arc<SharedExecCache>,
    /// Per table: local row index → global [`RowId`]. Strictly increasing,
    /// because a shard's rows are inserted in global order.
    row_map: Arc<Vec<Vec<RowId>>>,
}

/// One published generation of the whole sharded store: the shard vector
/// plus everything global. Swapped atomically under the writer lock, pinned
/// per request by the coordinator — the same snapshot-isolation discipline
/// as the single-shard `ServingState`.
struct ShardSet {
    /// Global epoch: one bump per accepted ingest (matches the single-shard
    /// oracle's epoch for the same replay).
    generation: SnapshotEpoch,
    shards: Vec<Arc<ShardState>>,
    /// The coordinator's *global* inverted index — identical to the oracle's
    /// (generation must rank on global term statistics).
    index: Arc<InvertedIndex>,
    /// Per table: global row index → primary key. The coordinator's stand-in
    /// for `db.pk_value` when minting [`ResultKey`]s.
    pk_maps: Arc<Vec<Vec<i64>>>,
    /// Global generation-side verdict cache (swapped every ingest).
    nonempty: Arc<SharedNonemptyCache>,
    /// Global *result-level* execution cache (swapped every ingest). Its
    /// predicate tier stays empty — predicate rows are shard-local.
    exec: Arc<SharedExecCache>,
}

impl ShardSet {
    fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.shards.iter().map(|s| s.epoch).collect()
    }
}

/// Writer-side state, serialized under one mutex like the single-shard
/// writer: the global shard directory plus the ever-touched set.
struct ShardedWriter {
    /// `(table, pk) → shard` for every row ever placed — committed rows and
    /// (when started with a pre-computed plan) rows scheduled for future
    /// ingest. Routing honors scheduled placements so a replayed holdout
    /// lands exactly where the full-corpus partitioning put it.
    assignment: ShardAssignment,
    touched_ever: Vec<bool>,
}

/// Everything a coordinator job needs, cloneable into the job closure.
#[derive(Clone)]
struct ServeCtx {
    base: Arc<SearchSnapshot>,
    /// Empty database over the schema — the generation side only reads
    /// schema names from it (verified: `tpl.signature(db)`), never rows.
    schema_db: Arc<Database>,
    current: Arc<Mutex<Arc<ShardSet>>>,
    pools: Arc<Vec<Arc<WorkerPool>>>,
    served: Arc<AtomicUsize>,
    /// Gathered-but-never-merged rows: what the bounded top-k merge left
    /// unconsumed once the global prefix was provably complete.
    shard_rows_skipped: Arc<AtomicUsize>,
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

/// K-shard scatter-gather server behind the unified [`ServeRequests`]
/// seam. Answers are byte-identical (answer content: interpretations,
/// JTTs in global row ids, scores, keys) to a [`crate::SearchService`]
/// over the unsharded store; see the module docs for the argument.
///
/// Construct through [`crate::ServiceBuilder::shards`].
pub struct ShardedService {
    // Dropped first: joins the coordinator threads, after which no new
    // shard jobs can be submitted and the pools (Arc'd by in-flight jobs)
    // wind down on their own Drop.
    coordinator: WorkerPool,
    ctx: ServeCtx,
    writer: Mutex<ShardedWriter>,
    epoch_swaps: AtomicUsize,
    shard_epoch_swaps: AtomicUsize,
    stale_evictions: AtomicUsize,
    rows_ingested: AtomicUsize,
}

impl ShardedService {
    /// Partition `snapshot`'s database into `shards` FK-closed shards (a
    /// deterministic LPT over the foreign-key components) and start serving
    /// with `workers` threads on the coordinator *and* on each shard.
    pub fn start(snapshot: Arc<SearchSnapshot>, shards: usize, workers: usize) -> ShardedService {
        let assignment = assign_shards(&snapshot.db, shards.max(1));
        Self::start_with_assignment(snapshot, assignment, workers)
    }

    /// [`Self::start`] with an explicit shard directory. The assignment may
    /// cover *more* rows than the snapshot holds (a plan computed over a
    /// full corpus before rows were held out for replay); ingest then
    /// routes each held-out row to its planned shard. Every row the
    /// snapshot *does* hold must be assigned.
    pub fn start_with_assignment(
        snapshot: Arc<SearchSnapshot>,
        assignment: ShardAssignment,
        workers: usize,
    ) -> ShardedService {
        let split = split_database(&snapshot.db, &assignment)
            .expect("shard assignment covers every snapshot row");
        let table_count = snapshot.db.schema().table_count();
        let shard_states: Vec<Arc<ShardState>> = split
            .dbs
            .into_iter()
            .zip(split.row_maps)
            .map(|(db, row_map)| {
                let index = InvertedIndex::build(&db);
                Arc::new(ShardState {
                    epoch: SnapshotEpoch::default(),
                    db: Arc::new(db),
                    index: Arc::new(index),
                    exec: Arc::new(SharedExecCache::new()),
                    row_map: Arc::new(row_map),
                })
            })
            .collect();
        let pk_maps: Vec<Vec<i64>> = (0..table_count)
            .map(|t| {
                let table = TableId(t as u32);
                snapshot
                    .db
                    .table(table)
                    .rows()
                    .map(|(r, _)| snapshot.db.pk_value(table, r))
                    .collect()
            })
            .collect();
        let set = Arc::new(ShardSet {
            generation: SnapshotEpoch::default(),
            shards: shard_states,
            index: Arc::new(snapshot.index.clone()),
            pk_maps: Arc::new(pk_maps),
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        });
        let schema_db = Arc::new(Database::new(snapshot.db.schema().clone()));
        let shard_count = assignment.shards();
        let pools: Vec<Arc<WorkerPool>> = (0..shard_count)
            .map(|s| Arc::new(WorkerPool::start(&format!("kb-shard{s}"), workers)))
            .collect();
        ShardedService {
            coordinator: WorkerPool::start("kb-coord", workers),
            ctx: ServeCtx {
                base: snapshot,
                schema_db,
                current: Arc::new(Mutex::new(set)),
                pools: Arc::new(pools),
                served: Arc::new(AtomicUsize::new(0)),
                shard_rows_skipped: Arc::new(AtomicUsize::new(0)),
            },
            writer: Mutex::new(ShardedWriter {
                assignment,
                touched_ever: vec![false; shard_count],
            }),
            epoch_swaps: AtomicUsize::new(0),
            shard_epoch_swaps: AtomicUsize::new(0),
            stale_evictions: AtomicUsize::new(0),
            rows_ingested: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ctx.pools.len()
    }

    /// The per-shard epoch vector of the currently published generation.
    pub fn shard_epochs(&self) -> Vec<SnapshotEpoch> {
        self.ctx.current.lock().unwrap().shard_epochs()
    }

    /// Apply one insert batch: validate exactly like
    /// [`Database::insert_batch`] (same errors, same order, with the whole
    /// sharded store standing in for "the database"), route every row to
    /// the single shard its foreign-key parents pin (planned placement
    /// honored, rootless rows hashed), and publish a generation in which
    /// **only the touched shards** carry a new epoch and a fresh predicate
    /// cache.
    pub fn ingest(&self, batch: &RowBatch) -> Result<IngestReceipt, IngestError> {
        let mut writer = self.writer.lock().unwrap();
        let set = Arc::clone(&self.ctx.current.lock().unwrap());
        let schema = self.ctx.base.db.schema();
        let table_count = schema.table_count();

        // Does (table, pk) exist in the *store*? The directory also holds
        // planned (not yet ingested) placements, so hint presence alone is
        // not existence — probe the hinted shard.
        let in_store = |table: TableId, pk: i64| -> Option<usize> {
            writer
                .assignment
                .shard_of(table, pk)
                .filter(|&s| set.shards[s].db.table(table).by_pk(pk).is_some())
        };

        // Phase 1 (mirrors `insert_batch`): shape, then pk uniqueness
        // against the store and within the batch.
        let mut new_pks: Vec<HashSet<i64>> = vec![HashSet::new(); table_count];
        let mut row_pks: Vec<i64> = Vec::with_capacity(batch.len());
        let mut batch_pos: HashMap<(u32, i64), usize> = HashMap::new();
        for (i, (table, row)) in batch.iter().enumerate() {
            let pk_val = check_shape(schema, *table, row, i).map_err(IngestError::Batch)?;
            let t = table.0 as usize;
            if in_store(*table, pk_val).is_some() || !new_pks[t].insert(pk_val) {
                return Err(IngestError::Batch(BatchError::DuplicatePrimaryKey {
                    table: schema.table(*table).name.clone(),
                    key: pk_val,
                    batch_row: i,
                }));
            }
            batch_pos.insert((table.0, pk_val), i);
            row_pks.push(pk_val);
        }
        // Referential integrity: a parent may live anywhere in the store or
        // in this batch. Same fk-column order as `insert_batch`.
        for (i, (table, row)) in batch.iter().enumerate() {
            for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == *table) {
                if let Some(key) = row[fk.from.attr.0 as usize].as_int() {
                    let parent = fk.to.table;
                    if in_store(parent, key).is_none() && !new_pks[parent.0 as usize].contains(&key)
                    {
                        let t = schema.table(*table);
                        return Err(IngestError::Batch(BatchError::DanglingForeignKey {
                            table: t.name.clone(),
                            attr: t.attr(fk.from.attr).name.clone(),
                            key,
                            batch_row: i,
                        }));
                    }
                }
            }
        }

        // Route every row to one shard. Constraints per row: its planned
        // placement (if the directory has one) and the shards of its
        // foreign-key parents (in-store, or earlier-routed batch rows).
        // Multi-pass so intra-batch parents may appear in any order; a
        // stuck cycle pins its first row from whatever constraints are
        // already resolved. Conflicting constraints are unroutable.
        let shard_count = writer.assignment.shards();
        let mut route: Vec<Option<usize>> = vec![None; batch.len()];
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for (i, (table, row)) in batch.iter().enumerate() {
                if route[i].is_some() {
                    continue;
                }
                match resolve_route(
                    schema, &writer, &set, &batch_pos, &route, *table, row, row_pks[i], false,
                ) {
                    Resolution::Shard(s) => {
                        route[i] = Some(s);
                        progressed = true;
                    }
                    Resolution::Unrouted => {
                        route[i] = Some(hash_shard(*table, row_pks[i], shard_count));
                        progressed = true;
                    }
                    Resolution::Pending => all_done = false,
                    Resolution::Conflict => {
                        return Err(IngestError::Unroutable {
                            table: schema.table(*table).name.clone(),
                            key: row_pks[i],
                        });
                    }
                }
            }
            if all_done {
                break;
            }
            if !progressed {
                // Intra-batch fk cycle: force-resolve the first pending row
                // from its already-resolved constraints only.
                let i = route.iter().position(Option::is_none).expect("pending row");
                let (table, row) = &batch[i];
                route[i] = Some(
                    match resolve_route(
                        schema, &writer, &set, &batch_pos, &route, *table, row, row_pks[i], true,
                    ) {
                        Resolution::Shard(s) => s,
                        Resolution::Unrouted => hash_shard(*table, row_pks[i], shard_count),
                        Resolution::Conflict => {
                            return Err(IngestError::Unroutable {
                                table: schema.table(*table).name.clone(),
                                key: row_pks[i],
                            });
                        }
                        Resolution::Pending => unreachable!("forced resolution never pends"),
                    },
                );
            }
        }
        // Every fk edge must be intra-shard, else a shard-local join would
        // drop results the oracle finds. Forced cycle resolution can in
        // principle split an edge; refuse such batches atomically.
        for (i, (table, row)) in batch.iter().enumerate() {
            let my_shard = route[i].expect("routed above");
            for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == *table) {
                if let Some(key) = row[fk.from.attr.0 as usize].as_int() {
                    let parent_shard = in_store(fk.to.table, key)
                        .or_else(|| batch_pos.get(&(fk.to.table.0, key)).and_then(|&j| route[j]))
                        .expect("parent validated above");
                    if parent_shard != my_shard {
                        return Err(IngestError::Unroutable {
                            table: schema.table(*table).name.clone(),
                            key: row_pks[i],
                        });
                    }
                }
            }
        }

        // Apply, in full batch order: clone only the touched shards' state,
        // insert locally, maintain the local index, the global index, the
        // row/pk maps, and the directory.
        let touched: BTreeSet<usize> = route.iter().map(|r| r.expect("routed")).collect();
        let mut new_dbs: HashMap<usize, Database> = touched
            .iter()
            .map(|&s| (s, (*set.shards[s].db).clone()))
            .collect();
        let mut new_indexes: HashMap<usize, InvertedIndex> = touched
            .iter()
            .map(|&s| (s, (*set.shards[s].index).clone()))
            .collect();
        let mut new_row_maps: HashMap<usize, Vec<Vec<RowId>>> = touched
            .iter()
            .map(|&s| (s, (*set.shards[s].row_map).clone()))
            .collect();
        let mut pk_maps = (*set.pk_maps).clone();
        let mut global_index = (*set.index).clone();
        for (i, (table, row)) in batch.iter().enumerate() {
            let s = route[i].expect("routed");
            let t = table.0 as usize;
            let db = new_dbs.get_mut(&s).expect("touched shard");
            let local = db
                .insert(*table, row.clone())
                .expect("batch validated before apply");
            new_indexes
                .get_mut(&s)
                .expect("touched shard")
                .index_row(db, *table, local);
            let global = RowId(pk_maps[t].len() as u32);
            new_row_maps.get_mut(&s).expect("touched shard")[t].push(global);
            global_index.index_row_values(schema, *table, global, row);
            pk_maps[t].push(row_pks[i]);
            writer.assignment.record(*table, row_pks[i], s);
        }

        // Publish: global epoch bumps, touched shards bump their own chain
        // and drop their predicate-cache generation, everyone else keeps
        // their Arc (and their warm cache).
        let mut stale = set.nonempty.len() + set.exec.predicate_count() + set.exec.result_count();
        let mut shards = set.shards.clone();
        for &s in &touched {
            let old = &set.shards[s];
            stale += old.exec.predicate_count() + old.exec.result_count();
            shards[s] = Arc::new(ShardState {
                epoch: SnapshotEpoch(old.epoch.0 + 1),
                db: Arc::new(new_dbs.remove(&s).expect("touched shard")),
                index: Arc::new(new_indexes.remove(&s).expect("touched shard")),
                exec: Arc::new(SharedExecCache::new()),
                row_map: Arc::new(new_row_maps.remove(&s).expect("touched shard")),
            });
        }
        let generation = SnapshotEpoch(set.generation.0 + 1);
        let next = Arc::new(ShardSet {
            generation,
            shards,
            index: Arc::new(global_index),
            pk_maps: Arc::new(pk_maps),
            nonempty: Arc::new(SharedNonemptyCache::new()),
            exec: Arc::new(SharedExecCache::new()),
        });
        *self.ctx.current.lock().unwrap() = next;
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        self.shard_epoch_swaps
            .fetch_add(touched.len(), Ordering::Relaxed);
        self.stale_evictions.fetch_add(stale, Ordering::Relaxed);
        self.rows_ingested.fetch_add(batch.len(), Ordering::Relaxed);
        for s in touched {
            writer.touched_ever[s] = true;
        }
        Ok(IngestReceipt {
            epoch: generation,
            rows: batch.len(),
        })
    }
}

impl ServeRequests for ShardedService {
    fn submit_request(&self, request: Request) -> Ticket<Reply> {
        // One pinned generation serves the whole request (snapshot
        // isolation across every shard at once).
        let ctx = self.ctx.clone();
        submit_pinned(
            &self.coordinator,
            &self.ctx.current,
            &self.ctx.served,
            move |set| serve_sharded(&ctx, set, request),
        )
    }

    fn ingest_batch(&self, batch: &RowBatch) -> Result<IngestReceipt, ServiceError> {
        self.ingest(batch).map_err(ServiceError::from)
    }

    fn service_stats(&self) -> ServiceStats {
        let set = Arc::clone(&self.ctx.current.lock().unwrap());
        let mut predicate_entries = set.exec.predicate_count();
        let mut predicate_hits = set.exec.predicate_hits();
        let mut result_entries = set.exec.result_count();
        let mut result_hits = set.exec.result_hits();
        for s in &set.shards {
            predicate_entries += s.exec.predicate_count();
            predicate_hits += s.exec.predicate_hits();
            result_entries += s.exec.result_count();
            result_hits += s.exec.result_hits();
        }
        ServiceStats {
            served: self.ctx.served.load(Ordering::Relaxed),
            epoch: set.generation.0,
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            snapshot_copies: 0,
            nonempty_entries: set.nonempty.len(),
            nonempty_hits: set.nonempty.hits(),
            predicate_entries,
            predicate_hits,
            result_entries,
            result_hits,
            sessions_open: 0,
            sessions_evicted: 0,
            sessions_expired: 0,
            wal_batches: 0,
            wal_bytes: 0,
            checkpoints: 0,
            recovery_replayed_batches: 0,
            shard_epoch_swaps: self.shard_epoch_swaps.load(Ordering::Relaxed),
            shard_rows_skipped: self.ctx.shard_rows_skipped.load(Ordering::Relaxed),
            shards_touched: self
                .writer
                .lock()
                .unwrap()
                .touched_ever
                .iter()
                .filter(|&&t| t)
                .count(),
        }
    }

    fn serving_epoch(&self) -> SnapshotEpoch {
        self.ctx.current.lock().unwrap().generation
    }

    #[cfg(any(test, feature = "test-seams"))]
    fn submit_sleeping(&self, dur: std::time::Duration) -> Ticket<TimedReply<SearchReply>> {
        submit_pinned(
            &self.coordinator,
            &self.ctx.current,
            &self.ctx.served,
            move |set| {
                std::thread::sleep(dur);
                Reply::Answers(Ok(SearchReply {
                    epoch: set.generation,
                    shard_epochs: set.shard_epochs(),
                    answers: Vec::new(),
                    stats: Default::default(),
                }))
            },
        )
        .expecting(timed_answers)
    }
}

// ---------------------------------------------------------------------------
// Ingest helpers.
// ---------------------------------------------------------------------------

/// Mirror of `Database::check_shape` + `shape_batch_error`, against the
/// schema alone (the coordinator holds no global database). Same checks,
/// same order, same error shapes.
fn check_shape(
    schema: &Schema,
    table: TableId,
    row: &[keybridge_relstore::Value],
    batch_row: usize,
) -> Result<i64, BatchError> {
    let def = schema.table(table);
    if row.len() != def.attrs.len() {
        return Err(BatchError::Arity {
            table: def.name.clone(),
            batch_row,
            expected: def.attrs.len(),
            got: row.len(),
        });
    }
    for (v, a) in row.iter().zip(&def.attrs) {
        if !v.conforms_to(a.ty) {
            return Err(BatchError::Type {
                table: def.name.clone(),
                attr: a.name.clone(),
                batch_row,
            });
        }
    }
    row[def.pk.0 as usize]
        .as_int()
        .ok_or_else(|| BatchError::NullPrimaryKey {
            table: def.name.clone(),
            batch_row,
        })
}

enum Resolution {
    /// All resolved constraints agree on this shard.
    Shard(usize),
    /// No constraints at all (rootless, unplanned row): caller hashes.
    Unrouted,
    /// An intra-batch parent is not routed yet; try again next pass (only
    /// when `forced` is false).
    Pending,
    /// Two resolved constraints name different shards.
    Conflict,
}

/// The shard constraints of one batch row: its planned placement in the
/// directory plus every foreign-key parent's shard.
#[allow(clippy::too_many_arguments)]
fn resolve_route(
    schema: &Schema,
    writer: &ShardedWriter,
    set: &ShardSet,
    batch_pos: &HashMap<(u32, i64), usize>,
    route: &[Option<usize>],
    table: TableId,
    row: &[keybridge_relstore::Value],
    pk: i64,
    forced: bool,
) -> Resolution {
    let mut req: Option<usize> = None;
    let mut constrain = |s: usize| -> bool {
        match req {
            Some(prev) => prev == s,
            None => {
                req = Some(s);
                true
            }
        }
    };
    if let Some(h) = writer.assignment.shard_of(table, pk) {
        if !constrain(h) {
            unreachable!("first constraint cannot conflict");
        }
    }
    for (_, fk) in schema.fks().filter(|(_, fk)| fk.from.table == table) {
        let Some(key) = row[fk.from.attr.0 as usize].as_int() else {
            continue;
        };
        let parent = fk.to.table;
        let parent_shard = match writer
            .assignment
            .shard_of(parent, key)
            .filter(|&s| set.shards[s].db.table(parent).by_pk(key).is_some())
        {
            Some(s) => Some(s),
            None => match batch_pos.get(&(parent.0, key)) {
                Some(&j) => match route[j] {
                    Some(s) => Some(s),
                    None if forced => None, // skip unresolved constraints
                    None => return Resolution::Pending,
                },
                // Parent only planned in the directory (validated, so this
                // means it is in the batch — handled above — or in store).
                None => writer.assignment.shard_of(parent, key),
            },
        };
        if let Some(s) = parent_shard {
            if !constrain(s) {
                return Resolution::Conflict;
            }
        }
    }
    match req {
        Some(s) => Resolution::Shard(s),
        None => Resolution::Unrouted,
    }
}

// ---------------------------------------------------------------------------
// Serving: the shared pipeline over scatter-gather execution.
// ---------------------------------------------------------------------------

/// Serve one request against a pinned generation through the shared
/// request dispatch — the same [`QueryPipeline`] as the single-shard
/// service, executing on [`ScatterExec`].
fn serve_sharded(ctx: &ServeCtx, set: &ShardSet, request: Request) -> Reply {
    // Generation ranks on the global index (oracle-identical term
    // statistics) and reads only schema names from the database.
    let interpreter = Interpreter::new(
        &ctx.schema_db,
        &*set.index,
        &ctx.base.catalog,
        ctx.base.config.clone(),
    );
    let mut gen_cache = NonemptyCache::with_shared(Arc::clone(&set.nonempty));
    let mut exec_cache = ExecCache::with_shared(Arc::clone(&set.exec));
    let mut pipeline = QueryPipeline::with_backend(
        &interpreter,
        ScatterExec { ctx, set },
        ExecOptions::default(),
        &mut gen_cache,
        &mut exec_cache,
    );
    serve_request(&mut pipeline, request, set.generation, set.shard_epochs())
}

// ---------------------------------------------------------------------------
// Scatter-gather execution.
// ---------------------------------------------------------------------------

/// What a shard reports after its semi-join reduction pass: per-node
/// candidate counts before reduction, per-node reduced-set sizes, and the
/// reduction's executor counters.
type ReduceReport = RelResult<(Vec<usize>, Vec<usize>, ExecStats)>;

/// The coordinator's execution backend over one pinned generation: results
/// are memoized in the coordinator's result cache exactly like local
/// executions, misses scatter across the shards, and result keys are minted
/// from the global pk maps.
#[derive(Clone, Copy)]
struct ScatterExec<'c> {
    ctx: &'c ServeCtx,
    set: &'c ShardSet,
}

impl PkLookup for ScatterExec<'_> {
    fn pk(&self, table: TableId, row: RowId) -> i64 {
        self.set.pk_maps[table.0 as usize][row.index()]
    }
}

impl ExecBackend for ScatterExec<'_> {
    fn execute(
        &self,
        interp: &QueryInterpretation,
        opts: ExecOptions,
        cache: &mut ExecCache,
    ) -> RelResult<Arc<ExecutedResult>> {
        with_result_cache(cache, interp, opts, |_| {
            scatter_execute(self.ctx, self.set, interp, opts)
        })
    }
}

/// Execute one interpretation across every shard and merge the prefixes
/// into the oracle's result (see the module docs for why the merge is
/// byte-identical). Returns global row ids.
fn scatter_execute(
    ctx: &ServeCtx,
    set: &ShardSet,
    interp: &QueryInterpretation,
    opts: ExecOptions,
) -> RelResult<ExecutedResult> {
    let catalog = &ctx.base.catalog;
    let tpl = catalog.get(interp.template);
    let tree = &tpl.tree;
    let n = tree.nodes.len();

    struct ShardRun {
        plan_tx: Sender<Option<JoinPlan>>,
        red_rx: Receiver<ReduceReport>,
        out_rx: Receiver<RelResult<(Vec<JoinedRow>, ExecStats)>>,
    }
    let runs: Vec<ShardRun> = set
        .shards
        .iter()
        .enumerate()
        .map(|(si, shard)| {
            let (plan_tx, plan_rx) = channel::<Option<JoinPlan>>();
            let (red_tx, red_rx) = channel();
            let (out_tx, out_rx) = channel();
            let shard = Arc::clone(shard);
            let interp = interp.clone();
            let tree = tree.clone();
            ctx.pools[si].submit(Box::new(move || {
                shard_execute(&shard, &interp, &tree, opts, red_tx, plan_rx, out_tx);
            }));
            ShardRun {
                plan_tx,
                red_rx,
                out_rx,
            }
        })
        .collect();

    // Phase 1: gather per-shard reduction cardinalities. Under FK-closed
    // partitioning the global reduced set per node is the disjoint union of
    // the per-shard sets, so the sums equal the oracle's values.
    let mut given_sum = vec![0usize; n];
    let mut size_sum = vec![0usize; n];
    let mut stats = ExecStats::default();
    let mut failure = None;
    for run in &runs {
        match run.red_rx.recv() {
            Ok(Ok((given, sizes, red_stats))) => {
                for i in 0..n {
                    given_sum[i] += given[i];
                    size_sum[i] += sizes[i];
                }
                stats.absorb(&red_stats);
            }
            // Reduction errors are schema-level (tree validation): every
            // shard fails identically, exactly as the oracle would.
            Ok(Err(e)) => failure = failure.or(Some(e)),
            // A shard job panicked (its channel died): surface as a worker
            // panic through the serving arm's catch_unwind.
            Err(_) => panic!("shard worker disappeared during reduction"),
        }
    }
    if let Some(e) = failure {
        for run in &runs {
            let _ = run.plan_tx.send(None);
        }
        return Err(e);
    }
    // Oracle mirror: `execute_hash_join` returns empty (reduction stats
    // only) when any *global* reduced set is empty.
    if size_sum.contains(&0) {
        for run in &runs {
            let _ = run.plan_tx.send(None);
        }
        return Ok(ExecutedResult {
            jtts: Vec::new(),
            keys: BTreeSet::new(),
            all_keys: BTreeSet::new(),
            stats,
        });
    }

    // Phase 2: force the oracle's plan (computed from the summed
    // cardinalities) on every shard, gather the limit-capped prefixes.
    let plan = plan_join_order(tree, &given_sum, &size_sum);
    for run in &runs {
        let _ = run.plan_tx.send(Some(plan.clone()));
    }
    let mut shard_rows: Vec<Vec<JoinedRow>> = Vec::with_capacity(runs.len());
    for run in &runs {
        match run.out_rx.recv() {
            Ok(Ok((rows, exec_stats))) => {
                stats.absorb(&exec_stats);
                shard_rows.push(rows);
            }
            Ok(Err(e)) => return Err(e),
            Err(_) => panic!("shard worker disappeared during execution"),
        }
    }

    // Bounded merge: the executor enumerates lexicographically by the plan's
    // visit-order row tuple, and shard row maps are monotone, so each shard's
    // prefix arrives already sorted by the *global* visit tuple. Cross-shard
    // tuples never compare equal (row ownership is disjoint), so a k-way
    // streaming min-merge that stops at `opts.limit` yields byte-for-byte the
    // same prefix as concatenate + sort + truncate — without ever looking at
    // the rows the merge leaves behind.
    let visit = visit_order(tree, &plan);
    fn key<'a>(visit: &'a [usize], row: &'a JoinedRow) -> impl Iterator<Item = RowId> + 'a {
        visit.iter().map(move |&v| row[v])
    }
    let total: usize = shard_rows.iter().map(Vec::len).sum();
    let mut idx = vec![0usize; shard_rows.len()];
    let mut merged: Vec<JoinedRow> = Vec::with_capacity(opts.limit.min(total));
    while merged.len() < opts.limit {
        let mut best: Option<usize> = None;
        for (s, rows) in shard_rows.iter().enumerate() {
            if idx[s] < rows.len()
                && best.is_none_or(|b| {
                    key(&visit, &rows[idx[s]])
                        .cmp(key(&visit, &shard_rows[b][idx[b]]))
                        .is_lt()
                })
            {
                best = Some(s);
            }
        }
        let Some(s) = best else { break };
        merged.push(std::mem::take(&mut shard_rows[s][idx[s]]));
        idx[s] += 1;
    }
    let consumed: usize = idx.iter().sum();
    ctx.shard_rows_skipped
        .fetch_add(total - consumed, Ordering::Relaxed);
    stats.result_count = merged.len();
    let bound = bound_nodes(interp, n);
    let (keys, all_keys) =
        collect_result_keys(&ScatterExec { ctx, set }, &tree.nodes, &bound, &merged);
    Ok(ExecutedResult {
        jtts: merged,
        keys,
        all_keys,
        stats,
    })
}

/// Node visit order of a plan: the seed, then each attached edge's new
/// node — the column order the executor's enumeration is lexicographic in.
fn visit_order(tree: &JoinTree, plan: &JoinPlan) -> Vec<usize> {
    let mut joined = vec![false; tree.nodes.len()];
    joined[plan.seed] = true;
    let mut visit = Vec::with_capacity(tree.nodes.len());
    visit.push(plan.seed);
    for &ei in &plan.attach {
        let e = &tree.edges[ei];
        let new = if joined[e.a] { e.b } else { e.a };
        joined[new] = true;
        visit.push(new);
    }
    visit
}

/// The per-shard job: harvest local candidates through the shard's
/// predicate cache, reduce, report cardinalities, await the global plan,
/// execute, translate local rows to global ids. Runs entirely on the
/// shard's pool; a dropped plan channel (coordinator abort or panic) ends
/// the job silently.
fn shard_execute(
    shard: &ShardState,
    interp: &QueryInterpretation,
    tree: &JoinTree,
    opts: ExecOptions,
    red_tx: Sender<ReduceReport>,
    plan_rx: Receiver<Option<JoinPlan>>,
    out_tx: Sender<RelResult<(Vec<JoinedRow>, ExecStats)>>,
) {
    // The executor's candidate harvest, through the shard-local cache.
    let mut cache = ExecCache::with_shared(Arc::clone(&shard.exec));
    let candidates = harvest_candidates(&tree.nodes, interp, |keywords, aref| {
        (*cache.rows(&shard.index, keywords, aref)).clone()
    });
    let reduced = match reduce_join_tree(&shard.db, tree, &candidates) {
        Ok(r) => r,
        Err(e) => {
            let _ = red_tx.send(Err(e));
            return;
        }
    };
    let sizes: Vec<usize> = reduced.sets.iter().map(Vec::len).collect();
    let _ = red_tx.send(Ok((reduced.given, sizes, reduced.stats)));
    let Ok(Some(plan)) = plan_rx.recv() else {
        return; // aborted (empty result, error, or coordinator gone)
    };
    let result = execute_reduced_in(&shard.db, tree, reduced.sets, &plan, opts, &mut cache.arena)
        .map(|out| {
            let rows = out
                .rows
                .into_iter()
                .map(|jtt| {
                    jtt.iter()
                        .enumerate()
                        .map(|(node, local)| {
                            shard.row_map[tree.nodes[node].0 as usize][local.index()]
                        })
                        .collect()
                })
                .collect();
            (rows, out.stats)
        });
    let _ = out_tx.send(result);
}

// Everything a coordinator or shard job touches crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::InterpreterConfig;
    use crate::keyword::KeywordQuery;
    use crate::SearchService;
    use keybridge_datagen::{ImdbConfig, ImdbDataset};

    /// The pipeline seeds generator verdicts from the exec cache's
    /// predicate tier. On the coordinator that tier must stay empty (the
    /// predicate rows live in the shards' caches), so seeding is a no-op
    /// there — while the same queries fill that tier on a single store.
    #[test]
    fn coordinator_exec_cache_holds_no_predicates() {
        let data = ImdbDataset::generate(ImdbConfig::tiny(1)).unwrap();
        let snap = Arc::new(
            SearchSnapshot::build(data.db, InterpreterConfig::default(), 4, 50_000).unwrap(),
        );
        let single = SearchService::start(Arc::clone(&snap), 1);
        let sharded = ShardedService::start(snap, 2, 1);
        for terms in [vec!["tom", "hanks"], vec!["mary"], vec!["day", "moore"]] {
            let q = KeywordQuery::from_terms(terms.into_iter().map(String::from).collect());
            single.search_versioned(&q, 5);
            let reply = sharded.search_versioned(&q, 5);
            assert!(reply.stats.executed > 0);
            assert_eq!(reply.stats.nonempty_seeded, 0);
            let div = sharded.search_diversified(&q, Default::default());
            assert_eq!(div.stats.nonempty_seeded, 0);
        }
        assert!(single.stats().predicate_entries > 0);
        let set = Arc::clone(&sharded.ctx.current.lock().unwrap());
        assert_eq!(set.exec.predicate_count(), 0);
        assert!(set.exec.result_count() > 0);
        assert!(set.shards.iter().any(|s| s.exec.predicate_count() > 0));
    }
}
