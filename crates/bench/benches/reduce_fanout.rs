//! Semi-join reduction microbench on the fan-out shape
//! actor – acts – movie – genre – movie, where the genre fans out to a
//! large share of the movie table.
//!
//! For the seeded IMDB log at fixture scale x1 and x10, every generated
//! interpretation of that shape is reduced with `reduce_join_tree`, timed
//! as one replay per scale. The reductions seeded from the actor side — a
//! given actor set no larger than the matched movie list at the far end —
//! must stay within the work bound
//! `reduce_rows_touched ≤ 8 × (given rows + semijoin_rows_out)`: the
//! reducer expands the free nodes from the selective actor instead of
//! fanning out from the movie list through the genre. The reverse
//! orientation (many actors against a movie or two) is not bounded: there
//! the actor and movie sides meet through the genre's fan-out, and the rows
//! expanded from the actors can legitimately fail to survive. Its work is
//! printed only. The `--test` run CI does is a correctness pass over the
//! bound.

use criterion::{criterion_group, criterion_main, Criterion};
use keybridge_core::{
    harvest_candidates, Interpreter, InterpreterConfig, KeywordQuery, TemplateCatalog,
};
use keybridge_datagen::{ImdbConfig, ImdbDataset, Workload, WorkloadConfig};
use keybridge_index::InvertedIndex;
use keybridge_relstore::{reduce_join_tree, Candidates, Database, JoinTree, TableId};
use std::time::Duration;

/// Interpretations generated per log query.
const PER_QUERY: usize = 50;
/// Log queries replayed per scale.
const LOG_QUERIES: usize = 108;

/// One scale's fan-out reductions: the database and each interpretation's
/// join tree with its harvested candidates and whether it is actor-seeded
/// (bounded).
struct Shape {
    db: Database,
    cases: Vec<(JoinTree, Candidates, bool)>,
}

/// Whether `tree` is actor – acts – movie – genre – movie. Those tables
/// admit no other tree: genre joins only movies and acts joins one actor
/// and one movie.
fn is_fanout(db: &Database, tree: &JoinTree) -> bool {
    let mut names: Vec<&str> = tree.nodes.iter().map(|&t| name(db, t)).collect();
    names.sort_unstable();
    names == ["actor", "acts", "genre", "movie", "movie"]
}

fn name(db: &Database, table: TableId) -> &str {
    db.schema().table(table).name.as_str()
}

/// Whether a fan-out case is seeded from the actor side: its given actor
/// rows are no more than the given rows of the far movie (the one joined
/// to the genre only).
fn actor_seeded(db: &Database, tree: &JoinTree, cands: &Candidates) -> bool {
    let named = |i: usize| name(db, tree.nodes[i]);
    let next_to_acts = |i: usize| {
        tree.edges
            .iter()
            .any(|e| (e.a == i && named(e.b) == "acts") || (e.b == i && named(e.a) == "acts"))
    };
    let n = tree.nodes.len();
    let actor = (0..n)
        .find(|&i| named(i) == "actor")
        .expect("fan-out shape");
    let far_movie = (0..n)
        .find(|&i| named(i) == "movie" && !next_to_acts(i))
        .expect("fan-out shape");
    let given = |i: usize| {
        cands.per_node[i]
            .as_ref()
            .map_or(db.table(tree.nodes[i]).len(), Vec::len)
    };
    given(actor) <= given(far_movie)
}

fn shape(scale: f64) -> Shape {
    let data = ImdbDataset::generate(ImdbConfig {
        seed: 1,
        actors: 400,
        directors: 100,
        movies: 500,
        companies: 50,
        avg_cast: 3,
        scale,
    })
    .expect("generation succeeds");
    let index = InvertedIndex::build(&data.db);
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).expect("medium schema");
    let log = Workload::imdb(
        &data,
        WorkloadConfig {
            seed: 2,
            n_queries: LOG_QUERIES,
            mc_fraction: 0.6,
        },
    );
    let interpreter = Interpreter::new(&data.db, &index, &catalog, InterpreterConfig::default());
    let mut cases = Vec::new();
    for q in log.queries.iter().filter(|q| !q.keywords.is_empty()) {
        let query = KeywordQuery::from_terms(q.keywords.clone());
        for s in interpreter.top_k(&query, PER_QUERY) {
            let tree = &catalog.get(s.interpretation.template).tree;
            if is_fanout(&data.db, tree) {
                let cands = harvest_candidates(&tree.nodes, &s.interpretation, |kw, attr| {
                    index.rows_with_all(kw, attr)
                });
                let seeded = actor_seeded(&data.db, tree, &cands);
                cases.push((tree.clone(), cands, seeded));
            }
        }
    }
    Shape { db: data.db, cases }
}

/// Reduce every case, asserting the touched-rows bound on the
/// actor-seeded ones; returns the rows touched in total.
fn reduce_all(s: &Shape) -> usize {
    let mut touched = 0;
    for (tree, cands, seeded) in &s.cases {
        let stats = reduce_join_tree(&s.db, tree, cands)
            .expect("valid tree")
            .stats;
        let given: usize = cands.per_node.iter().flatten().map(Vec::len).sum();
        assert!(
            !seeded || stats.reduce_rows_touched <= 8 * (given + stats.semijoin_rows_out),
            "reducer touched {} rows for {given} given and {} kept",
            stats.reduce_rows_touched,
            stats.semijoin_rows_out
        );
        touched += stats.reduce_rows_touched;
    }
    touched
}

fn bench_reduce(c: &mut Criterion) {
    for scale in [1u32, 10] {
        let s = shape(scale as f64);
        let seeded = s.cases.iter().filter(|c| c.2).count();
        assert!(
            seeded >= 10,
            "the x{scale} log must generate actor-seeded fan-out interpretations"
        );
        let touched = reduce_all(&s);
        println!(
            "x{scale}: {} fan-out reductions ({seeded} actor-seeded, bounded) over {} rows, \
             {touched} rows touched",
            s.cases.len(),
            s.db.total_rows()
        );
        c.bench_function(&format!("reduce_fanout_x{scale}"), |b| {
            b.iter(|| reduce_all(&s))
        });
    }
}

/// `cargo bench ... -- --test` (the CI lint job) shrinks the run to a
/// smoke-speed correctness pass; the bound assertions still fire.
fn config() -> Criterion {
    if std::env::args().any(|a| a == "--test") {
        Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
    } else {
        Criterion::default()
    }
}

criterion_group!(
    name = benches;
    config = config();
    targets = bench_reduce
);
criterion_main!(benches);
