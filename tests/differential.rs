//! Differential execution tests: the batched hash-join executor must return
//! exactly the same results as the retained naive nested-loop oracle
//! (`ExecStrategy::Naive`), on randomized schemas, instances, candidate
//! sets, and interpretations — including the two-predicates-on-one-node
//! intersection path and empty-candidate edge cases.
//!
//! Every property runs over `SEEDS` (≥ 3 distinct seeds; CI gates on this
//! suite). Failures reproduce by seed.

use keybridge::core::{
    execute_interpretation, BindingTarget, GenerationStrategy, Interpreter, InterpreterConfig,
    KeywordBinding, KeywordQuery, ProbabilityConfig, QueryInterpretation, TemplateCatalog,
};
use keybridge::index::InvertedIndex;
use keybridge::relstore::{
    execute_join_tree_with_stats, reduce_join_tree, Candidates, Database, ExecOptions,
    ExecStrategy, JoinTree, JoinTreeEdge, JoinedRow, RowId, SchemaBuilder, TableKind, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The differential suite's seed set — at least 3 distinct seeds, per the
/// CI gate.
const SEEDS: [u64; 4] = [11, 23, 47, 91];

/// The empty three-table movie-ish schema: actor <- acts -> movie.
fn empty_db() -> Database {
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
    Database::new(b.finish().unwrap())
}

/// A random three-table movie-ish schema with skewed, ambiguous text —
/// the same family `tests/properties.rs` uses for the generation oracle.
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = empty_db();
    let actor = db.schema().table_id("actor").unwrap();
    let movie = db.schema().table_id("movie").unwrap();
    let acts = db.schema().table_id("acts").unwrap();
    const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
    let n_actor = rng.gen_range(2..8usize);
    let n_movie = rng.gen_range(2..8usize);
    for i in 0..n_actor {
        let name = format!(
            "{} {}",
            VOCAB[rng.gen_range(0..VOCAB.len())],
            VOCAB[rng.gen_range(0..VOCAB.len())]
        );
        db.insert(actor, vec![Value::Int(i as i64), Value::text(name)])
            .unwrap();
    }
    for i in 0..n_movie {
        let words = rng.gen_range(1..=2usize);
        let title = (0..words)
            .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())])
            .collect::<Vec<_>>()
            .join(" ");
        db.insert(movie, vec![Value::Int(i as i64), Value::text(title)])
            .unwrap();
    }
    for i in 0..rng.gen_range(0..12usize) {
        // Occasionally a null fk, exercising the null-join edge case.
        let a = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..n_actor as i64))
        };
        db.insert(
            acts,
            vec![
                Value::Int(i as i64),
                a,
                Value::Int(rng.gen_range(0..n_movie as i64)),
            ],
        )
        .unwrap();
    }
    db
}

/// The join-tree shapes the differential suite exercises: single node, the
/// 3-node path, and the 5-node self-join.
fn trees(db: &Database) -> Vec<JoinTree> {
    let s = db.schema();
    let actor = s.table_id("actor").unwrap();
    let movie = s.table_id("movie").unwrap();
    let acts = s.table_id("acts").unwrap();
    let fk_actor = s.fks().find(|(_, f)| f.to.table == actor).unwrap().0;
    let fk_movie = s.fks().find(|(_, f)| f.to.table == movie).unwrap().0;
    vec![
        JoinTree::single(movie),
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
        },
        JoinTree {
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
        },
    ]
}

/// Random per-node candidates: free, a random sorted subset, or (sometimes)
/// explicitly empty.
fn random_candidates(rng: &mut StdRng, db: &Database, tree: &JoinTree) -> Candidates {
    let mut c = Candidates::free(tree.nodes.len());
    for i in 0..tree.nodes.len() {
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            continue; // free node
        }
        let len = db.table(tree.nodes[i]).len();
        let rows: Vec<RowId> = if roll < 0.55 || len == 0 {
            Vec::new() // empty candidate set
        } else {
            (0..len as u32)
                .filter(|_| rng.gen_bool(0.5))
                .map(RowId)
                .collect()
        };
        c = c.restrict(i, rows);
    }
    c
}

fn sorted(mut rows: Vec<JoinedRow>) -> Vec<JoinedRow> {
    rows.sort();
    rows
}

fn opts(strategy: ExecStrategy) -> ExecOptions {
    ExecOptions {
        limit: usize::MAX,
        strategy,
        ..Default::default()
    }
}

#[test]
fn join_tree_execution_matches_naive_oracle() {
    let mut total_hj_intermediates = 0usize;
    let mut total_nv_intermediates = 0usize;
    let mut nonempty_cases = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..20 {
            let db = random_db(&mut rng);
            for (ti, tree) in trees(&db).iter().enumerate() {
                let cands = random_candidates(&mut rng, &db, tree);
                let note = format!("seed {seed} case {case} tree {ti}");
                let hj =
                    execute_join_tree_with_stats(&db, tree, &cands, opts(ExecStrategy::HashJoin))
                        .unwrap_or_else(|e| panic!("{note}: hash join failed: {e}"));
                let nv = execute_join_tree_with_stats(&db, tree, &cands, opts(ExecStrategy::Naive))
                    .unwrap_or_else(|e| panic!("{note}: naive failed: {e}"));
                assert_eq!(
                    sorted(hj.rows.clone()),
                    sorted(nv.rows.clone()),
                    "{note}: result multisets differ"
                );
                assert_eq!(hj.stats.result_count, nv.stats.result_count, "{note}");
                if !hj.rows.is_empty() {
                    nonempty_cases += 1;
                }
                total_hj_intermediates += hj.stats.intermediate_bindings;
                total_nv_intermediates += nv.stats.intermediate_bindings;

                // count_only agrees with the materialized count.
                let co = execute_join_tree_with_stats(
                    &db,
                    tree,
                    &cands,
                    ExecOptions {
                        count_only: true,
                        ..opts(ExecStrategy::HashJoin)
                    },
                )
                .unwrap();
                assert!(co.rows.is_empty(), "{note}: count_only returned rows");
                assert_eq!(
                    co.stats.result_count,
                    hj.rows.len(),
                    "{note}: count_only count"
                );

                // limit caps results and the result set stays a subset.
                let limited = execute_join_tree_with_stats(
                    &db,
                    tree,
                    &cands,
                    ExecOptions {
                        limit: 2,
                        strategy: ExecStrategy::HashJoin,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(limited.rows.len() <= 2, "{note}: limit violated");
                assert_eq!(
                    limited.rows.len(),
                    hj.rows.len().min(2),
                    "{note}: limit under-delivered"
                );
                let all = sorted(hj.rows);
                for r in &limited.rows {
                    assert!(
                        all.binary_search(r).is_ok(),
                        "{note}: limited row not in full result"
                    );
                }
            }
        }
    }
    assert!(
        nonempty_cases >= 30,
        "corpus too degenerate: {nonempty_cases}"
    );
    // The batched executor's whole point: across the corpus it materializes
    // no more intermediate bindings than the naive oracle.
    assert!(
        total_hj_intermediates <= total_nv_intermediates,
        "hash join materialized more bindings overall: {total_hj_intermediates} vs {total_nv_intermediates}"
    );
}

/// Check `reduce_join_tree` on one case against the naive executor's
/// unlimited result, plus the limited-prefix identity of the hash join.
/// Returns whether the join has results.
fn check_reduction(db: &Database, tree: &JoinTree, cands: &Candidates, note: &str) -> bool {
    let unlimited = execute_join_tree_with_stats(db, tree, cands, opts(ExecStrategy::Naive))
        .unwrap_or_else(|e| panic!("{note}: naive failed: {e}"))
        .rows;
    let reduced =
        reduce_join_tree(db, tree, cands).unwrap_or_else(|e| panic!("{note}: reduce failed: {e}"));
    for (i, set) in reduced.sets.iter().enumerate() {
        // The sorted, distinct projection of node `i` over every JTT.
        let mut projection: Vec<RowId> = unlimited.iter().map(|row| row[i]).collect();
        projection.sort();
        projection.dedup();
        let expected = match &cands.per_node[i] {
            None => projection,
            Some(given) => given
                .iter()
                .copied()
                .filter(|r| projection.binary_search(r).is_ok())
                .collect(),
        };
        assert_eq!(set, &expected, "{note}: reduced set of node {i}");
    }
    if unlimited.is_empty() {
        assert!(
            reduced.sets.iter().all(Vec::is_empty),
            "{note}: an empty join must leave every set empty"
        );
    }
    assert_eq!(
        reduced.stats.semijoin_rows_out,
        reduced.sets.iter().map(Vec::len).sum::<usize>(),
        "{note}: semijoin_rows_out"
    );

    // A limited run returns exactly the unlimited run's prefix, in order:
    // the invariant result truncation and the result caches rely on.
    let run = |limit| {
        let o = ExecOptions {
            limit,
            ..opts(ExecStrategy::HashJoin)
        };
        execute_join_tree_with_stats(db, tree, cands, o)
            .unwrap_or_else(|e| panic!("{note}: hash join failed: {e}"))
            .rows
    };
    let all = run(usize::MAX);
    for limit in 1..=3 {
        assert_eq!(
            run(limit),
            all[..limit.min(all.len())],
            "{note}: limit {limit} is not the unlimited prefix"
        );
    }
    !unlimited.is_empty()
}

/// actor 0..6, movie 0..3, and four acts rows: the actor table is larger
/// than both the acts and the movie table, and actors 4 and 5 act nowhere.
fn small_acts_db() -> Database {
    let mut db = empty_db();
    let s = db.schema();
    let (actor, movie, acts) = (
        s.table_id("actor").unwrap(),
        s.table_id("movie").unwrap(),
        s.table_id("acts").unwrap(),
    );
    for i in 0..6 {
        db.insert(actor, vec![Value::Int(i), Value::text(format!("a{i}"))])
            .unwrap();
    }
    for i in 0..3 {
        db.insert(movie, vec![Value::Int(i), Value::text(format!("m{i}"))])
            .unwrap();
    }
    for (i, (a, m)) in [(0, 0), (1, 0), (2, 1), (0, 1)].into_iter().enumerate() {
        db.insert(
            acts,
            vec![Value::Int(i as i64), Value::Int(a), Value::Int(m)],
        )
        .unwrap();
    }
    db
}

/// The semi-join reducer against the naive oracle: a free node's reduced
/// set is the sorted, distinct projection of the full join onto it, a given
/// node's is its candidate list filtered to that projection in order — on
/// the random corpus and on targeted cases (a given set larger than a free
/// table, an all-free tree, an unsorted given list with duplicates).
#[test]
fn reduced_sets_match_naive_projection() {
    let mut nonempty = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(6007));
        for case in 0..20 {
            let db = random_db(&mut rng);
            for (ti, tree) in trees(&db).iter().enumerate() {
                let cands = random_candidates(&mut rng, &db, tree);
                let note = format!("seed {seed} case {case} tree {ti}");
                nonempty += check_reduction(&db, tree, &cands, &note) as usize;
            }
        }
    }
    assert!(nonempty >= 30, "corpus too degenerate: {nonempty}");

    let db = small_acts_db();
    let actor = db.schema().table_id("actor").unwrap();
    let row = |pk: u32| RowId(pk);
    for (ti, tree) in trees(&db).iter().enumerate() {
        let n = tree.nodes.len();
        let actor_nodes: Vec<usize> = (0..n).filter(|&i| tree.nodes[i] == actor).collect();
        let all_actors: Vec<RowId> = (0..6).map(row).collect();
        let mut larger = Candidates::free(n);
        let mut unsorted = Candidates::free(n);
        for &i in &actor_nodes {
            larger = larger.restrict(i, all_actors.clone());
            unsorted = unsorted.restrict(i, [2, 5, 0, 2, 1].into_iter().map(row).collect());
        }
        if actor_nodes.is_empty() {
            unsorted = unsorted.restrict(0, [2, 0, 2].into_iter().map(row).collect());
        }
        for (name, cands) in [
            ("all free", Candidates::free(n)),
            ("given larger than a free table", larger),
            ("unsorted given with duplicates", unsorted),
        ] {
            let note = format!("targeted tree {ti}: {name}");
            assert!(check_reduction(&db, tree, &cands, &note), "{note}: empty");
        }
    }
}

/// A random 1–4 keyword query over the vocabulary.
fn random_query(rng: &mut StdRng) -> KeywordQuery {
    const POOL: &[&str] = &[
        "tom", "meg", "stone", "london", "terminal", "guest", "fire", "actor", "movie", "title",
        "name", "zzzz",
    ];
    let n = rng.gen_range(1..=4usize);
    KeywordQuery::from_terms(
        (0..n)
            .map(|_| POOL[rng.gen_range(0..POOL.len())].to_owned())
            .collect(),
    )
}

#[test]
fn interpretation_execution_matches_naive_oracle() {
    let mut executed = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
        for case in 0..12 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let config = InterpreterConfig {
                prob: ProbabilityConfig {
                    unmapped_prob: 1e-4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let interp = Interpreter::new(&db, &index, &catalog, config);
            let query = random_query(&mut rng);
            let note = format!("seed {seed} case {case} query \"{query}\"");
            for qi in interp.enumerate_interpretations(&query).iter().take(40) {
                let hj =
                    execute_interpretation(&db, &index, &catalog, qi, opts(ExecStrategy::HashJoin))
                        .unwrap();
                let nv =
                    execute_interpretation(&db, &index, &catalog, qi, opts(ExecStrategy::Naive))
                        .unwrap();
                assert_eq!(
                    sorted(hj.jtts.clone()),
                    sorted(nv.jtts.clone()),
                    "{note}: JTT multisets differ for {qi:?}"
                );
                assert_eq!(hj.keys, nv.keys, "{note}: ResultKey sets differ");
                assert_eq!(hj.all_keys, nv.all_keys, "{note}: all_keys differ");
                executed += 1;
            }
        }
    }
    assert!(
        executed >= 100,
        "too few interpretations executed: {executed}"
    );
}

/// The two-predicates-on-one-node intersection path: separate keyword bags
/// bound to the same node must intersect identically under both strategies,
/// including empty intersections.
#[test]
fn same_node_intersection_matches_oracle() {
    const VOCAB: &[&str] = &["tom", "meg", "stone", "london", "terminal", "guest", "fire"];
    let mut checked = 0usize;
    let mut nonempty = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(104729));
        for _case in 0..10 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let actor = db.schema().table_id("actor").unwrap();
            let name = db.schema().resolve("actor", "name").unwrap().attr;
            let kw_a = VOCAB[rng.gen_range(0..VOCAB.len())].to_owned();
            let kw_b = VOCAB[rng.gen_range(0..VOCAB.len())].to_owned();
            for tpl in catalog.iter() {
                let Some(&node) = tpl.nodes_of_table(actor).first() else {
                    continue;
                };
                if tpl.tree.nodes.len() > 3 {
                    continue;
                }
                let qi = QueryInterpretation::new(
                    tpl.id,
                    vec![
                        KeywordBinding {
                            keywords: vec![kw_a.clone()],
                            target: BindingTarget::Value { node, attr: name },
                        },
                        KeywordBinding {
                            keywords: vec![kw_b.clone()],
                            target: BindingTarget::Value { node, attr: name },
                        },
                    ],
                );
                let hj = execute_interpretation(
                    &db,
                    &index,
                    &catalog,
                    &qi,
                    opts(ExecStrategy::HashJoin),
                )
                .unwrap();
                let nv =
                    execute_interpretation(&db, &index, &catalog, &qi, opts(ExecStrategy::Naive))
                        .unwrap();
                assert_eq!(
                    sorted(hj.jtts.clone()),
                    sorted(nv.jtts),
                    "seed {seed} {kw_a}+{kw_b} on template {:?}",
                    tpl.id
                );
                assert_eq!(hj.keys, nv.keys);
                checked += 1;
                if !hj.jtts.is_empty() {
                    nonempty += 1;
                }
            }
        }
    }
    assert!(checked >= 50, "too few intersection cases: {checked}");
    assert!(nonempty >= 5, "intersection corpus degenerate: {nonempty}");
}

/// End-to-end: best-first generation + hash-join execution equals
/// exhaustive generation + naive execution — the full pipeline differential.
#[test]
fn answers_pipeline_matches_exhaustive_naive_oracle() {
    let mut nonempty_cases = 0usize;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31337));
        for case in 0..8 {
            let db = random_db(&mut rng);
            let index = InvertedIndex::build(&db);
            let catalog = TemplateCatalog::enumerate(&db, 3, 10_000).unwrap();
            let config = InterpreterConfig {
                prob: ProbabilityConfig {
                    unmapped_prob: 1e-4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let fast = Interpreter::new(&db, &index, &catalog, config.clone());
            let oracle = Interpreter::new(
                &db,
                &index,
                &catalog,
                InterpreterConfig {
                    strategy: GenerationStrategy::Exhaustive,
                    ..config
                },
            );
            let query = random_query(&mut rng);
            let note = format!("seed {seed} case {case} query \"{query}\"");
            for k in [1, 4, 10] {
                let a = fast.answers_top_k(&query, k);
                let (b, _) = oracle.answers_top_k_with_opts(
                    &query,
                    k,
                    ExecOptions {
                        strategy: ExecStrategy::Naive,
                        ..Default::default()
                    },
                );
                assert_eq!(a.len(), b.len(), "{note} k={k}: answer count");
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        x.interpretation, y.interpretation,
                        "{note} k={k}: interpretation at answer {i}"
                    );
                    assert!(
                        (x.log_score - y.log_score).abs() < 1e-12,
                        "{note} k={k}: score at answer {i}"
                    );
                }
                // JTT order within one interpretation is strategy-defined;
                // compare key multisets.
                let mut ka: Vec<_> = a.iter().map(|x| x.keys.clone()).collect();
                let mut kb: Vec<_> = b.iter().map(|x| x.keys.clone()).collect();
                ka.sort();
                kb.sort();
                assert_eq!(ka, kb, "{note} k={k}: answer key multisets");
                if !a.is_empty() {
                    nonempty_cases += 1;
                }
            }
        }
    }
    assert!(
        nonempty_cases >= 12,
        "corpus too degenerate: {nonempty_cases}"
    );
}
