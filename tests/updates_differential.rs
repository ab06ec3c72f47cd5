//! The write-path correctness backbone: a database that *lives* — organize,
//! insert, delete, re-organize — must answer every RDF-H query exactly like
//! a fresh bulk load of the same logical triple set.
//!
//! Setup: the RDF-H triples are partitioned by subject into A (~80%) and
//! B (~20%), and a deletion sample D is drawn from both. Three databases:
//!
//! * `ref_full`  — bulk load A ∪ B, self-organize (the pre-delete truth);
//! * `ref_final` — bulk load (A ∪ B) \ D, self-organize (the final truth);
//! * `live`      — bulk load A, self-organize, then *insert* B in batches
//!   and *delete* D through the delta store.
//!
//! Every catalog query must agree between `live` and `ref_final` across
//! both plan schemes, sequentially and morsel-parallel; a snapshot taken
//! before the deletes must still answer like `ref_full`; and an adaptive
//! `maybe_reorganize` must fire, reduce the irregular-triple ratio, and
//! change no answer.

use sordf::{
    Database, ExecConfig, Generation, ParallelConfig, PlanScheme, QueryRequest, ReorgPolicy,
};
use sordf_model::{Term, TermTriple};
use sordf_rdfh::{generate, query, RdfhConfig, ALL_QUERIES};
use sordf_storage::{Manifest, StoreSnapshot};
use std::collections::HashSet;
use std::path::Path;

/// Deterministic subject bucketing (FNV-1a over the subject's debug form).
fn subject_bucket(t: &TermTriple, buckets: u64) -> u64 {
    let key = format!("{:?}", t.s);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h % buckets
}

struct Fixture {
    a: Vec<TermTriple>,
    b: Vec<TermTriple>,
    deletions: Vec<TermTriple>,
}

fn fixture() -> Fixture {
    let data = generate(&RdfhConfig::new(0.001));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for t in &data.triples {
        if subject_bucket(t, 5) == 0 {
            b.push(t.clone());
        } else {
            a.push(t.clone());
        }
    }
    assert!(!a.is_empty() && !b.is_empty());
    // Deletion sample: individual triples from the organized base (every
    // 13th of A) and from the freshly inserted delta (every 7th of B).
    let mut deletions: Vec<TermTriple> = a
        .iter()
        .step_by(13)
        .cloned()
        .chain(b.iter().step_by(7).cloned())
        .collect();
    deletions.dedup();
    Fixture { a, b, deletions }
}

fn organized(triples: &[TermTriple]) -> Database {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(triples).unwrap();
    db.self_organize().unwrap();
    db
}

fn minus(all: &[TermTriple], remove: &[TermTriple]) -> Vec<TermTriple> {
    let dead: HashSet<&TermTriple> = remove.iter().collect();
    all.iter().filter(|t| !dead.contains(t)).cloned().collect()
}

fn par_config() -> ParallelConfig {
    // Small morsels so even the tiny test scale exercises real splitting.
    ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 64,
    }
}

/// Canonical answers of one database for all catalog queries under one
/// exec configuration, sequential or parallel.
fn answers(db: &Database, exec: ExecConfig, parallel: bool) -> Vec<Vec<String>> {
    ALL_QUERIES
        .iter()
        .map(|qid| {
            let mut req = QueryRequest::sparql(query(*qid))
                .generation(Generation::Clustered)
                .config(exec);
            if parallel {
                req = req.parallel(par_config());
            }
            let rs = db
                .execute(&req)
                .unwrap_or_else(|e| panic!("{}: {e}", qid.name()))
                .results;
            rs.canonical(&db.dict())
        })
        .collect()
}

#[test]
fn updates_match_fresh_bulk_load() {
    let fx = fixture();
    let full: Vec<TermTriple> = fx.a.iter().chain(fx.b.iter()).cloned().collect();
    let ref_full = organized(&full);
    let ref_final = organized(&minus(&full, &fx.deletions));

    // The live database: organize A, then write B and the deletions.
    let live = organized(&fx.a);
    let n_batches = 3;
    let chunk = fx.b.len().div_ceil(n_batches);
    for batch in fx.b.chunks(chunk) {
        live.insert_terms(batch).unwrap();
    }
    let pre_delete = live.snapshot();
    let n_deleted = live.delete_triples(&fx.deletions).unwrap();
    assert_eq!(
        n_deleted,
        fx.deletions.len(),
        "every sampled triple was visible"
    );
    assert_eq!(live.n_triples(), ref_final.n_triples());

    let reference = answers(&ref_final, ExecConfig::default(), false);

    let configs = [
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: true,
            ..Default::default()
        },
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: false,
            ..Default::default()
        },
        ExecConfig {
            scheme: PlanScheme::Default,
            zonemaps: true,
            ..Default::default()
        },
    ];
    for exec in configs {
        for parallel in [false, true] {
            let got = answers(&live, exec, parallel);
            for (qi, qid) in ALL_QUERIES.iter().enumerate() {
                assert_eq!(
                    got[qi],
                    reference[qi],
                    "{} differs from fresh bulk load ({exec:?}, parallel={parallel})",
                    qid.name()
                );
                assert!(!reference[qi].is_empty(), "{} returned nothing", qid.name());
            }
        }
    }

    // MVCC-lite: the snapshot taken before the deletes still answers like
    // the pre-delete bulk load.
    let full_reference = answers(&ref_full, ExecConfig::default(), false);
    for (qi, qid) in ALL_QUERIES.iter().enumerate() {
        let rs = live.query_snapshot(query(*qid), pre_delete).unwrap();
        assert_eq!(
            rs.canonical(&live.dict()),
            full_reference[qi],
            "{} at the pre-delete snapshot differs from the pre-delete bulk load",
            qid.name()
        );
    }

    // Adaptive re-organization: drift crossed any sane threshold (B is ~20%
    // of the data), the reorg must fire, shrink the irregular share to the
    // bulk-load level, and preserve every answer.
    let drift_before = live.drift_stats();
    assert!(drift_before.n_delta_inserts > 0 && drift_before.n_tombstones > 0);
    assert!(
        drift_before.irregular_ratio() > 0.1,
        "unorganized delta should dominate the irregular share"
    );
    let outcome = live.maybe_reorganize(&ReorgPolicy::default()).unwrap();
    assert!(outcome.fired, "a ~20% delta must trip the default policy");
    let after = outcome.irregular_ratio_after.expect("organized database");
    assert!(
        after < drift_before.irregular_ratio() && after < 0.01,
        "reorg must reduce the irregular ratio (before {:.4}, after {after:.4})",
        drift_before.irregular_ratio()
    );
    assert_eq!(live.drift_stats().n_delta_inserts, 0, "delta collapsed");

    for parallel in [false, true] {
        let got = answers(&live, ExecConfig::default(), parallel);
        for (qi, qid) in ALL_QUERIES.iter().enumerate() {
            assert_eq!(
                got[qi],
                reference[qi],
                "{} differs after maybe_reorganize (parallel={parallel})",
                qid.name()
            );
        }
    }
}

// ---- layouts as the only copy of the base ---------------------------------

/// A small graph with every shape a layout has to give back: one regular
/// class with a multi-valued property, a NULL-heavy optional column and
/// type exceptions, irregular subjects with one-off predicates, and
/// duplicate input triples.
fn mixed_graph() -> Vec<TermTriple> {
    let iri = |s: String| Term::iri(format!("http://e/{s}"));
    let mut out = Vec::new();
    let mut add = |s: String, p: &str, o: Term| out.push(TermTriple::new(iri(s), iri(p.into()), o));
    for i in 0..60i64 {
        let s = format!("item{i}");
        add(s.clone(), "price", Term::int(i * 10));
        add(s.clone(), "qty", Term::int(i % 7));
        add(s.clone(), "tag", iri(format!("t{}", i % 3)));
        if i % 2 == 0 {
            add(s.clone(), "tag", iri(format!("t{}", (i + 1) % 3)));
        }
        if i % 6 == 0 {
            add(s.clone(), "note", Term::str(format!("note {i}")));
        }
        if i % 9 == 0 {
            add(s.clone(), "price", Term::str("n/a"));
        }
        if i % 10 == 0 {
            add(s.clone(), "price", Term::int(i * 10)); // duplicate
        }
    }
    for i in 0..8 {
        add(format!("odd{i}"), &format!("rare{i}"), Term::int(i));
        add(format!("odd{i}"), "qty", Term::str("many"));
    }
    out
}

fn build(db: &Database, generation: Generation) {
    match generation {
        Generation::Baseline => db.build_baseline().unwrap(),
        Generation::CsParseOrder => db.build_cs_tables().unwrap(),
        Generation::Clustered => {
            db.self_organize().unwrap();
        }
    }
}

/// The triples of the live checkpoint snapshot in `dir`, each exactly once.
fn checkpointed(dir: &Path) -> HashSet<TermTriple> {
    let m = Manifest::read(dir)
        .unwrap()
        .expect("a committed checkpoint");
    let snap = StoreSnapshot::read_from(&Manifest::snap_path(dir, m.snap_file)).unwrap();
    let n = snap.triples.len();
    let set: HashSet<TermTriple> = snap.triples.into_iter().collect();
    assert_eq!(set.len(), n, "the checkpoint holds each triple once");
    set
}

/// Canonical answers of one `?s <p> ?o` scan per predicate.
fn scans(db: &Database, generation: Generation) -> Vec<Vec<String>> {
    let scheme = match generation {
        Generation::Baseline => PlanScheme::Default,
        _ => PlanScheme::RdfScanJoin,
    };
    ["price", "qty", "tag", "note", "rare3"]
        .iter()
        .map(|p| {
            let req =
                QueryRequest::sparql(format!("SELECT ?s ?o WHERE {{ ?s <http://e/{p}> ?o . }}"))
                    .generation(generation)
                    .config(ExecConfig {
                        scheme,
                        ..Default::default()
                    });
            let resp = db.execute(&req).unwrap();
            resp.results.canonical(&resp.pin)
        })
        .collect()
}

/// With no resident triple vector, every built layout must give the base
/// back exactly: the checkpoint (read from the layouts) equals the distinct
/// input, and after pending tombstones and inserts the counts, a
/// pattern delete and a checkpoint → reopen all agree with a bulk load of
/// the same final set.
#[test]
fn layouts_reconstruct_the_base_like_a_bulk_load() {
    let input = mixed_graph();
    let distinct: HashSet<TermTriple> = input.iter().cloned().collect();
    assert!(distinct.len() < input.len(), "the input holds duplicates");
    let e = |s: &str| Term::iri(format!("http://e/{s}"));
    let deletes = vec![
        TermTriple::new(e("item0"), e("tag"), e("t1")), // multi-valued
        TermTriple::new(e("item6"), e("note"), Term::str("note 6")), // NULL-heavy column
        TermTriple::new(e("item9"), e("price"), Term::str("n/a")), // type exception
        TermTriple::new(e("odd2"), e("rare2"), Term::int(2)), // irregular subject
        TermTriple::new(e("item3"), e("qty"), Term::int(3)), // regular column
    ];
    let inserts = vec![
        TermTriple::new(e("item3"), e("qty"), Term::int(3)), // delete, then reinsert
        TermTriple::new(e("item1"), e("price"), Term::int(10)), // already visible
        TermTriple::new(e("item1"), e("tag"), e("t2")),
        TermTriple::new(e("new0"), e("price"), Term::int(5)),
        TermTriple::new(e("new0"), e("price"), Term::int(5)), // repeat in the batch
    ];
    let mut expected = distinct.clone();
    for t in &deletes {
        assert!(expected.remove(t), "{t:?} is in the input");
    }
    let before = expected.len();
    expected.extend(inserts.iter().cloned());
    let n_new = expected.len() - before;
    assert_eq!(n_new, 3, "one reinsert and two fresh triples");

    for generation in [
        Generation::Baseline,
        Generation::CsParseOrder,
        Generation::Clustered,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "sordf-layouts-{generation:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let live = Database::open(&dir).unwrap();
        live.load_terms(&input).unwrap();
        build(&live, generation);
        if let Some(schema) = live.schema().filter(|_| generation != Generation::Baseline) {
            // The layout really holds every shape: a NULL-bearing column, a
            // side table and an irregular remainder.
            let class = &schema.classes[0];
            assert!(class.columns.iter().any(|c| c.nullable), "{generation:?}");
            assert!(!class.multi_props.is_empty(), "{generation:?}");
            assert!(live.drift_stats().n_base_irregular > 0, "{generation:?}");
        }
        assert_eq!(live.n_triples(), distinct.len(), "{generation:?}");
        assert_eq!(
            live.memory_stats().base_triples_bytes,
            0,
            "{generation:?}: a built store keeps no triple vector"
        );
        live.checkpoint().unwrap();
        assert_eq!(checkpointed(&dir), distinct, "{generation:?} base");

        // Pending tombstones and inserts on top of the layouts.
        assert_eq!(live.delete_triples(&deletes).unwrap(), deletes.len());
        assert_eq!(live.insert_terms(&inserts).unwrap(), n_new);
        let mut final_set: Vec<TermTriple> = expected.iter().cloned().collect();
        final_set.sort_by_key(|t| format!("{t:?}"));
        let reference = Database::in_temp_dir().unwrap();
        reference.load_terms(&final_set).unwrap();
        build(&reference, generation);
        assert_eq!(live.n_triples(), expected.len(), "{generation:?}");
        assert_eq!(reference.n_triples(), expected.len(), "{generation:?}");
        assert_eq!(scans(&live, generation), scans(&reference, generation));
        live.checkpoint().unwrap();
        assert_eq!(checkpointed(&dir), expected, "{generation:?} visible set");

        // A pattern delete over base and delta agrees with the reference.
        let tag = e("tag");
        let n = live.delete_matching(None, Some(&tag), None).unwrap();
        assert_eq!(
            n,
            reference.delete_matching(None, Some(&tag), None).unwrap(),
            "{generation:?}"
        );
        assert_eq!(live.n_triples(), reference.n_triples(), "{generation:?}");
        let after_tags = scans(&reference, generation);
        assert_eq!(scans(&live, generation), after_tags, "{generation:?}");

        // Checkpoint → reopen: recovery rebuilds the same layouts from the
        // snapshot and replays the tag delete.
        drop(live);
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened.default_generation().unwrap(), generation);
        assert_eq!(
            reopened.n_triples(),
            reference.n_triples(),
            "{generation:?}"
        );
        assert_eq!(scans(&reopened, generation), after_tags, "{generation:?}");
        reopened.checkpoint().unwrap();
        let survivors: HashSet<TermTriple> =
            expected.iter().filter(|t| t.p != tag).cloned().collect();
        assert_eq!(checkpointed(&dir), survivors, "{generation:?} after reopen");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
