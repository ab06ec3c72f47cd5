//! `ingest_reorg`: a writer and a reader on one durable store under
//! `SyncPolicy::Always`, with background reorganization.
//!
//! Set-up loads and self-organizes 80% of the RDF-H subjects, then
//! checkpoints. The other 20% form the *pool*, cut into seeded,
//! subject-aligned batches. The writer draws each step from a seeded
//! stream: with probability [`DELETE_SHARE`] it deletes a pool batch that is
//! present (`delete_triples`), otherwise it inserts an absent one as
//! N-Triples text (`insert_ntriples`). Once the whole pool is present it
//! keeps churning: deletes and re-inserts. After every batch it offers the
//! store a background reorganization under a fixed [`ReorgPolicy`]. The
//! reader runs starjoin4, Q6 and point lookups in a closed loop.
//!
//! At the end the store is dropped and reopened (`recovery_s`); the live
//! store and the reopened one must both equal a bulk load of the base plus
//! the pool batches present at the end.

use crate::common::{self, Args, EngineTotals, Report, WorkDir};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sordf::{BackgroundReorg, Database, QueryRequest, ReorgPolicy, SyncPolicy};
use sordf_model::{ntriples, TermTriple};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Every durable store of this workload fsyncs each batch before
/// acknowledging it.
const SYNC: SyncPolicy = SyncPolicy::Always;

/// Triples per write batch (whole subjects, so a little more).
const BATCH_TRIPLES: usize = 64;

/// Share of write steps that delete a present pool batch.
const DELETE_SHARE: f64 = 0.1;

/// The fixed reorganization policy: fire once pending writes exceed 1% of
/// the base (at least 2048 triples), whatever the drift ratios say.
fn policy() -> ReorgPolicy {
    ReorgPolicy {
        min_delta_triples: 2048,
        max_delta_ratio: 0.01,
        max_irregular_ratio: 1.0,
        max_unmatched_ratio: 1.0,
    }
}

/// Writer and reader run this long, unmeasured, before the window.
const WARMUP: Duration = Duration::from_secs(3);

/// Batches measured per store in the WAL-cost probe.
const WAL_PROBE_BATCHES: usize = 40;

/// Base and pool, split by subject.
struct Split {
    base: Vec<TermTriple>,
    batches: Vec<Batch>,
}

struct Batch {
    triples: Vec<TermTriple>,
    text: String,
}

/// Subjects whose seeded hash falls in the lowest fifth go to the pool;
/// pool subjects are shuffled and cut into batches of whole subjects.
fn split(triples: Vec<TermTriple>, seed: u64) -> Split {
    let salt = common::derived_seed(seed, 2);
    let mut base = Vec::new();
    let mut by_subject: std::collections::BTreeMap<String, Vec<TermTriple>> = Default::default();
    for t in triples {
        let key = format!("{:?}", t.s);
        if fnv(&key, salt).is_multiple_of(5) {
            by_subject.entry(key).or_default().push(t);
        } else {
            base.push(t);
        }
    }
    let mut subjects: Vec<Vec<TermTriple>> = by_subject.into_values().collect();
    let mut rng = StdRng::seed_from_u64(common::derived_seed(seed, 3));
    for i in (1..subjects.len()).rev() {
        subjects.swap(i, rng.random_range(0..i + 1));
    }
    let mut batches = Vec::new();
    let mut current: Vec<TermTriple> = Vec::new();
    for group in subjects {
        current.extend(group);
        if current.len() >= BATCH_TRIPLES {
            batches.push(batch(std::mem::take(&mut current)));
        }
    }
    if !current.is_empty() {
        batches.push(batch(current));
    }
    Split { base, batches }
}

fn batch(triples: Vec<TermTriple>) -> Batch {
    let mut text = Vec::new();
    ntriples::write_document(&mut text, &triples).expect("writing to a Vec cannot fail");
    Batch {
        triples,
        text: String::from_utf8(text).expect("N-Triples output is UTF-8"),
    }
}

fn fnv(s: &str, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Set up a durable store in `dir`: load, self-organize, checkpoint.
/// Returns the store and (load ms, organize ms, checkpoint ms).
fn durable_store(
    dir: &Path,
    base: &[TermTriple],
    tracer: &Tracer,
) -> Result<(Database, [f64; 3]), String> {
    let db = Database::create_durable(dir, SYNC).map_err(common::err)?;
    let t0 = Instant::now();
    tracer
        .span("model.load_terms", 0, || db.load_terms(base))
        .map_err(common::err)?;
    let t1 = Instant::now();
    tracer
        .span("schema.self_organize", 0, || db.self_organize())
        .map_err(common::err)?;
    let t2 = Instant::now();
    tracer
        .span("storage.checkpoint", 0, || db.checkpoint())
        .map_err(common::err)?;
    let t3 = Instant::now();
    Ok((db, [ms(t1 - t0), ms(t2 - t1), ms(t3 - t2)]))
}

pub fn run(args: &Args, tracer: &Tracer, r: &mut Report) -> Result<(), String> {
    let work = WorkDir::create("ingest").map_err(common::err)?;
    let Split { base, batches } = split(common::rdfh_triples(args.seed), args.seed);
    r.record("sync_policy", format!("{SYNC:?}"));
    r.record("pool_batches", batches.len().to_string());
    let p = policy();
    r.record(
        "reorg_policy",
        format!(
            "min_delta_triples={} max_delta_ratio={}",
            p.min_delta_triples, p.max_delta_ratio
        ),
    );

    let mut setup = common::SetupTimes::default();
    let mut db = None;
    let mut dir = work.path("setup0");
    for rep in 0..common::SETUP_REPS {
        drop(db.take());
        let _ = std::fs::remove_dir_all(&dir);
        dir = work.path(&format!("setup{rep}"));
        let (fresh, [load, organize, checkpoint]) = durable_store(&dir, &base, tracer)?;
        setup.total_s.push((load + organize + checkpoint) / 1e3);
        setup.load_ms.push(load);
        setup.organize_ms.push(organize);
        setup.checkpoint_ms.push(checkpoint);
        db = Some(fresh);
    }
    setup.report(r);
    let db = db.expect("SETUP_REPS > 0");
    if tracer.enabled() {
        let wal_us = wal_probe(&work, &base, &batches)?;
        r.layer("storage.wal_us_per_batch", wal_us, "us");
    }

    let keys = common::lineitem_keys(&base);
    let mut rng = StdRng::seed_from_u64(common::derived_seed(args.seed, 4));
    let points: Vec<String> = (0..256)
        .map(|_| common::point_query(keys[rng.random_range(0..keys.len())]))
        .collect();
    let reads: [(&str, String); 2] = [
        ("star4", sordf_bench::scenarios::star_query(4)),
        ("q6", sordf_rdfh::query(sordf_rdfh::QueryId::Q6).to_string()),
    ];

    let writer = Writer::new(&batches, args.seed);
    // Untimed warm-up: the first writes land in an empty delta and the
    // first rebuilds start; measure the writer and reader once both run in
    // their steady state.
    phase(&db, &dir, &writer, &reads, &points, WARMUP, None);
    let window = args.window();
    let plain = phase(&db, &dir, &writer, &reads, &points, window, None);
    common::report_latency(
        r,
        "reader queries",
        &plain.reader.latency,
        window.as_secs_f64(),
        1.0,
    );
    r.attempted += plain.reader.attempted + plain.writes.batches;
    r.failed += plain.reader.failed + plain.writes.failed;
    let traced = if tracer.enabled() {
        let traced = phase(&db, &dir, &writer, &reads, &points, window, Some(tracer));
        r.attempted += traced.reader.attempted + traced.writes.batches;
        r.failed += traced.reader.failed + traced.writes.failed;
        Some(traced)
    } else {
        None
    };
    // Let the last rebuild finish, untimed.
    let mut cycles = writer.finish_reorg();

    let all_writes: Vec<&Writes> = std::iter::once(&plain.writes)
        .chain(traced.as_ref().map(|t| &t.writes))
        .collect();
    let inserted: u64 = all_writes.iter().map(|w| w.inserted).sum();
    let write_s: f64 = all_writes.iter().map(|w| w.busy_s).sum();
    let batch_ms: Vec<f64> = all_writes.iter().flat_map(|w| w.batch_ms.clone()).collect();
    r.layer(
        "write.insert_tps",
        inserted as f64 / write_s.max(1e-9),
        "1/s",
    );
    let batch = stats::Summary::of(&batch_ms);
    r.layer("write.insert_p99_ms", batch.map_or(0.0, |s| s.p99), "ms");
    r.set_count("write.insert_p99_ms", batch_ms.len());
    r.set_count("write.insert_tps", batch_ms.len());
    if let Some(s) = batch {
        r.note(format!(
            "write batches: n={} p50={:.4}ms p99={:.4}ms tail=p{}={:.4}ms insert_tps={:.0}",
            s.n,
            s.p50,
            s.p99,
            s.tail_pct,
            s.tail,
            inserted as f64 / write_s.max(1e-9)
        ));
    }
    let reorg_ms = writer.state.lock().reorg_ms.clone();
    cycles += all_writes.iter().map(|w| w.cycles).sum::<u64>();
    r.layer("storage.reorg_ms", stats::median(&reorg_ms), "ms");
    r.layer("storage.reorg_cycles", cycles as f64, "count");
    r.layer(
        "storage.insert_stall_max_ms",
        all_writes
            .iter()
            .map(|w| w.stall_max_ms)
            .fold(0.0, f64::max),
        "ms",
    );
    let drift: Vec<&(f64, f64, f64)> = all_writes.iter().flat_map(|w| &w.drift).collect();
    let mean = |f: fn(&(f64, f64, f64)) -> f64| {
        drift.iter().map(|d| f(d)).sum::<f64>() / drift.len().max(1) as f64
    };
    r.layer("storage.delta_triples_mean", mean(|d| d.0), "count");
    r.layer("schema.irregular_ratio", mean(|d| d.1), "ratio");
    r.layer("schema.unmatched_subject_ratio", mean(|d| d.2), "ratio");
    r.note(format!(
        "writer: {} batches, {inserted} triples inserted in {write_s:.2}s, {cycles} reorg cycles",
        all_writes.iter().map(|w| w.batches).sum::<u64>()
    ));

    common::report_memory(&db, r);
    let n_triples = db.memory_stats().n_triples.max(1) as f64;
    r.layer(
        "write.disk_bytes_per_triple",
        stats::data_dir_bytes(&dir) as f64 / n_triples,
        "B/triple",
    );
    if let Some(t) = &traced {
        r.layer(
            "storage.wal_bytes_per_triple",
            t.writes.wal_bytes as f64 / t.writes.wal_triples.max(1) as f64,
            "B/triple",
        );
        r.layer(
            "trace.overhead_frac",
            plain.reader.qps() / t.reader.qps() - 1.0,
            "ratio",
        );
        t.reader.engine.report(r);
        for (id, ex) in &t.reader.execute_us {
            r.layer(&format!("core.execute_us.{id}"), stats::median(ex), "us");
        }
        r.layer(
            "model.ntriples_parse_us",
            stats::median(&tracer.durations("model.parse_document")),
            "us",
        );
        r.layer(
            "storage.insert_us",
            stats::median(&tracer.durations("storage.insert_terms")),
            "us",
        );
        r.layer(
            "core.plan_cache_hit_ratio",
            t.reader.plan_hit_ratio,
            "ratio",
        );
        r.layer("process.cpu_util", t.cpu_util, "ratio");
        common::report_shares(tracer, t.reader.engine.queries, 0, 0.0, r);
    }

    // Correctness: live, then reopened, against a bulk load of the
    // expected final content.
    let present = writer.present();
    let mut expected_triples = base;
    for (i, b) in batches.iter().enumerate() {
        if present[i] {
            expected_triples.extend(b.triples.iter().cloned());
        }
    }
    let reference = Database::create(&work.path("reference.db")).map_err(common::err)?;
    reference
        .load_terms(&expected_triples)
        .map_err(common::err)?;
    reference.self_organize().map_err(common::err)?;
    let predicates: BTreeSet<String> = expected_triples
        .iter()
        .filter_map(|t| t.p.as_iri().map(str::to_string))
        .collect();
    drop(expected_triples);
    let expected = dump(&reference, &predicates)?;
    drop(reference);
    if dump(&db, &predicates)? != expected {
        r.gate_failed("live store differs from a bulk load of base + inserts - deletes".into());
    }
    drop(db);
    let t0 = Instant::now();
    let reopened = tracer
        .span("core.open", 0, || Database::open_with_policy(&dir, SYNC))
        .map_err(common::err)?;
    r.layer("write.recovery_s", t0.elapsed().as_secs_f64(), "s");
    if dump(&reopened, &predicates)? != expected {
        r.gate_failed("reopened store differs from a bulk load of base + inserts - deletes".into());
    }
    r.note(format!(
        "gate: live and reopened stores equal the bulk-load reference ({} triples): {}",
        expected.len(),
        r.correct
    ));
    Ok(())
}

/// Every triple, canonically: one `?s <p> ?o` scan per predicate.
fn dump(db: &Database, predicates: &BTreeSet<String>) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for p in predicates {
        let rows = common::canonical(
            db,
            &QueryRequest::sparql(format!("SELECT ?s ?o WHERE {{ ?s <{p}> ?o . }}")),
        )?;
        out.extend(rows.into_iter().map(|row| format!("{p}\t{row}")));
    }
    Ok(out)
}

/// The cost of the log: the same pre-parsed batches into a durable store
/// and into a non-durable one, alternating; median difference per batch.
fn wal_probe(work: &WorkDir, base: &[TermTriple], batches: &[Batch]) -> Result<f64, String> {
    let quiet = Tracer::new(false);
    let (durable, _) = durable_store(&work.path("walprobe"), base, &quiet)?;
    let plain = Database::create(&work.path("walprobe.db")).map_err(common::err)?;
    plain.load_terms(base).map_err(common::err)?;
    plain.self_organize().map_err(common::err)?;
    let (mut with_wal, mut without) = (Vec::new(), Vec::new());
    for b in batches.iter().take(WAL_PROBE_BATCHES) {
        let t0 = Instant::now();
        durable.insert_terms(&b.triples).map_err(common::err)?;
        with_wal.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        plain.insert_terms(&b.triples).map_err(common::err)?;
        without.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&with_wal) - stats::median(&without))
}

/// The writer's state, carried across the untraced and traced phases.
struct Writer<'a> {
    batches: &'a [Batch],
    state: Mutex<WriterState>,
}

struct WriterState {
    rng: StdRng,
    present: Vec<bool>,
    reorg: Option<(BackgroundReorg, Instant)>,
    /// Duration of every finished rebuild, warm-up included.
    reorg_ms: Vec<f64>,
}

impl<'a> Writer<'a> {
    fn new(batches: &'a [Batch], seed: u64) -> Writer<'a> {
        Writer {
            batches,
            state: Mutex::new(WriterState {
                rng: StdRng::seed_from_u64(common::derived_seed(seed, 5)),
                present: vec![false; batches.len()],
                reorg: None,
                reorg_ms: Vec::new(),
            }),
        }
    }

    fn present(&self) -> Vec<bool> {
        self.state.lock().present.clone()
    }

    /// Wait for an in-flight rebuild; returns 1 if it swapped.
    fn finish_reorg(&self) -> u64 {
        let mut st = self.state.lock();
        match st.reorg.take() {
            Some((handle, t0)) => {
                let swapped = handle.wait().is_ok_and(|o| o.swapped);
                st.reorg_ms.push(ms(t0.elapsed()));
                u64::from(swapped)
            }
            None => 0,
        }
    }
}

/// What the writer did in one phase.
#[derive(Default)]
struct Writes {
    batches: u64,
    failed: u64,
    inserted: u64,
    busy_s: f64,
    batch_ms: Vec<f64>,
    cycles: u64,
    stall_max_ms: f64,
    /// After each batch: (pending writes, irregular ratio, unmatched ratio).
    drift: Vec<(f64, f64, f64)>,
    wal_bytes: u64,
    wal_triples: u64,
}

/// What the reader did in one phase.
#[derive(Default)]
struct Reads {
    latency: common::Samples,
    attempted: u64,
    failed: u64,
    engine: EngineTotals,
    execute_us: std::collections::BTreeMap<&'static str, Vec<f64>>,
    plan_hit_ratio: f64,
}

impl Reads {
    fn qps(&self) -> f64 {
        let ms = self.latency.latencies();
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9)
    }
}

struct Phase {
    writes: Writes,
    reader: Reads,
    cpu_util: f64,
}

/// Run writer and reader side by side for `window`.
fn phase(
    db: &Database,
    dir: &Path,
    writer: &Writer,
    reads: &[(&'static str, String)],
    points: &[String],
    window: Duration,
    tracer: Option<&Tracer>,
) -> Phase {
    // ordering: Relaxed — a stop flag that publishes no data.
    let stop = AtomicBool::new(false);
    let plans0 = db.plan_cache_stats();
    let cpu = common::CpuClock::start();
    let (writes, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| write_loop(db, dir, writer, &stop, tracer));
        let rd = s.spawn(|| read_loop(db, reads, points, &stop, tracer));
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        (
            w.join().expect("writer thread panicked"),
            rd.join().expect("reader thread panicked"),
        )
    });
    let plans = db.plan_cache_stats();
    let mut reader = reader;
    reader.plan_hit_ratio = common::ratio(
        plans.hits - plans0.hits,
        plans.hits - plans0.hits + plans.misses - plans0.misses,
    );
    Phase {
        writes,
        reader,
        cpu_util: cpu.util(),
    }
}

fn write_loop(
    db: &Database,
    dir: &Path,
    writer: &Writer,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> Writes {
    let mut out = Writes::default();
    let mut st = writer.state.lock();
    let policy = policy();
    let t_start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let present: Vec<usize> = (0..st.present.len()).filter(|&i| st.present[i]).collect();
        let absent: Vec<usize> = (0..st.present.len()).filter(|&i| !st.present[i]).collect();
        let delete = !present.is_empty() && (absent.is_empty() || st.rng.random_bool(DELETE_SHARE));
        let pick = if delete { &present } else { &absent };
        let i = pick[st.rng.random_range(0..pick.len())];
        let b = &writer.batches[i];
        let rid = out.batches;
        let wal0 = tracer.map(|_| stats::wal_bytes(dir));
        let in_flight = st.reorg.is_some();
        let t0 = Instant::now();
        let ok = match (tracer, delete) {
            (None, true) => db.delete_triples(&b.triples).is_ok(),
            (None, false) => db.insert_ntriples(&b.text).is_ok(),
            (Some(t), true) => t
                .span("storage.delete_triples", rid, || {
                    db.delete_triples(&b.triples)
                })
                .is_ok(),
            // Traced, the insert is split into its two layers:
            // `insert_ntriples` is `parse_document` then `insert_terms`.
            (Some(t), false) => t.span("storage.write_batch", rid, || {
                let parsed = t.span("model.parse_document", rid, || {
                    ntriples::parse_document(&b.text)
                });
                parsed.is_ok_and(|p| {
                    t.span("storage.insert_terms", rid, || db.insert_terms(&p))
                        .is_ok()
                })
            }),
        };
        let el = ms(t0.elapsed());
        out.batches += 1;
        out.batch_ms.push(el);
        if in_flight {
            out.stall_max_ms = out.stall_max_ms.max(el);
        }
        if ok {
            st.present[i] = !delete;
            if !delete {
                out.inserted += b.triples.len() as u64;
                if let Some(w0) = wal0 {
                    let w1 = stats::wal_bytes(dir);
                    if w1 >= w0 {
                        out.wal_bytes += w1 - w0;
                        out.wal_triples += b.triples.len() as u64;
                    }
                }
            }
        } else {
            out.failed += 1;
        }
        let d = db.drift_stats();
        out.drift.push((
            (d.n_delta_inserts + d.n_tombstones) as f64,
            d.irregular_ratio(),
            d.unmatched_ratio(),
        ));
        // Reap a finished rebuild, then offer the next one.
        if st.reorg.as_ref().is_some_and(|(h, _)| h.is_finished()) {
            let (handle, started) = st.reorg.take().expect("checked above");
            if handle.wait().is_ok_and(|o| o.swapped) {
                out.cycles += 1;
            }
            st.reorg_ms.push(ms(started.elapsed()));
        }
        if st.reorg.is_none() {
            if let Ok(Some(handle)) = db.maybe_reorganize_async(&policy) {
                st.reorg = Some((handle, Instant::now()));
            }
        }
    }
    out.busy_s = t_start.elapsed().as_secs_f64();
    out
}

fn read_loop(
    db: &Database,
    reads: &[(&'static str, String)],
    points: &[String],
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> Reads {
    let mut out = Reads::default();
    out.latency.begin(Instant::now());
    let mut step = 0usize;
    while !stop.load(Ordering::Relaxed) {
        // Round robin: star4, q6, point.
        let (id, text) = match step % 3 {
            0 | 1 => (reads[step % 3].0, reads[step % 3].1.as_str()),
            _ => ("point", points[(step / 3) % points.len()].as_str()),
        };
        step += 1;
        out.attempted += 1;
        let req = QueryRequest::sparql(text);
        // Traced, the query's time is its execute span; parsing, planning
        // and decoding run beside it in their own spans.
        let (el, rows) = match tracer {
            None => {
                let t0 = Instant::now();
                let rows = db.execute(&req).ok().map(|resp| resp.results.len());
                (ms(t0.elapsed()), rows)
            }
            Some(t) => {
                let rid = 1 << 40 | step as u64;
                let calls = t.span("loadgen.request", rid, || {
                    common::traced_request(t, db, rid, text, &req, &mut out.engine, |resp| {
                        resp.results.render(&resp.pin).len()
                    })
                });
                match calls {
                    Some(c) => {
                        out.execute_us.entry(id).or_default().push(c.execute_us);
                        (c.execute_us / 1e3, Some(c.rows))
                    }
                    None => (0.0, None),
                }
            }
        };
        out.latency.push(el);
        // Point lookups target base subjects, which the writer never
        // touches: exactly one row.
        if rows.is_none() || (id == "point" && rows != Some(1)) {
            out.failed += 1;
        }
    }
    out
}
