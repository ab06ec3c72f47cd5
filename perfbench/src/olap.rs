//! `rdfh_olap` and `rdfh_cold`: the read catalog on the clustered
//! generation, hot with intra-query parallelism, or cold and sequential.
//!
//! One sample is one *stream*: the whole catalog run once in a fixed order,
//! as in a TPC-H power test. Reporting per stream keeps the median inside
//! one well-defined distribution instead of on the boundary between two
//! query types.

use crate::common::{self, Args, EngineTotals, Report};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use sordf::{Database, Generation, ParallelConfig, QueryRequest};
use std::collections::HashMap;
use std::time::Instant;

/// Executions per query in the parallel-speedup and cold-miss probes.
const PROBE_REPS: usize = 5;

struct Catalog {
    ids: Vec<&'static str>,
    texts: Vec<String>,
    requests: Vec<QueryRequest>,
    /// Expected row count per query, from the gate.
    rows: Vec<usize>,
}

pub fn run(args: &Args, cold: bool, tracer: &Tracer, r: &mut Report) -> Result<(), String> {
    let workers = sordf_bench::cli::host_cpus();
    let work = common::WorkDir::create(if cold { "cold" } else { "olap" }).map_err(common::err)?;
    let triples = common::rdfh_triples(args.seed);
    let (db, setup) = common::setup_store(&work, &triples, tracer)?;
    setup.report(r);
    common::report_memory(&db, r);

    let par = ParallelConfig::with_workers(workers);
    let mut cat = Catalog {
        ids: Vec::new(),
        texts: Vec::new(),
        requests: Vec::new(),
        rows: Vec::new(),
    };
    for (id, text) in common::catalog() {
        let seq = QueryRequest::sparql(text.as_str())
            .generation(Generation::Clustered)
            .config(common::rdfscan());
        let req = if cold { seq } else { seq.parallel(par) };
        cat.ids.push(id);
        cat.texts.push(text);
        cat.requests.push(req);
    }
    gate(&work, &db, &triples, &mut cat, par, r)?;
    drop(triples);
    r.record(
        "parallel_workers",
        if cold { 1 } else { workers }.to_string(),
    );

    if cold {
        db.set_read_latency_ns(0);
    }
    // Warm code paths, the allocator and (hot) the pool.
    run_stream(&db, &cat, cold, None, &mut Sink::default());

    let window = args.window();
    let pool0 = db.pool_stats();
    let plans0 = db.plan_cache_stats();
    let cpu = common::CpuClock::start();
    let mut sink = Sink::default();
    let t0 = Instant::now();
    sink.streams.begin(t0);
    while t0.elapsed() < window {
        run_stream(&db, &cat, cold, None, &mut sink);
    }
    let label = if cold { "cold streams" } else { "hot streams" };
    let qps = sink.query_ms.len() as f64 / (sink.query_ms.iter().sum::<f64>() / 1e3);
    common::report_latency(
        r,
        label,
        &sink.streams,
        window.as_secs_f64(),
        cat.requests.len() as f64,
    );
    r.attempted += sink.attempted;
    r.failed += sink.failed;
    let pool = db.pool_stats().since(&pool0);
    let plans = db.plan_cache_stats();
    r.layer("process.cpu_util", cpu.util(), "ratio");
    r.layer(
        "columnar.pool_hit_ratio",
        common::ratio(pool.hits, pool.hits + pool.misses),
        "ratio",
    );
    r.layer("columnar.pool_evictions", pool.evictions as f64, "count");
    r.layer(
        "core.plan_cache_hit_ratio",
        common::ratio(
            plans.hits - plans0.hits,
            plans.hits - plans0.hits + plans.misses - plans0.misses,
        ),
        "ratio",
    );
    common::report_drift(&db, r);

    if !tracer.enabled() {
        return Ok(());
    }
    let mut traced = Sink::default();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        run_stream(&db, &cat, cold, Some(tracer), &mut traced);
    }
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    let traced_qps = traced.query_ms.len() as f64 / (traced.query_ms.iter().sum::<f64>() / 1e3);
    r.layer("trace.overhead_frac", qps / traced_qps - 1.0, "ratio");
    traced.engine.report(r);
    for (i, id) in cat.ids.iter().enumerate() {
        let ex = traced.execute_us.get(&i).map_or(0.0, |v| stats::median(v));
        r.layer(&format!("core.execute_us.{id}"), ex, "us");
    }

    let miss_us = miss_us_per_page(&db, &cat);
    r.layer("columnar.miss_us_per_page", miss_us, "us");
    r.layer(
        "engine.parallel_speedup",
        common::parallel_speedup(&db, &cat.texts, par),
        "ratio",
    );
    common::report_shares(tracer, traced.engine.queries, traced.misses, miss_us, r);
    Ok(())
}

/// Before timing: parallel results must equal sequential ones, and both
/// must equal the Baseline-generation / Default-scheme path, canonically.
fn gate(
    work: &common::WorkDir,
    db: &Database,
    triples: &[sordf_model::TermTriple],
    cat: &mut Catalog,
    par: ParallelConfig,
    r: &mut Report,
) -> Result<(), String> {
    let reference = Database::create(&work.path("reference.db")).map_err(common::err)?;
    reference.load_terms(triples).map_err(common::err)?;
    reference.build_baseline().map_err(common::err)?;
    for (i, text) in cat.texts.iter().enumerate() {
        let seq = QueryRequest::sparql(text.as_str())
            .generation(Generation::Clustered)
            .config(common::rdfscan());
        let sequential = common::canonical(db, &seq)?;
        let parallel = common::canonical(db, &seq.clone().parallel(par))?;
        let baseline = common::canonical(&reference, &common::baseline_request(text))?;
        if sequential != parallel {
            r.gate_failed(format!("{}: parallel differs from sequential", cat.ids[i]));
        }
        if sequential != baseline {
            r.gate_failed(format!("{}: clustered differs from baseline", cat.ids[i]));
        }
        cat.rows.push(sequential.len());
    }
    r.note(format!(
        "gate: {} queries, parallel == sequential == baseline/default: {}",
        cat.texts.len(),
        r.correct
    ));
    Ok(())
}

/// What a sequence of streams observed.
#[derive(Default)]
struct Sink {
    streams: common::Samples,
    query_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    engine: EngineTotals,
    /// Per catalog index: `core.execute` span durations (µs).
    execute_us: HashMap<usize, Vec<f64>>,
    /// Traced page misses.
    misses: u64,
}

/// Run the catalog once, timing each `execute`; traced, each query is also
/// parsed, explained and decoded inside spans. Cold streams drop the page
/// cache, untimed, before every query.
fn run_stream(db: &Database, cat: &Catalog, cold: bool, tracer: Option<&Tracer>, sink: &mut Sink) {
    let mut stream_ms = 0.0;
    for (i, req) in cat.requests.iter().enumerate() {
        if cold {
            db.drop_cache();
        }
        sink.attempted += 1;
        let (el, ok) = match tracer {
            None => {
                let t0 = Instant::now();
                let resp = db.execute(req);
                let el = ms(t0.elapsed());
                (el, resp.is_ok_and(|resp| resp.results.len() == cat.rows[i]))
            }
            // Traced, the query's time is its execute span; parsing,
            // planning and decoding run beside it in their own spans.
            Some(t) => {
                let rid = sink.attempted;
                let calls = t.span("loadgen.request", rid, || {
                    common::traced_request(
                        t,
                        db,
                        rid,
                        &cat.texts[i],
                        req,
                        &mut sink.engine,
                        |resp| resp.results.render(&resp.pin).len(),
                    )
                });
                match calls {
                    Some(c) => {
                        sink.execute_us.entry(i).or_default().push(c.execute_us);
                        sink.misses += c.misses;
                        (c.execute_us / 1e3, c.rows == cat.rows[i])
                    }
                    None => (0.0, false),
                }
            }
        };
        stream_ms += el;
        sink.query_ms.push(el);
        if !ok {
            sink.failed += 1;
        }
    }
    sink.streams.push(stream_ms);
}

/// (cold − hot execute time) per page miss, over the catalog: what one
/// buffer-pool miss (page read + decode into the pool) costs.
fn miss_us_per_page(db: &Database, cat: &Catalog) -> f64 {
    let (mut cold_us, mut hot_us, mut misses) = (0.0, 0.0, 0u64);
    for req in &cat.requests {
        let traced = req.clone().traced(true);
        for _ in 0..PROBE_REPS {
            db.drop_cache();
            let t0 = Instant::now();
            let Ok(resp) = db.execute(&traced) else {
                continue;
            };
            cold_us += t0.elapsed().as_secs_f64() * 1e6;
            misses += resp.pool.map_or(0, |p| p.misses);
            let t1 = Instant::now();
            let _ = db.execute(req);
            hot_us += t1.elapsed().as_secs_f64() * 1e6;
        }
    }
    if misses == 0 {
        0.0
    } else {
        ((cold_us - hot_us) / misses as f64).max(0.0)
    }
}
