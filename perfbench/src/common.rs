//! What every workload shares: arguments, the seeded RDF-H inputs, store
//! set-up, the query catalog, correctness checks and the run report.

use crate::stats::{self, Summary};
use crate::trace::Tracer;
use sordf::{
    Database, ExecConfig, Generation, ParallelConfig, PlanScheme, QueryRequest, QueryResponse,
};
use sordf_model::TermTriple;
use sordf_rdfh::{generate, RdfhConfig, ALL_QUERIES};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// RDF-H scale factor of every workload (≈ 0.2M triples): small enough
/// that a catalog stream takes a few milliseconds, so a run collects the
/// thousand samples a p99 needs.
pub const SF: f64 = 0.002;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let val = |name: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == name)
                .ok_or(format!("missing {name}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{name} needs a value"))
        };
        let workload = val("--workload")?;
        let seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = val("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match val("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// The measurement window. A traced run splits it: the first half runs
    /// untraced (the reference for `trace.overhead_frac`), the second traced.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// The RDF-H triples for `seed`.
pub fn rdfh_triples(seed: u64) -> Vec<TermTriple> {
    generate(&RdfhConfig { sf: SF, seed }).triples
}

/// A seed for an auxiliary generator (query parameters, batch order),
/// distinct from the data seed.
pub fn derived_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream
}

pub const NS: &str = sordf_rdfh::gen::NS;

/// The lineitem subjects RDF-H generates (`lineitem<orderkey*8+line>`).
pub fn lineitem_keys(triples: &[TermTriple]) -> Vec<u64> {
    let prefix = format!("{NS}lineitem");
    let mut keys: Vec<u64> = triples
        .iter()
        .filter(|t| t.p.as_iri() == Some(sordf_model::vocab::RDF_TYPE))
        .filter_map(|t| t.s.as_iri()?.strip_prefix(&prefix)?.parse().ok())
        .collect();
    keys.sort_unstable();
    keys
}

/// A bound-subject point lookup.
pub fn point_query(lineitem: u64) -> String {
    format!(
        "PREFIX rdfh: <{NS}>\nSELECT ?q ?price ?ship WHERE {{ rdfh:lineitem{lineitem} \
         rdfh:lineitem_quantity ?q . rdfh:lineitem{lineitem} rdfh:lineitem_extendedprice ?price . \
         rdfh:lineitem{lineitem} rdfh:lineitem_shipdate ?ship . }}"
    )
}

/// The RDFscan + zone-map configuration of the paper's fastest Table I row.
pub fn rdfscan() -> ExecConfig {
    ExecConfig {
        scheme: PlanScheme::RdfScanJoin,
        zonemaps: true,
        ..Default::default()
    }
}

/// The read catalog of `rdfh_olap` and `rdfh_cold`: the RDF-H queries, the
/// width-6 RDFscan star and the 36-month Q6, as `(id, text)`.
pub fn catalog() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = ALL_QUERIES
        .iter()
        .map(|&q| (query_id(q), sordf_rdfh::query(q).to_string()))
        .collect();
    out.push(("star6", sordf_bench::scenarios::star_query(6)));
    out.push(("q6_36mo", sordf_bench::scenarios::q6_query(36)));
    out
}

fn query_id(q: sordf_rdfh::QueryId) -> &'static str {
    use sordf_rdfh::QueryId::*;
    match q {
        Q1 => "q1",
        Q3 => "q3",
        Q5 => "q5",
        Q6 => "q6",
        Q10 => "q10",
        Q14 => "q14",
    }
}

/// Where a run keeps its stores; removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new("perfbench/work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up timings, each over [`SETUP_REPS`] repetitions.
#[derive(Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub organize_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
}

impl SetupTimes {
    pub fn report(&self, r: &mut Report) {
        r.e2e("setup_s", stats::median(&self.total_s), "s");
        r.set_count("setup_s", self.total_s.len());
        r.layer("model.load_ms", stats::median(&self.load_ms), "ms");
        r.layer("schema.organize_ms", stats::median(&self.organize_ms), "ms");
        r.layer(
            "storage.checkpoint_ms",
            stats::median(&self.checkpoint_ms),
            "ms",
        );
        r.note(format!(
            "setup_s: median of {} set-ups {:?}",
            self.total_s.len(),
            self.total_s
        ));
    }
}

/// Load and self-organize `triples` into a fresh page-file-backed store,
/// [`SETUP_REPS`] times; returns the last store.
pub fn setup_store(
    work: &WorkDir,
    triples: &[TermTriple],
    tracer: &Tracer,
) -> Result<(Database, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut db = None;
    for rep in 0..SETUP_REPS {
        drop(db.take());
        let fresh = Database::create(&work.path(&format!("store{rep}.db"))).map_err(err)?;
        let t0 = Instant::now();
        tracer
            .span("model.load_terms", 0, || fresh.load_terms(triples))
            .map_err(err)?;
        let t1 = Instant::now();
        tracer
            .span("schema.self_organize", 0, || fresh.self_organize())
            .map_err(err)?;
        let t2 = Instant::now();
        times.total_s.push((t2 - t0).as_secs_f64());
        times.load_ms.push(stats::ms(t1 - t0));
        times.organize_ms.push(stats::ms(t2 - t1));
        db = Some(fresh);
    }
    Ok((db.expect("SETUP_REPS > 0"), times))
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `req` and return its canonical (sorted, decoded) rows, decoded
/// through the response's own dictionary pin.
pub fn canonical(db: &Database, req: &QueryRequest) -> Result<Vec<String>, String> {
    let resp = db.execute(req).map_err(err)?;
    Ok(resp.results.canonical(&resp.pin))
}

/// The Baseline-generation / Default-scheme reference path: exhaustive
/// permutation indexes, parse-order OIDs, pairwise joins, no zone maps.
pub fn baseline_request(text: &str) -> QueryRequest {
    QueryRequest::sparql(text)
        .generation(Generation::Baseline)
        .config(ExecConfig {
            scheme: PlanScheme::Default,
            zonemaps: false,
            ..Default::default()
        })
}

/// Operator statistics summed over traced responses.
#[derive(Default)]
pub struct EngineTotals {
    pub queries: u64,
    pub results: u64,
    pub rows_scanned: u64,
    pub pages_scanned: u64,
    pub pages_skipped: u64,
    pub joins: u64,
    pub pool_misses: u64,
}

impl EngineTotals {
    pub fn add(&mut self, resp: &QueryResponse) {
        self.queries += 1;
        self.results += resp.results.len() as u64;
        if let Some(s) = &resp.stats {
            self.rows_scanned += s.rows_scanned;
            self.pages_scanned += s.pages_scanned;
            self.pages_skipped += s.zonemap_pages_skipped;
            self.joins += s.total_joins();
        }
        if let Some(p) = &resp.pool {
            self.pool_misses += p.misses;
        }
    }

    pub fn merge(&mut self, other: &EngineTotals) {
        self.queries += other.queries;
        self.results += other.results;
        self.rows_scanned += other.rows_scanned;
        self.pages_scanned += other.pages_scanned;
        self.pages_skipped += other.pages_skipped;
        self.joins += other.joins;
        self.pool_misses += other.pool_misses;
    }

    pub fn report(&self, r: &mut Report) {
        let q = self.queries.max(1) as f64;
        r.layer(
            "engine.rows_scanned_per_result",
            self.rows_scanned as f64 / self.results.max(1) as f64,
            "ratio",
        );
        r.layer(
            "engine.pages_scanned_per_query",
            self.pages_scanned as f64 / q,
            "count",
        );
        r.layer(
            "engine.zonemap_skip_ratio",
            ratio(self.pages_skipped, self.pages_skipped + self.pages_scanned),
            "ratio",
        );
        r.layer("engine.joins_per_query", self.joins as f64 / q, "count");
        r.layer(
            "columnar.pool_misses_per_query",
            self.pool_misses as f64 / q,
            "count",
        );
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Space metrics every workload reports, from `memory_stats()`.
pub fn report_memory(db: &Database, r: &mut Report) {
    let m = db.memory_stats();
    let n = m.n_triples.max(1) as f64;
    r.e2e("mem_bytes_per_triple", m.bytes_per_triple(), "B/triple");
    r.layer(
        "columnar.column_bytes_per_triple",
        m.column_bytes as f64 / n,
        "B/triple",
    );
    r.layer(
        "model.dict_bytes_per_triple",
        m.dict_bytes as f64 / n,
        "B/triple",
    );
    let pool_bytes = db.buffer_pool().capacity() as u64 * sordf_columnar::PAGE_BYTES as u64;
    r.record("column_bytes", m.column_bytes.to_string());
    r.record("pool_capacity_bytes", pool_bytes.to_string());
    r.record("n_triples", m.n_triples.to_string());
}

/// Drift ratios of the emergent schema.
pub fn report_drift(db: &Database, r: &mut Report) {
    let d = db.drift_stats();
    r.layer("schema.irregular_ratio", d.irregular_ratio(), "ratio");
    r.layer(
        "schema.unmatched_subject_ratio",
        d.unmatched_ratio(),
        "ratio",
    );
}

/// Slices a measurement window is cut into. Other tenants of a shared
/// host slow the program down for seconds at a time, and interference only
/// ever adds time: each latency statistic is therefore taken over the half
/// of the slices where it is lowest (see [`Samples::best_half`]), so an
/// episode of interference covering less than half the window leaves the
/// result as it was.
pub const SLICES: usize = 10;

/// Latency samples stamped with when they ended.
#[derive(Default)]
pub struct Samples {
    start: Option<Instant>,
    /// (seconds since the first `begin`, latency in ms)
    pub points: Vec<(f64, f64)>,
}

impl Samples {
    /// Start the clock the samples are stamped against.
    pub fn begin(&mut self, at: Instant) {
        self.start.get_or_insert(at);
    }

    pub fn push(&mut self, latency_ms: f64) {
        let start = *self.start.get_or_insert_with(Instant::now);
        self.points
            .push((start.elapsed().as_secs_f64(), latency_ms));
    }

    pub fn extend(&mut self, other: Samples) {
        self.points.extend(other.points);
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.1).collect()
    }

    /// The samples of each of [`SLICES`] equal slices of `[0, window_s)`.
    pub fn slices(&self, window_s: f64) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SLICES];
        for &(t, ms) in &self.points {
            let i = ((t / window_s) * SLICES as f64) as usize;
            out[i.min(SLICES - 1)].push(ms);
        }
        out
    }

    /// The samples of the half of the slices where `stat` is lowest,
    /// pooled.
    pub fn best_half(&self, window_s: f64, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        let mut slices: Vec<(f64, Vec<f64>)> = self
            .slices(window_s)
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| (stat(&s), s))
            .collect();
        slices.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = slices.len().div_ceil(2);
        slices.into_iter().take(keep).flat_map(|(_, s)| s).collect()
    }
}

/// The 99th percentile of unsorted samples (0 when empty).
fn p99(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p99)
}

/// The end-to-end latency metrics of a closed loop: `query_qps` (each
/// sample covers `ops` operations; the rate is per second of measured
/// time, over the half of the slices with the lowest median latency) and
/// see [`report_p50_p99`].
pub fn report_latency(r: &mut Report, label: &str, samples: &Samples, window_s: f64, ops: f64) {
    let quiet = samples.best_half(window_s, stats::median);
    let secs = quiet.iter().sum::<f64>() / 1e3;
    r.e2e(
        "query_qps",
        ops * quiet.len() as f64 / secs.max(1e-9),
        "1/s",
    );
    r.set_count("query_qps", quiet.len());
    report_p50_p99(r, label, samples, window_s);
}

/// `query_p50_ms` over the half of the slices with the lowest median, and
/// `query_p99_ms` over the half with the lowest p99.
pub fn report_p50_p99(r: &mut Report, label: &str, samples: &Samples, window_s: f64) {
    r.samples = samples.points.clone();
    let per_slice: Vec<f64> = samples
        .slices(window_s)
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| (stats::median(s) * 1e3).round() / 1e3)
        .collect();
    r.note(format!("{label}: per-slice p50 ms {per_slice:?}"));
    let (Some(mid), Some(tail)) = (
        Summary::of(&samples.best_half(window_s, stats::median)),
        Summary::of(&samples.best_half(window_s, p99)),
    ) else {
        r.note(format!("{label}: no samples"));
        return;
    };
    r.e2e("query_p50_ms", mid.p50, "ms");
    r.e2e("query_p99_ms", tail.p99, "ms");
    r.set_count("query_p50_ms", mid.n);
    r.set_count("query_p99_ms", tail.n);
    r.note(format!(
        "{label}: {} samples; p50={:.4}ms over n={}; p99={:.4}ms over n={}{}, tail p{}={:.4}ms",
        samples.points.len(),
        mid.p50,
        mid.n,
        tail.p99,
        tail.n,
        if tail.p99_supported() {
            ""
        } else {
            " (fewer than 10 samples beyond p99)"
        },
        tail.tail_pct,
        tail.tail
    ));
}

/// CPU utilization of the process over an interval.
pub struct CpuClock {
    cpu0: Option<f64>,
    wall0: Instant,
}

impl CpuClock {
    pub fn start() -> CpuClock {
        CpuClock {
            cpu0: stats::process_cpu_secs(),
            wall0: Instant::now(),
        }
    }

    pub fn util(&self) -> f64 {
        match (self.cpu0, stats::process_cpu_secs()) {
            (Some(a), Some(b)) => stats::cpu_util(
                b - a,
                self.wall0.elapsed().as_secs_f64(),
                sordf_bench::cli::host_cpus(),
            ),
            _ => 0.0,
        }
    }
}

/// One metric of the report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one run produces.
#[derive(Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The run record: seed, scale, host, policies, sizes.
    pub record: Vec<(String, String)>,
    /// The latency samples behind the end-to-end metrics, as (seconds into
    /// the window, ms).
    pub samples: Vec<(f64, f64)>,
    /// Sample counts behind metrics, by metric name.
    pub counts: Vec<(String, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness gate passed.
    pub correct: bool,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        push_metric(&mut self.e2e, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        push_metric(&mut self.layer, name, value, unit);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn record(&mut self, key: &str, value: String) {
        self.record.retain(|(k, _)| k != key);
        self.record.push((key.to_string(), value));
    }

    /// Record a failed correctness gate.
    pub fn gate_failed(&mut self, what: String) {
        self.correct = false;
        self.note(format!("GATE FAILED: {what}"));
    }

    pub fn set_count(&mut self, name: &str, n: usize) {
        self.counts.push((name.to_string(), n));
    }

    pub fn count(&self, name: &str) -> Option<usize> {
        self.counts.iter().find(|(k, _)| k == name).map(|(_, n)| *n)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn push_metric(list: &mut Vec<Metric>, name: &str, value: f64, unit: &str) {
    list.retain(|m| m.name != name);
    list.push(Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    });
}

/// Sequential over `par`-way execution time of `texts`, hot, five times,
/// alternating the two so drift affects both alike.
pub fn parallel_speedup(db: &Database, texts: &[String], par: ParallelConfig) -> f64 {
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for _ in 0..5 {
        for text in texts {
            let seq = QueryRequest::sparql(text.as_str())
                .generation(Generation::Clustered)
                .config(rdfscan());
            let parallel = seq.clone().parallel(par);
            let t0 = Instant::now();
            let _ = db.execute(&seq);
            seq_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = db.execute(&parallel);
            par_s += t1.elapsed().as_secs_f64();
        }
    }
    seq_s / par_s
}

/// The layer calls of one traced query.
pub struct TracedCalls {
    pub execute_us: f64,
    pub decode_us: f64,
    pub rows: usize,
    pub misses: u64,
}

/// Run one query with every layer call in its own span: parse
/// (`sparql.parse`), plan (`core.plan`, an `explain_with`, which
/// re-parses), execute with operator statistics (`core.execute`) and
/// decode under the response's pin (`core.decode`, done by `decode`, which
/// returns the row count). Callers open the request's root span.
pub fn traced_request(
    t: &Tracer,
    db: &Database,
    rid: u64,
    text: &str,
    req: &QueryRequest,
    engine: &mut EngineTotals,
    decode: impl FnOnce(&QueryResponse) -> usize,
) -> Option<TracedCalls> {
    let dict = db.dict();
    t.span("sparql.parse", rid, || {
        sordf_sparql::parse_sparql(text, &dict)
    })
    .ok()?;
    drop(dict);
    let generation = db.default_generation().ok()?;
    t.span("core.plan", rid, || {
        db.explain_with(text, generation, rdfscan())
    })
    .ok()?;
    let t0 = Instant::now();
    let resp = t
        .span("core.execute", rid, || {
            db.execute(&req.clone().traced(true))
        })
        .ok()?;
    let execute_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let rows = t.span("core.decode", rid, || decode(&resp));
    let decode_us = t1.elapsed().as_secs_f64() * 1e6;
    engine.add(&resp);
    Some(TracedCalls {
        execute_us,
        decode_us,
        rows,
        misses: resp.pool.map_or(0, |p| p.misses),
    })
}

/// Per-query layer times and shares of query time from the spans of
/// [`traced_request`], for in-process workloads, where a query's time is
/// its `core.execute` span: decoding happens after it, on the caller's
/// side. Within execute, parsing is the `sparql.parse` span; optimizing is
/// `core.plan` minus parsing, paid only on plan-cache misses; page misses
/// cost `miss_us` each (columnar); the rest is engine work.
pub fn report_shares(t: &Tracer, queries: u64, misses: u64, miss_us: f64, r: &mut Report) {
    let sum = |name: &str| t.durations(name).iter().sum::<f64>();
    let (parse, plan, execute, decode) = (
        sum("sparql.parse"),
        sum("core.plan"),
        sum("core.execute"),
        sum("core.decode"),
    );
    let n = queries.max(1) as f64;
    let miss_rate = 1.0 - r.value("core.plan_cache_hit_ratio").unwrap_or(0.0);
    let optimize = (plan - parse).max(0.0);
    let columnar = miss_us * misses as f64;
    let total = execute.max(f64::MIN_POSITIVE);
    r.layer("sparql.parse_us", parse / n, "us");
    r.layer("core.optimize_us", optimize / n, "us");
    r.layer("core.decode_us", decode / n, "us");
    r.layer("share.server", 0.0, "ratio");
    r.layer("share.sparql", parse / total, "ratio");
    r.layer("share.core", optimize * miss_rate / total, "ratio");
    r.layer(
        "share.engine",
        (execute - parse - optimize * miss_rate - columnar).max(0.0) / total,
        "ratio",
    );
    r.layer("share.columnar", columnar / total, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_half_drops_the_disturbed_slices() {
        // Ten one-second slices of 1 ms samples; slices 2, 5 and 7 are
        // slowed down by interference.
        let mut s = Samples::default();
        for i in 0..100 {
            let slice = i / 10;
            let ms = if [2, 5, 7].contains(&slice) { 9.0 } else { 1.0 };
            s.points.push((i as f64 / 10.0 + 0.05, ms));
        }
        let slices = s.slices(10.0);
        assert_eq!(slices.len(), SLICES);
        assert!(slices.iter().all(|v| v.len() == 10));
        let best = s.best_half(10.0, stats::median);
        assert_eq!(best.len(), 50);
        assert!(best.iter().all(|&ms| ms == 1.0));
        // Samples stamped after the window land in the last slice.
        s.points.push((10.5, 1.0));
        assert_eq!(s.slices(10.0)[SLICES - 1].len(), 11);
    }
}
