//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rdfh_olap|rdfh_cold|http_serve|ingest_reorg> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its RDF-H inputs from
//! the seed, sets the program up, checks its answers, measures for the
//! given seconds and prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Untraced
//! (`--trace 0`) the metrics are the end-to-end ones; traced (`--trace 1`)
//! they are the per-layer ones, derived from spans the benchmark records
//! around its calls into each layer. Lines before it give the run record
//! and a human-readable table. Stores live under `perfbench/work/` for the
//! run; the run record, metrics and spans are kept under `perfbench/out/`.

mod common;
mod http;
mod ingest;
mod metrics;
mod olap;
mod stats;
mod trace;

use common::{Args, Report};
use std::fmt::Write as _;
use std::path::Path;
use trace::Tracer;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        fail(&format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            metrics::WORKLOADS
        ));
    }

    let tracer = Tracer::new(args.trace);
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    r.record("workload", args.workload.clone());
    r.record("seed", args.seed.to_string());
    r.record("sf", common::SF.to_string());
    r.record("seconds", args.seconds.to_string());
    r.record("trace", u8::from(args.trace).to_string());
    r.record("host_cpus", sordf_bench::cli::host_cpus().to_string());
    r.record("commit", commit());
    r.record("sync_policy", "none (non-durable page file)".into());
    let outcome = match args.workload.as_str() {
        "rdfh_olap" => olap::run(&args, false, &tracer, &mut r),
        "rdfh_cold" => olap::run(&args, true, &tracer, &mut r),
        "http_serve" => http::run(&args, &tracer, &mut r),
        "ingest_reorg" => ingest::run(&args, &tracer, &mut r),
        _ => unreachable!("checked above"),
    };
    if let Err(e) = outcome {
        fail(&e);
    }
    if r.attempted == 0 {
        fail("no operation was attempted");
    }
    r.layer("error_rate", r.failed as f64 / r.attempted as f64, "ratio");
    r.set_count("error_rate", r.attempted as usize);
    if r.failed > 0 {
        r.note(format!(
            "{} of {} operations failed or were refused",
            r.failed, r.attempted
        ));
    }
    let layers = trace::layer_table(&tracer.spans());
    for row in &layers {
        r.note(format!(
            "layer {:<9} spans={:<7} total={:>12.1}us self={:>12.1}us",
            row.layer, row.spans, row.total_us, row.self_us
        ));
    }

    let result = result_line(&args, &r);
    for line in &r.notes {
        println!("{line}");
    }
    println!("run record: {}", json_object(&r.record));
    for (name, value, unit, source) in headlines(&args.workload, &r) {
        let n = r
            .count(source)
            .map_or(String::new(), |n| format!(" (n={n})"));
        println!("end-to-end {name:<22} {value:>16.6} {unit}{n}");
    }
    for m in r.e2e.iter().chain(&r.layer) {
        println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = save(&args, &r, &tracer, &result) {
        eprintln!("perfbench: could not save the run: {e}");
    }
    println!("{result}");
    if !r.correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics that apply to a workload, by the names a reader
/// of the workload would use: the result line carries the shared
/// `query_*` names, and the write-side ones are per-layer entries.
fn headlines(workload: &str, r: &Report) -> Vec<(&'static str, f64, &'static str, &'static str)> {
    let mut names = vec![
        ("setup_s", "setup_s"),
        ("mem_bytes_per_triple", "mem_bytes_per_triple"),
        ("error_rate", "error_rate"),
    ];
    if workload == "http_serve" {
        names.extend([
            ("http_p50_ms", "query_p50_ms"),
            ("http_p99_ms", "query_p99_ms"),
            ("http_capacity_qps", "query_qps"),
        ]);
    } else {
        names.extend([
            ("query_qps", "query_qps"),
            ("query_p50_ms", "query_p50_ms"),
            ("query_p99_ms", "query_p99_ms"),
        ]);
    }
    if workload == "ingest_reorg" {
        names.extend([
            ("insert_tps", "write.insert_tps"),
            ("insert_p99_ms", "write.insert_p99_ms"),
            ("recovery_s", "write.recovery_s"),
            ("disk_bytes_per_triple", "write.disk_bytes_per_triple"),
        ]);
    }
    names
        .into_iter()
        .filter_map(|(name, source)| {
            let m = r.e2e.iter().chain(&r.layer).find(|m| m.name == source)?;
            let unit = metrics::END_TO_END
                .iter()
                .chain(metrics::PER_LAYER)
                .find(|(n, _)| *n == source)
                .map_or("ratio", |(_, u)| u);
            Some((name, m.value, unit, source))
        })
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// The result object: untraced, every end-to-end metric; traced, every
/// per-layer metric (0 where the workload does not exercise that layer).
fn result_line(args: &Args, r: &Report) -> String {
    let (names, measured) = if args.trace {
        (metrics::PER_LAYER, &r.layer)
    } else {
        (metrics::END_TO_END, &r.e2e)
    };
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = measured
            .iter()
            .find(|m| m.name == *name)
            .map_or(0.0, |m| m.value);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        r.correct, r.attempted, r.failed
    )
}

fn json_object(fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "\"{k}\": \"{v}\"");
    }
    out.push('}');
    out
}

/// Keep the run record with its result, the latency samples, and the
/// spans of a traced run under `perfbench/out/`.
fn save(args: &Args, r: &Report, tracer: &Tracer, result: &str) -> std::io::Result<()> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!(
            "{{\"record\": {}, \"result\": {result}}}\n",
            json_object(&r.record)
        ),
    )?;
    let mut samples = String::new();
    for (t, ms) in &r.samples {
        let _ = writeln!(samples, "{t:.6}\t{ms:.6}");
    }
    std::fs::write(dir.join(format!("{stem}.samples.tsv")), samples)?;
    if tracer.enabled() {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

/// The commit of the checkout, when it is a git work tree; `unknown`
/// otherwise. Read from `.git` directly so nothing outside the checkout is
/// consulted.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
