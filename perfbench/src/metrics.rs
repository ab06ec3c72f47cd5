//! The metric names the result line carries, with their units. They must
//! match `BENCHMARK.json` (checked by a test).

pub const WORKLOADS: &[&str] = &["rdfh_olap", "rdfh_cold", "http_serve", "ingest_reorg"];

/// Untraced runs: what a user of the system sees. Every workload measures
/// each of them: `query_*` time the workload's foreground operation (a
/// catalog stream on `rdfh_olap` / `rdfh_cold`, an HTTP request on
/// `http_serve`, a reader query on `ingest_reorg`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("mem_bytes_per_triple", "B/triple"),
];

/// Traced runs: one entry per layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.roundtrip_us", "us"),
    ("server.overhead_us", "us"),
    ("server.response_bytes", "bytes"),
    ("server.rejected", "count"),
    ("server.timeouts", "count"),
    ("sparql.parse_us", "us"),
    ("core.optimize_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.decode_us", "us"),
    ("core.execute_us.q1", "us"),
    ("core.execute_us.q3", "us"),
    ("core.execute_us.q5", "us"),
    ("core.execute_us.q6", "us"),
    ("core.execute_us.q10", "us"),
    ("core.execute_us.q14", "us"),
    ("core.execute_us.star6", "us"),
    ("core.execute_us.q6_36mo", "us"),
    ("core.execute_us.point", "us"),
    ("core.execute_us.q6_window", "us"),
    ("core.execute_us.rows_json", "us"),
    ("core.execute_us.star4", "us"),
    ("engine.rows_scanned_per_result", "ratio"),
    ("engine.pages_scanned_per_query", "count"),
    ("engine.zonemap_skip_ratio", "ratio"),
    ("engine.joins_per_query", "count"),
    ("engine.parallel_speedup", "ratio"),
    ("process.cpu_util", "ratio"),
    ("columnar.pool_hit_ratio", "ratio"),
    ("columnar.pool_misses_per_query", "count"),
    ("columnar.pool_evictions", "count"),
    ("columnar.miss_us_per_page", "us"),
    ("columnar.column_bytes_per_triple", "B/triple"),
    ("model.load_ms", "ms"),
    ("model.ntriples_parse_us", "us"),
    ("model.dict_bytes_per_triple", "B/triple"),
    ("schema.organize_ms", "ms"),
    ("schema.irregular_ratio", "ratio"),
    ("schema.unmatched_subject_ratio", "ratio"),
    ("storage.insert_us", "us"),
    ("storage.wal_us_per_batch", "us"),
    ("storage.wal_bytes_per_triple", "B/triple"),
    ("storage.reorg_ms", "ms"),
    ("storage.reorg_cycles", "count"),
    ("storage.insert_stall_max_ms", "ms"),
    ("storage.delta_triples_mean", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("write.insert_tps", "1/s"),
    ("write.insert_p99_ms", "ms"),
    ("write.recovery_s", "s"),
    ("write.disk_bytes_per_triple", "B/triple"),
    ("share.server", "ratio"),
    ("share.sparql", "ratio"),
    ("share.core", "ratio"),
    ("share.engine", "ratio"),
    ("share.columnar", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every object in the named array of BENCHMARK.json.
    fn declared(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..start + doc[start..].find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> Option<String> {
            let i = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[i + f.len() + 2..];
            let open = rest.find('"')? + 1;
            Some(rest[open..open + rest[open..].find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
            .collect()
    }

    #[test]
    fn names_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads = declared(&doc, "workloads");
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }
}
