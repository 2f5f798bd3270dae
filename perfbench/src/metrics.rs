//! The benchmark's metric vocabulary: every name it prints, with its
//! unit, and the JSON rendering of one run's values.

use crate::common::Metrics;

/// Every workload the binary runs. `grow_segment` is not declared in
/// `BENCHMARK.json`: its write-path timings follow the host's file-system
/// speed too closely to gate on (see README.md, "Steadiness").
pub const WORKLOADS: &[&str] = &["serve_zipf", "query_long", "grow_segment"];

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("cpu_us_per_query", "us"),
    ("index_docs_per_s", "1/s"),
    ("lookups_per_query", "count"),
    ("postings_per_query", "count"),
    ("bytes_per_query", "B"),
    ("insert_postings_per_doc", "count"),
    ("index_postings_per_doc", "count"),
    ("store_bytes_per_posting", "B"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.us_per_query", "us"),
    ("plan.keys_per_query", "count"),
    ("global_index.lookup_many_us_per_query", "us"),
    ("global_index.levels_per_query", "count"),
    ("global_index.found_per_probe", "ratio"),
    ("ranker.accumulate_us_per_query", "us"),
    ("ranker.ns_per_posting", "ns"),
    ("ranker.top_k_us_per_query", "us"),
    ("exec.unattributed_us_per_query", "us"),
    ("serve.http.us_per_query", "us"),
    ("serve.net.us_per_query", "us"),
    ("serve.net.rpcs_per_query", "count"),
    ("serve.codec.encode_ns_per_frame", "ns"),
    ("serve.codec.decode_ns_per_frame", "ns"),
    ("serve.codec.frame_bytes_per_query", "B"),
    ("local_indexer.us_per_doc", "us"),
    ("local_indexer.candidate_postings_per_doc", "count"),
    ("compressed.encode_ns_per_posting", "ns"),
    ("global_index.insert_round_us_per_doc", "us"),
    ("global_index.classify_round_us_per_doc", "us"),
    ("overlay.migrated_postings_per_join", "count"),
    ("store.disk_bytes_per_posting", "B"),
    ("store.sync_ms", "ms"),
];

/// Renders `metrics` as the result's JSON `metrics` object, in the order
/// of `expected`; panics unless the two name exactly the same metrics.
pub fn render(metrics: &Metrics, expected: &[(&str, &str)]) -> String {
    let mut got: Vec<&str> = metrics.0.iter().map(|(n, _)| *n).collect();
    let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "the run measured other metrics than it declares");
    let fields: Vec<String> = expected
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .0
                .iter()
                .find(|(n, _)| n == name)
                .expect("checked above")
                .1;
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one section of `BENCHMARK.json`,
    /// read with a scanner made for that file's one-object-per-line
    /// layout.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let value = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((value(l, "name")?, value(l, "unit")?)))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), pairs(END_TO_END));
        assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    }

    #[test]
    fn declared_workloads_are_runnable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"why\""))
            .map(|l| l.split('"').nth(3).expect("workload name"))
            .collect();
        assert!(!declared.is_empty());
        for w in declared {
            assert!(WORKLOADS.contains(&w), "{w} is declared but not runnable");
        }
    }

    #[test]
    fn render_refuses_a_missing_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        let out = std::panic::catch_unwind(|| render(&m, END_TO_END));
        assert!(out.is_err());
        let one = render(&m, &[("setup_s", "s")]);
        assert_eq!(one, "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
    }
}
