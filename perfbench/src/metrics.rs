//! Metric names and units (the contract with `BENCHMARK.json`), the
//! statistics the benchmark reports, and process-level measurements.

/// End-to-end metrics, printed with `--trace 0`. Clock: `wall` is the Rust
/// code's real cost, `virtual` is the cost model's charged time (a
/// cost-model result, not a code result).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("goodput_qps", "1/s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.cpu_scan_s", "s"),
    ("sim.cpu_select_s", "s"),
    ("sim.cpu_hashing_s", "s"),
    ("sim.cpu_join_s", "s"),
    ("sim.cpu_aggregation_s", "s"),
    ("sim.cpu_sort_s", "s"),
    ("sim.cpu_copy_s", "s"),
    ("sim.cpu_locks_s", "s"),
    ("sim.cpu_admission_s", "s"),
    ("sim.cpu_routing_s", "s"),
    ("sim.cpu_misc_s", "s"),
    ("sim.avg_cores_used", "cores"),
    ("sim.charge_event_ns", "ns"),
    ("sim.handoff_ns", "ns"),
    ("storage.pool_hit_ratio", "fraction"),
    ("storage.fs_hit_ratio", "fraction"),
    ("storage.disk_bytes_read", "bytes"),
    ("storage.disk_requests", "count"),
    ("storage.disk_busy_s", "s"),
    ("storage.read_page_us", "us"),
    ("storage.instantiate_s", "s"),
    ("datagen.generate_s", "s"),
    ("common.decode_ns_per_row", "ns"),
    ("common.pred_eval_ns_per_row", "ns"),
    ("cjoin.admitted", "count"),
    ("cjoin.admission_batches", "count"),
    ("cjoin.admission_dim_rows", "count"),
    ("cjoin.fabric_windows", "count"),
    ("cjoin.fabric_cross_stage_windows", "count"),
    ("cjoin.fabric_dim_pages", "count"),
    ("cjoin.requests_per_window", "ratio"),
    ("cjoin.sp_share_ratio", "ratio"),
    ("cjoin.filter_ns_per_page", "ns"),
    ("qpipe.queries", "count"),
    ("qpipe.scan_share_ratio", "fraction"),
    ("qpipe.join_satellites", "count"),
    ("qpipe.result_satellites", "count"),
    ("core.submit_us_p50", "us"),
    ("core.submit_us_p99", "us"),
    ("core.governor_decide_ns", "ns"),
    ("core.routed_shared", "count"),
    ("core.routed_query_centric", "count"),
    ("core.governor_flips", "count"),
    ("core.shared_residual", "ratio"),
    ("core.shed_queue_full", "count"),
    ("core.shed_deadline", "count"),
    ("core.errors", "count"),
    ("core.engine_new_s", "s"),
    ("core.shutdown_s", "s"),
    ("cpu_ms_per_query", "ms"),
    ("wall_ms_per_query", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Collected metric values, printed in table order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.push((name, if v.is_finite() { v } else { 0.0 }));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
    /// over exactly the metrics of `table`, in order. Panics on a metric of
    /// the table that was never set (a driver bug).
    pub fn result_line(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .0
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// Linear-interpolated quantile of `v` (sorted in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// The tail percentile the sample supports: 0.99 when at least ten samples
/// lie beyond it, else the highest quantile with ten samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).clamp(0.0, 0.99)
}

/// Process user + system CPU seconds (all threads, live and exited), from
/// `/proc/self/stat` (clock ticks of the fixed 100 Hz `USER_HZ`).
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// A numeric field of `/proc/self/status` (units stripped), 0 if absent.
fn proc_status(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM") / 1024.0
}

/// Current resident set size (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    proc_status("VmRSS") / 1024.0
}

/// OS threads of this process (vthread carriers included).
pub fn os_threads() -> f64 {
    proc_status("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<x>"` entries of a JSON array section, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let rest = &json[start..];
        &rest[..rest.find(']').expect("array closes")]
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(section(json, "end_to_end")), e2e);
        assert_eq!(names_in(section(json, "per_layer")), layer);
        let workloads: Vec<&str> = crate::workload::Workload::all()
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names_in(section(json, "workloads")), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name}: unit {unit} not in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_table() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let line = v.result_line(END_TO_END, true, 3, 0);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
    }
}
