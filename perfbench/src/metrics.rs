//! Metric names and units, and the result line the benchmark prints.

/// End-to-end metrics of untraced runs (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mb_s", "MB/s"),
    ("first_result_ms", "ms"),
    ("result_latency_p50_ms", "ms"),
    ("result_latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of traced runs (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sax.read.bytes", "bytes"),
    ("sax.read.busy_s", "s"),
    ("sax.read.wait_s", "s"),
    ("sax.scan.gb_s", "GB/s"),
    ("sax.reader.events", "count"),
    ("sax.reader.busy_s", "s"),
    ("sax.reader.ns_per_event", "ns"),
    ("sax.symbol.lookups", "count"),
    ("sax.symbol.busy_s", "s"),
    ("sax.attrs.tags_decoded", "count"),
    ("sax.attrs.decode_frac", "fraction"),
    ("sax.attrs.busy_s", "s"),
    ("core.compile.busy_s", "s"),
    ("core.compile.machine_size", "count"),
    ("core.engine.events", "count"),
    ("core.engine.busy_s", "s"),
    ("core.engine.ns_per_event", "ns"),
    ("core.engine.pushes", "count"),
    ("core.engine.pops", "count"),
    ("core.engine.qualification_probes", "count"),
    ("core.engine.upload_probes", "count"),
    ("core.engine.candidates_merged", "count"),
    ("core.engine.work", "count"),
    ("core.engine.results", "count"),
    ("core.engine.results_per_push", "fraction"),
    ("core.engine.peak_entries", "count"),
    ("core.engine.peak_candidates", "count"),
    ("sax.batch.busy_s", "s"),
    ("sax.batch.batches", "count"),
    ("core.relevance.drop_frac", "fraction"),
    ("core.pipeline.consumer_busy_s", "s"),
    ("core.pipeline.producer_stalls", "count"),
    ("core.pipeline.consumer_stalls", "count"),
    ("core.pipeline.max_queue_depth", "count"),
    ("cli.output.results", "count"),
    ("cli.output.bytes", "bytes"),
    ("cli.output.busy_s", "s"),
    ("cli.output.held_frac", "fraction"),
    ("gen.lag_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
];

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (`twigm` processes, feed passes, replays).
    pub attempted: u64,
    /// Operations whose output or exit status was wrong, or that broke
    /// the feed's lag or backlog bounds.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// Counts one operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of `table`, in its order.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
