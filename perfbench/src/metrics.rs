//! Every metric the benchmark reports, by name and unit. A run prints
//! exactly [`END_TO_END`] untraced and exactly [`PER_LAYER`] traced; both
//! lists mirror `BENCHMARK.json`.

/// Metrics a user of the system would see, from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ckpt_capacity_per_s", "ckpt/s"),
    ("sim_runs_per_s", "runs/s"),
    ("failover_ms_p50", "ms"),
    ("node_cpu_pct", "%"),
    ("node_rss_mb", "MB"),
];

/// Metrics of single layers, and the latency figures too host-sensitive
/// to gate, from traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ckpt_ack_p50_us.light", "us"),
    ("ckpt_ack_p99_us.light", "us"),
    ("ckpt_ack_p50_us.heavy", "us"),
    ("ckpt_ack_p99_us.heavy", "us"),
    ("ckpt_max_rate_per_s", "ckpt/s"),
    ("resync_ms_p50", "ms"),
    ("resync_ms_p95", "ms"),
    ("failed_pct", "%"),
    ("gen.late_p99_us", "us"),
    ("ds-net.post_wait_us_p50", "us"),
    ("ds-net.post_wait_us_p99", "us"),
    ("oftt.checkpoint.capture_us", "us"),
    ("oftt.checkpoint.seal_us", "us"),
    ("oftt.checkpoint.offer_us", "us"),
    ("oftt-wire.send_us", "us"),
    ("oftt-wire.fwd_transit_us_p50", "us"),
    ("oftt-wire.fwd_transit_us_p99", "us"),
    ("oftt-wire.ack_transit_us_p50", "us"),
    ("oftt-wire.queued_max", "frames"),
    ("oftt-wire.bytes_per_ckpt", "B"),
    ("oftt-wire.dropped_frames", "count"),
    ("oftt-wire.purged", "count"),
    ("comsim.pool_hit_pct", "%"),
    ("oftt-wire.trace_entries_per_ckpt", "count"),
    ("proc.allocs_per_ckpt", "count"),
    ("cpu.reactor_pct", "%"),
    ("cpu.actor_pct", "%"),
    ("cpu.gen_pct", "%"),
    ("oftt-campaign.expand_us", "us"),
    ("oftt-check.run_script_ms", "ms"),
    ("oftt-check.invariants_ms", "ms"),
    ("oftt-check.outcome_us", "us"),
    ("oftt-harness.build_ms", "ms"),
    ("ds-sim.run_ms", "ms"),
    ("ds-sim.render_ms", "ms"),
    ("oftt-check.parse_ms", "ms"),
    ("ds-sim.trace_entries_per_run", "count"),
    ("ds-sim.trace_bytes_per_run", "B"),
    ("ds-sim.choice_points_per_run", "count"),
    ("oftt-check.events_per_run", "count"),
    ("ds-net.msgs_per_run", "count"),
    ("msgq.transfer_ack_ratio", "ratio"),
    ("msgq.retransmissions_per_run", "count"),
    ("msgq.duplicates_dropped_per_run", "count"),
    ("msgq.dead_lettered_per_run", "count"),
    ("oftt.sim_failover_ms_p50", "ms"),
    ("node.ready_ms", "ms"),
    ("node.pair_ms", "ms"),
    ("failover.promote_ms", "ms"),
    ("failover.activate_ms", "ms"),
    ("node.trace_lines_per_s", "lines/s"),
    ("node.rss_growth_kb_per_s", "kB/s"),
    ("node.threads", "count"),
    ("node.cpu_primary_pct", "%"),
    ("node.cpu_backup_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Metric values collected during a run, by name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object for `list`, in list order. Every name must
    /// have been set, with a finite value.
    pub fn render(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value =
                self.get(name).ok_or_else(|| format!("metric {name} was never measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// The `{"name": …, "unit": …}` entries of one section of
    /// `BENCHMARK.json`, in file order.
    fn section(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = section(&doc, key);
            let emitted: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            for (name, _) in &emitted {
                assert!(valid_name(name), "{name} does not match [A-Za-z0-9_.-]+");
            }
            assert_eq!(
                emitted, declared,
                "{key} in BENCHMARK.json must list exactly these metrics"
            );
        }
    }

    #[test]
    fn render_refuses_missing_or_non_finite_values() {
        let mut v = Values::default();
        v.set("a", 1.5);
        assert_eq!(v.render(&[("a", "s")]).unwrap(), "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}");
        assert!(v.render(&[("b", "s")]).is_err());
        v.set("a", f64::NAN);
        assert!(v.render(&[("a", "s")]).is_err());
    }
}
