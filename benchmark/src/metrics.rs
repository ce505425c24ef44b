//! The metric catalogue: every name the benchmark emits, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test compares
//! the two), and a value can only be set under a catalogued name.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The seven end-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("session_ops_per_s", "ops/s"),
    lower("compose_us_p50", "us"),
    lower("compose_us_p99", "us"),
    higher("success_rate", "fraction"),
    lower("probe_msgs_per_request", "msgs"),
    lower("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported by traced runs. Layers are named
/// after the modules (`<crate>.<module>`). A layer a workload does not
/// exercise reads 0 there — that is the "bypass" half of the workload
/// design, not a missing value.
pub const PER_LAYER: &[MetricDef] = &[
    higher("simcore.queue.ops", "count"),
    lower("simcore.queue.busy_s", "s"),
    lower("workload.requests.busy_s", "s"),
    higher("core.protocol.compose_calls", "count"),
    lower("core.protocol.busy_s", "s"),
    lower("core.protocol.self_est_s", "s"),
    lower("core.protocol.probes_per_request", "count"),
    higher("core.protocol.probe_return_ratio", "fraction"),
    lower("core.protocol.compose_us_p999", "us"),
    lower("core.protocol.retries", "count"),
    higher("core.protocol.fault_hit_recovery", "fraction"),
    higher("core.selection.calls", "count"),
    lower("core.selection.examined_per_call", "count"),
    lower("core.selection.examined_fraction", "fraction"),
    lower("core.selection.busy_s", "s"),
    lower("core.selection.unit_ns", "ns"),
    lower("core.selection.est_s", "s"),
    higher("topology.overlay.path_lookups", "count"),
    lower("topology.overlay.lookups_per_request", "count"),
    higher("topology.overlay.path_hit_rate", "fraction"),
    lower("topology.overlay.hit_unit_ns", "ns"),
    lower("topology.overlay.miss_unit_ns", "ns"),
    lower("topology.overlay.est_s", "s"),
    higher("model.system.commit_calls", "count"),
    lower("model.system.commit_busy_s", "s"),
    higher("model.system.close_calls", "count"),
    lower("model.system.close_busy_s", "s"),
    lower("model.system.reserve_unit_ns", "ns"),
    lower("model.system.reserve_est_s", "s"),
    lower("model.system.discovery_lookups", "count"),
    higher("model.system.live_sessions_end", "count"),
    lower("model.system.leases_per_composition", "count"),
    lower("model.system.leases_leaked", "count"),
    lower("model.system.sessions_killed", "count"),
    higher("model.system.recovered_ratio", "fraction"),
    higher("state.global.refresh_calls", "count"),
    lower("state.global.refresh_busy_s", "s"),
    higher("state.global.node_skip_rate", "fraction"),
    lower("state.global.aggregate_busy_s", "s"),
    higher("state.global.link_skip_rate", "fraction"),
    lower("state.global.update_msgs", "count"),
    higher("model.audit.calls", "count"),
    lower("model.audit.busy_s", "s"),
    lower("model.audit.violations", "count"),
    lower("core.algorithms.optimal.wall_s", "s"),
    lower("core.algorithms.acp.wall_s", "s"),
    lower("core.algorithms.sp.wall_s", "s"),
    lower("core.algorithms.rp.wall_s", "s"),
    lower("core.algorithms.random.wall_s", "s"),
    lower("core.algorithms.static.wall_s", "s"),
    higher("core.algorithms.optimal.success_rate", "fraction"),
    higher("core.algorithms.acp.success_rate", "fraction"),
    higher("core.algorithms.sp.success_rate", "fraction"),
    higher("core.algorithms.rp.success_rate", "fraction"),
    higher("core.algorithms.random.success_rate", "fraction"),
    higher("core.algorithms.static.success_rate", "fraction"),
    lower("core.tuning.wall_s", "s"),
    lower("core.tuning.profiling_runs", "count"),
    lower("core.admission.shed_ratio", "fraction"),
    lower("core.admission.preemptions", "count"),
    lower("core.repair.tickets", "count"),
    higher("core.repair.repaired_ratio", "fraction"),
    lower("core.repair.mttr_p50_s", "s"),
    lower("simcore.fault.events", "count"),
    higher("workload.scenario.sim_events", "count"),
    higher("workload.scenario.events_per_s", "1/s"),
    lower("driver.other_s", "s"),
    lower("driver.traced_wall_s", "s"),
    lower("driver.trace_overhead_pct", "%"),
    higher("driver.replica_match", "count"),
];

/// A full set of values for one catalogue, every name present.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    /// All-zero values for `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue — a typo in the benchmark,
    /// caught by the smoke test rather than silently dropped.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[at] = if value.is_finite() { value } else { 0.0 };
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map_or(0.0, |at| self.values[at])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` — the result-line shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(def, value)| {
                    let entry =
                        Json::obj([("value", Json::num(value)), ("unit", Json::str(def.unit))]);
                    (def.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_fits_the_charset_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {:?} on {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        assert_eq!(END_TO_END.len(), 7);
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("µs") && !valid_name(".x") && !valid_name("a b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Json::as_array).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.label()),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_names_are_rejected() {
        MetricSet::new(END_TO_END).set("latency_ms", 1.0);
    }
}
