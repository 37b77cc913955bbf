//! The metric catalogue: every name, unit and direction the benchmark
//! reports. `BENCHMARK.json` at the repository root lists the same
//! metrics; a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported from the untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 7] = [
    m("sim_cycles_per_s", "cycles/s", "higher"),
    m("flits_per_s", "flits/s", "higher"),
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("sim_latency_cycles", "cycles", "lower"),
    m("sim_runtime_cycles", "cycles", "lower"),
];

/// Per-layer metrics, reported from the traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 30] = [
    m("topology.build_s", "s", "lower"),
    m("routing.build_s", "s", "lower"),
    m("network.new_s", "s", "lower"),
    m("network.begin_cycle.self_s", "s", "lower"),
    m("network.begin_cycle.ns_per_cycle", "ns", "lower"),
    m("network.finish_cycle.self_s", "s", "lower"),
    m("network.finish_cycle.ns_per_cycle", "ns", "lower"),
    m("network.finish_cycle.ns_per_active_router", "ns", "lower"),
    m("network.active_router_fraction", "ratio", "lower"),
    m("network.mem_bytes", "bytes", "lower"),
    m("network.arena_high_water", "count", "lower"),
    m("scheme.pre_cycle.self_s", "s", "lower"),
    m("scheme.pre_cycle.ns_per_cycle", "ns", "lower"),
    m("scheme.post_cycle.self_s", "s", "lower"),
    m("upp.upward_packets", "count", "lower"),
    m("upp.popups_completed", "count", "lower"),
    m("upp.stops_sent", "count", "lower"),
    m("upp.acks_dropped", "count", "lower"),
    m("upp.popup_yield", "ratio", "higher"),
    m("network.control_hops", "count", "lower"),
    m("network.bypass_hops", "count", "lower"),
    m("workload.tick.self_s", "s", "lower"),
    m("workload.packets_created", "count", "higher"),
    m("sim.drain.self_s", "s", "lower"),
    m("sim.drain.cycles", "cycles", "lower"),
    m("sweep.points", "count", "higher"),
    m("sweep.point_s.p50", "s", "lower"),
    m("sweep.point_s.max", "s", "lower"),
    m("sweep.busy_share", "ratio", "higher"),
    m("trace.overhead_share", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// True when `name` uses only `[A-Za-z0-9_.-]`, starts with a letter or
    /// digit and is at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name(""));
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |list: &[Metric]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        for w in doc.get("workloads").and_then(|v| v.as_array()).unwrap() {
            let name = w.get("name").and_then(|n| n.as_str()).unwrap();
            assert!(
                crate::workloads::Workload::from_name(name).is_some(),
                "BENCHMARK.json lists unknown workload {name}"
            );
        }
    }
}
