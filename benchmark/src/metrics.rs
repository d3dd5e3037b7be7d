//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

/// The eleven end-to-end metrics. Every workload prints all of them (the
/// driver's contract); `benchmark/README.md` says which are a workload's
/// own reading and which restate its unit of work.
pub const END_TO_END: [MetricDef; 11] = [
    down("setup_s", "s"),
    up("payload_mib_per_s", "MiB/s"),
    up("segments_per_s", "1/s"),
    up("sessions_per_s", "1/s"),
    down("join_ms_p50", "ms"),
    down("join_ms_p75", "ms"),
    down("startup_ratio_p50", "ratio"),
    down("startup_ratio_p90", "ratio"),
    up("sim_runs_per_s", "1/s"),
    up("sim_peers_per_s", "1/s"),
    down("peak_rss_mib", "MiB"),
];

/// The per-layer ledger, outside in. Layer = crate name. Probe metrics
/// are measured on every traced run; counters and spans come from the
/// workload that owns them and read 0 elsewhere.
pub const PER_LAYER: [MetricDef; 83] = [
    // proto — frame codec and the sans-io session machines
    down("proto.decode_ns_bulk", "ns"),
    down("proto.encode_ns_bulk", "ns"),
    down("proto.decode_ns_small", "ns"),
    down("proto.encode_ns_small", "ns"),
    down("proto.decode_allocs_per_frame", "count"),
    down("proto.control_ns", "ns"),
    down("proto.admission_round_ns", "ns"),
    down("proto.requester_ns_per_segment", "ns"),
    down("proto.supplier_ns_per_segment", "ns"),
    // policy — plan / replan over the Fig. 1 class mix
    down("policy.plan_ns_otsp2p", "ns"),
    down("policy.plan_ns_sequential", "ns"),
    down("policy.plan_ns_rarest", "ns"),
    down("policy.plan_ns_random", "ns"),
    down("policy.replan_ns_otsp2p", "ns"),
    // core — the paper's algorithms
    down("core.otsp2p_ns", "ns"),
    down("core.supplier_decide_ns", "ns"),
    down("core.vector_relax_ns", "ns"),
    // media
    down("media.from_store_us_bulk", "us"),
    down("media.from_store_us_small", "us"),
    down("media.store_insert_ns", "ns"),
    down("media.segment_view_ns", "ns"),
    down("media.synthesize_us_bulk", "us"),
    down("media.playback_delay_ns_per_segment", "ns"),
    // net — reactor, timer wheel, syscalls
    down("net.echo_ns_per_dispatch", "ns"),
    down("net.syscalls_per_dispatch", "count"),
    down("net.timer_ns_per_timer", "ns"),
    down("net.accept_us", "us"),
    down("net.syscalls_per_segment", "count"),
    down("net.syscalls_per_session", "count"),
    down("net.epoll_waits_per_segment", "count"),
    down("net.writevs_per_segment", "count"),
    down("net.reads_per_segment", "count"),
    down("net.listen_overflows", "count"),
    // lookup
    down("lookup.register_ns", "ns"),
    down("lookup.sample_ns", "ns"),
    down("lookup.shared_register_ns", "ns"),
    down("lookup.shared_sample_ns", "ns"),
    down("lookup.chord_route_ns", "ns"),
    // node — directory over TCP, one session as its caller sees it
    down("node.dir_query_us", "us"),
    down("node.dir_register_us", "us"),
    down("node.registry_sample_ns", "ns"),
    down("node.spawn_us", "us"),
    down("node.begin_stream_us", "us"),
    down("node.wait_us", "us"),
    down("node.stream_ms", "ms"),
    down("node.shutdown_us", "us"),
    down("node.reject_ratio", "ratio"),
    down("node.attempts_per_join", "count"),
    up("node.suppliers_per_session", "count"),
    down("node.join_ms_p50", "ms"),
    down("node.join_ms_p90", "ms"),
    down("node.join_ms_p99", "ms"),
    down("node.startup_ratio_mean", "ratio"),
    down("node.session_ms_p50", "ms"),
    down("node.session_ms_tail", "ms"),
    down("node.cpu_us_per_segment", "us"),
    down("node.cpu_ms_per_session", "ms"),
    down("node.driver_ns_per_segment", "ns"),
    // monitor
    down("monitor.counter_ns", "ns"),
    down("monitor.record_disabled_ns", "ns"),
    down("monitor.record_enabled_ns", "ns"),
    down("monitor.snapshot_us", "us"),
    // sim — legacy simulator and AmpEngine
    down("sim.legacy_run_s_p50", "s"),
    up("sim.legacy_attempts_per_s", "1/s"),
    down("sim.arrivals_ns_per_peer", "ns"),
    down("sim.matrix_cell_ms", "ms"),
    up("sim.engine_events_per_s", "1/s"),
    down("sim.engine_ns_per_event", "ns"),
    down("sim.engine_setup_s", "s"),
    up("sim.engine_replay_events_per_s", "1/s"),
    up("sim.engine_thread_speedup", "ratio"),
    down("sim.engine_bytes_per_peer", "B"),
    // simnet
    down("simnet.steady_us_per_run", "us"),
    down("simnet.churn_us_per_run", "us"),
    down("simnet.loss_us_per_run", "us"),
    down("simnet.slowpeer_us_per_run", "us"),
    down("simnet.admission_us_per_run", "us"),
    up("simnet.events_per_s", "1/s"),
    // trace — what measuring costs and what the probes do not explain
    down("trace.overhead_ratio", "ratio"),
    down("trace.unattributed_share", "ratio"),
    down("trace.driver_busy_share", "ratio"),
    down("trace.spans_per_s", "1/s"),
    down("trace.probe_s", "s"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    /// `BENCHMARK.json` at the repository root is what the driver reads;
    /// it must name exactly what this binary prints.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let doc = json::parse(crate::compare::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).and_then(json::Value::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(
                    entry.get("name").and_then(json::Value::as_str),
                    Some(def.name)
                );
                assert_eq!(
                    entry.get("unit").and_then(json::Value::as_str),
                    Some(def.unit)
                );
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(json::Value::as_str),
                    Some(better)
                );
                let bound = entry.get("bound").and_then(json::Value::as_f64);
                assert_eq!(bound.is_some(), bounded, "{}", def.name);
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads = doc.get("workloads").and_then(json::Value::as_arr).unwrap();
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (entry, def) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(
                entry.get("name").and_then(json::Value::as_str),
                Some(def.name)
            );
            assert_eq!(
                entry.get("why").and_then(json::Value::as_str),
                Some(def.why)
            );
            assert!(def.why.len() <= 200 && !def.why.contains('\n'));
        }
        assert_eq!(
            doc.get("paths").and_then(json::Value::as_arr).unwrap(),
            [json::Value::Str("benchmark".into())]
        );
    }
}
