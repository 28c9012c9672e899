//! Experiment `tab_chaos`: the dynamic fault lifecycle, end to end.
//!
//! For each of the ten Table II classes at `k = 5` (120 nodes), replays
//! four canned [`FaultSchedule`]s — a single permanent node fault, a burst
//! of `degree − 1` simultaneous node faults, a flapping link, and a
//! fault-then-repair transient — through the self-healing emulator loop
//! ([`run_chaos`]): live traffic, in-place [`TableRouter`] refreshes on
//! every fault-set epoch change, and bounded exponential backoff for
//! packets caught without a live route. Records delivered-ratio
//! degradation curves and per-event MTTR (cycles to a healthy router and
//! no stranded traffic).
//!
//! On top of that, the multi-fault re-embedding acceptance: two
//! simultaneous faults on *unmapped* hosts must re-embed with zero
//! remaps, and killing a *mapped* host (plus an unmapped one) must be
//! refused by the fixed-map `reembed_scg` but healed by
//! [`reembed_scg_rebalanced`] — remapping, not just re-routing.
//!
//! Writes `results/tab_chaos.txt` and `results/BENCH_chaos.json`
//! (integers only; validated by parsing back through [`scg_obs::json`]).
//! `--smoke` shortens the traffic phase for CI, keeping every acceptance
//! cross-check.
//!
//! [`FaultSchedule`]: scg_graph::FaultSchedule
//! [`TableRouter`]: scg_emu::TableRouter
//! [`run_chaos`]: scg_emu::run_chaos
//! [`reembed_scg_rebalanced`]: scg_embed::reembed_scg_rebalanced

use std::collections::HashSet;

use scg_bench::{all_class_hosts_k5, Table};
use scg_core::{materialize, CayleyNetwork, SMALL_NET_CAP};
use scg_embed::{hypercube_into_scg, reembed_scg, reembed_scg_rebalanced, EmbedError};
use scg_emu::{run_chaos, ChaosConfig, ChaosReport, PortModel};
use scg_graph::{FaultSchedule, NodeId, SurvivorView};
use scg_perm::XorShift64;

/// One (class, schedule) measurement.
struct SchedRow {
    name: &'static str,
    events: usize,
    report: ChaosReport,
}

impl SchedRow {
    fn delivered_x1000(&self) -> u64 {
        let s = &self.report.stats;
        (s.delivered * 1000)
            .checked_div(s.delivered + s.dropped + s.undelivered)
            .unwrap_or(1000)
    }
}

/// Per-class re-embedding acceptance numbers.
struct ReembedRow {
    two_unmapped_ok: bool,
    mapped_refused_plain: bool,
    remapped: usize,
    rerouted: usize,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let inject_until = if smoke { 80 } else { 400 };
    println!(
        "== Chaos sweep: canned fault schedules through the self-healing loop ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    let mut t = Table::new(&[
        "network",
        "schedule",
        "events",
        "injected",
        "delivered",
        "dropped",
        "recovered",
        "refreshes",
        "dlvr x1000",
        "dip x1000",
        "mttr",
    ]);

    let mut class_json = Vec::new();
    let mut worst_repair_x1000 = 1000u64;
    let mut worst_repair_mttr = 0u64;
    let mut all_repair_recovered = true;
    let mut all_reembeds_ok = true;

    for net in all_class_hosts_k5().expect("k=5 classes") {
        let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
        let graph = mat.graph();
        let degree = {
            let mut v = graph.out_neighbors(0).to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let mut rng = XorShift64::new(0xC4_05 ^ mat.num_nodes() as u64 ^ degree as u64);
        fn distinct(rng: &mut XorShift64, nodes: usize, n: usize) -> Vec<NodeId> {
            let mut picked: Vec<NodeId> = Vec::with_capacity(n);
            while picked.len() < n {
                let u = rng.gen_range(nodes) as NodeId;
                if !picked.contains(&u) {
                    picked.push(u);
                }
            }
            picked
        }
        let single_victim = distinct(&mut rng, mat.num_nodes(), 1)[0];
        let burst_victims = distinct(&mut rng, mat.num_nodes(), degree - 1);
        let (flap_u, flap_v) = graph.edge_endpoints(rng.gen_range(graph.num_edges()));
        let repair_victim = distinct(&mut rng, mat.num_nodes(), 1)[0];
        let schedules: Vec<(&'static str, FaultSchedule)> = vec![
            ("single", FaultSchedule::single_fault(16, single_victim)),
            ("burst", FaultSchedule::burst(16, &burst_victims)),
            (
                "flap",
                FaultSchedule::flapping_link(flap_u, flap_v, 16, 8, 2),
            ),
            (
                "repair",
                FaultSchedule::fault_then_repair(repair_victim, 16, 48),
            ),
        ];

        let mut sched_rows = Vec::new();
        for (idx, (name, mut schedule)) in schedules.into_iter().enumerate() {
            let config = ChaosConfig {
                model: PortModel::AllPort,
                inject_per_cycle: 4,
                inject_until,
                max_cycles: inject_until + 600,
                backoff: (1, 32),
                retry_limit: 8,
                window: 16,
                seed: 0x5C9_CA05 + idx as u64,
            };
            let events = schedule.len();
            let report =
                run_chaos(graph, &mut schedule, &config).expect("schedule within the graph");
            assert!(
                report.drained,
                "{}/{name}: traffic never drained",
                net.name()
            );
            assert_eq!(
                report.stats.delivered + report.stats.dropped,
                report.injected,
                "{}/{name}: packets unaccounted for",
                net.name()
            );
            sched_rows.push(SchedRow {
                name,
                events,
                report,
            });
        }

        // Acceptance: the transient fault heals — delivery stays >= 0.99
        // overall and the event recovers in finitely many cycles.
        let repair = sched_rows
            .iter()
            .find(|r| r.name == "repair")
            .expect("repair schedule present");
        let repair_x1000 = repair.delivered_x1000();
        let repair_mttr = repair.report.mttr_max();
        assert!(
            repair_x1000 >= 990,
            "{}: fault-then-repair delivered ratio {} < 0.99",
            net.name(),
            repair_x1000
        );
        let mttr = repair_mttr.unwrap_or_else(|| {
            panic!(
                "{}: fault-then-repair never reached a healthy cycle",
                net.name()
            )
        });
        worst_repair_x1000 = worst_repair_x1000.min(repair_x1000);
        worst_repair_mttr = worst_repair_mttr.max(mttr);
        all_repair_recovered &= repair_mttr.is_some();

        // Multi-fault re-embedding acceptance.
        let ir = hypercube_into_scg(&net, SMALL_NET_CAP).expect("Corollary 5 composition");
        let mapped: HashSet<NodeId> = ir.node_map().iter().copied().collect();
        let mut unmapped = (0..mat.num_nodes() as NodeId).filter(|u| !mapped.contains(u));
        let (u1, u2) = (
            unmapped.next().expect("host larger than guest"),
            unmapped.next().expect("host larger than guest"),
        );
        // Two simultaneous unmapped faults: rebalancing degenerates to the
        // fixed-map path (zero remaps) and every hyperpath stays live.
        let mut faults = scg_graph::FaultSet::new();
        faults.fail_node(u1);
        faults.fail_node(u2);
        let two = reembed_scg_rebalanced(&ir, &net, &mat, &faults)
            .unwrap_or_else(|e| panic!("{}: two unmapped faults: {e}", net.name()));
        let view = SurvivorView::new(mat.graph(), &faults);
        let two_unmapped_ok = two.remapped == 0
            && (0..two.ir.num_program_edges()).all(|e| view.path_is_live(two.ir.hyperpath_at(e)));
        // A mapped host dies (plus an unmapped bystander): the fixed-map
        // reembed must refuse, the rebalancer must remap onto live hosts.
        let mapped_victim = ir.node_map()[0];
        let mut faults2 = scg_graph::FaultSet::new();
        faults2.fail_node(mapped_victim);
        faults2.fail_node(u1);
        let mapped_refused_plain = matches!(
            reembed_scg(&ir, &net, &mat, &faults2),
            Err(EmbedError::MappedNodeFailed { .. })
        );
        let healed = reembed_scg_rebalanced(&ir, &net, &mat, &faults2)
            .unwrap_or_else(|e| panic!("{}: mapped-host fault not healed: {e}", net.name()));
        let view2 = SurvivorView::new(mat.graph(), &faults2);
        let healed_ok = healed.remapped >= 1
            && healed.ir.node_map().iter().all(|&h| view2.is_alive(h))
            && (0..healed.ir.num_program_edges())
                .all(|e| view2.path_is_live(healed.ir.hyperpath_at(e)));
        assert!(
            two_unmapped_ok,
            "{}: unmapped double fault failed",
            net.name()
        );
        assert!(
            mapped_refused_plain,
            "{}: fixed-map reembed did not refuse",
            net.name()
        );
        assert!(healed_ok, "{}: rebalanced embedding invalid", net.name());
        let reembed = ReembedRow {
            two_unmapped_ok,
            mapped_refused_plain,
            remapped: healed.remapped,
            rerouted: healed.rerouted,
        };
        all_reembeds_ok &= two_unmapped_ok && mapped_refused_plain && healed_ok;

        // Table rows + JSON.
        let mut sched_json = Vec::new();
        for r in &sched_rows {
            let s = &r.report.stats;
            let mttr = r.report.mttr_max();
            t.row(&[
                net.name(),
                r.name.into(),
                r.events.to_string(),
                r.report.injected.to_string(),
                s.delivered.to_string(),
                s.dropped.to_string(),
                s.recovered.to_string(),
                r.report.refreshes.to_string(),
                r.delivered_x1000().to_string(),
                r.report.curve_min_x1000().to_string(),
                mttr.map_or("-".into(), |m| m.to_string()),
            ]);
            sched_json.push(format!(
                "{{\"name\":\"{}\",\"events\":{},\"injected\":{},\"rejected\":{},\
                 \"delivered\":{},\"dropped\":{},\"recovered\":{},\"retried\":{},\
                 \"refreshes\":{},\"delivered_x1000\":{},\"curve_min_x1000\":{},\
                 \"mttr_finite\":{},\"mttr\":{},\"drained\":{}}}",
                r.name,
                r.events,
                r.report.injected,
                r.report.rejected,
                s.delivered,
                s.dropped,
                s.recovered,
                s.retried,
                r.report.refreshes,
                r.delivered_x1000(),
                r.report.curve_min_x1000(),
                u8::from(mttr.is_some()),
                mttr.unwrap_or(0),
                u8::from(r.report.drained),
            ));
        }
        println!(
            "{}: repair ratio {}/1000, MTTR {} cycles; rebalance remapped {} rerouted {}",
            net.name(),
            repair_x1000,
            mttr,
            reembed.remapped,
            reembed.rerouted
        );
        class_json.push(format!(
            "{{\"network\":\"{}\",\"nodes\":{},\"degree\":{},\"schedules\":[{}],\
             \"reembed\":{{\"two_unmapped_ok\":{},\"mapped_refused_plain\":{},\
             \"remapped\":{},\"rerouted\":{}}}}}",
            json_escape(&net.name()),
            mat.num_nodes(),
            degree,
            sched_json.join(","),
            u8::from(reembed.two_unmapped_ok),
            u8::from(reembed.mapped_refused_plain),
            reembed.remapped,
            reembed.rerouted
        ));
    }

    let json = format!(
        "{{\"bench\":\"tab_chaos\",\"mode\":\"{}\",\"k\":5,\"inject_until\":{},\
         \"classes\":[{}],\"acceptance\":{{\"all_repair_recovered\":{},\
         \"worst_repair_delivered_x1000\":{},\"worst_repair_mttr\":{},\
         \"all_two_fault_reembeds_ok\":{}}}}}",
        if smoke { "smoke" } else { "full" },
        inject_until,
        class_json.join(","),
        u8::from(all_repair_recovered),
        worst_repair_x1000,
        worst_repair_mttr,
        u8::from(all_reembeds_ok)
    );

    // The artifact must parse back through the shared hand-rolled parser
    // before it is trustworthy.
    let parsed = scg_obs::json::parse(&json).expect("BENCH_chaos.json parses");
    let top = parsed.as_object(0).expect("top-level object");
    let acc = top["acceptance"].as_object(0).expect("acceptance object");
    assert_eq!(acc["all_repair_recovered"].as_u64(0).expect("flag"), 1);
    assert_eq!(acc["all_two_fault_reembeds_ok"].as_u64(0).expect("flag"), 1);
    assert!(acc["worst_repair_delivered_x1000"].as_u64(0).expect("int") >= 990);
    assert_eq!(
        top["classes"].as_array(0).expect("classes").len(),
        class_json.len()
    );

    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("results/ creatable");
    let table = t.render();
    let mut report = String::new();
    report.push_str("== Chaos sweep: canned fault schedules through the self-healing loop ==\n\n");
    report.push_str(&format!(
        "mode: {}; 4 packets/cycle until cycle {}, then drain. Schedules: one\n\
         permanent node fault, a burst of degree-1 simultaneous node faults, a\n\
         flapping link (2 flaps), and a fault-then-repair transient, all fired at\n\
         cycle 16. The loop refreshes the table router in place on every fault\n\
         epoch change; stuck packets use exponential backoff (base 1, cap 32,\n\
         8 retries). MTTR = cycles from the event to a current router with no\n\
         packet stranded on a dead link. dip x1000 = lowest windowed delivered\n\
         ratio (window 16).\n\n",
        if smoke { "smoke" } else { "full" },
        inject_until
    ));
    report.push_str(&table);
    report.push_str(&format!(
        "\nAcceptance: fault-then-repair recovers on all {} classes (worst overall\n\
         delivered ratio {}/1000, worst MTTR {} cycles), and 2-fault re-embedding\n\
         holds everywhere: two unmapped faults re-embed with zero remaps; a dead\n\
         mapped host is refused by the fixed-map reembed and healed by remapping.\n",
        class_json.len(),
        worst_repair_x1000,
        worst_repair_mttr
    ));
    std::fs::write(results.join("tab_chaos.txt"), &report).expect("results/ writable");
    std::fs::write(results.join("BENCH_chaos.json"), &json).expect("results/ writable");
    print!("\n{table}");
    println!("\nwrote results/tab_chaos.txt, results/BENCH_chaos.json");
}
