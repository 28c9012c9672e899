//! Experiment `tab_embed`: the arena-backed embedding engine, end to end.
//!
//! For each of the ten Table II classes at `k = 5` (120 nodes), builds the
//! Corollary 5 hypercube guest through the shared [`EmbeddingIr`] pipeline
//! (cube → `k`-TN → host composition), measures the build wall time, and
//! audits the result (load, dilation, congestion, expansion, mean path
//! length). Then sweeps *every* single-node [`FaultSet`] over the host:
//! faults on a node carrying a guest node must report
//! [`EmbedError::MappedNodeFailed`]; every other fault must yield a valid
//! re-embedding, whose worst dilation is recorded.
//!
//! Writes the human table to `results/tab_embed.txt` and the
//! machine-readable record to `results/BENCH_embed.json` (integers only;
//! validated by parsing it back through [`scg_obs::json`]). `--smoke`
//! samples the fault sweep for CI, keeping every correctness cross-check.
//!
//! [`EmbeddingIr`]: scg_embed::EmbeddingIr
//! [`FaultSet`]: scg_graph::FaultSet
//! [`EmbedError::MappedNodeFailed`]: scg_embed::EmbedError::MappedNodeFailed

use std::collections::HashSet;
use std::time::Instant;

use scg_bench::{all_class_hosts_k5, f3, Table};
use scg_core::{materialize, CayleyNetwork, SMALL_NET_CAP};
use scg_embed::{hypercube_into_scg, reembed_scg, EmbedError};
use scg_graph::{FaultSet, NodeId};

/// One measured per-class row.
struct Row {
    network: String,
    nodes: usize,
    build_micros: u64,
    load: usize,
    dilation: usize,
    congestion: usize,
    expansion_x1000: u64,
    mean_len_x1000: u64,
    faults_tried: usize,
    mapped_faults: usize,
    reembed_ok: usize,
    max_dilation_after: usize,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode samples every `stride`-th host node as the fault victim;
    // full mode tries all of them.
    let stride = if smoke { 7 } else { 1 };

    println!(
        "== Embedding engine: IR builds, audits, and single-fault re-embedding ({} mode) ==\n",
        if smoke { "smoke" } else { "full" }
    );
    let mut t = Table::new(&[
        "network",
        "nodes",
        "build us",
        "load",
        "dilation",
        "congestion",
        "expansion",
        "mean len",
        "faults",
        "mapped",
        "reembed ok",
        "max dil after",
    ]);

    let mut rows = Vec::new();
    for net in all_class_hosts_k5().expect("k=5 classes") {
        let start = Instant::now();
        let ir = hypercube_into_scg(&net, SMALL_NET_CAP).expect("Corollary 5 composition");
        let build_micros = start.elapsed().as_micros() as u64;
        let audit = ir.audit();
        let mat = materialize(&net, SMALL_NET_CAP).expect("120 nodes under cap");
        let mapped: HashSet<NodeId> = ir.node_map().iter().copied().collect();

        // The acceptance sweep: every single-node fault either hits a
        // mapped node (structured refusal) or must re-embed validly.
        let mut faults_tried = 0usize;
        let mut mapped_faults = 0usize;
        let mut reembed_ok = 0usize;
        let mut max_dilation_after = 0usize;
        for victim in (0..mat.num_nodes() as NodeId).step_by(stride) {
            faults_tried += 1;
            let mut faults = FaultSet::new();
            faults.fail_node(victim);
            match reembed_scg(&ir, &net, &mat, &faults) {
                Ok(r) => {
                    // `reembed` re-validates through `from_parts`, so an Ok
                    // result is already a certificate; cross-check the
                    // invariants the paper cares about anyway.
                    assert_eq!(r.load(), ir.load(), "{}: load changed", net.name());
                    assert_eq!(
                        r.node_map(),
                        ir.node_map(),
                        "{}: node map changed",
                        net.name()
                    );
                    max_dilation_after = max_dilation_after.max(r.dilation());
                    reembed_ok += 1;
                }
                Err(EmbedError::MappedNodeFailed { host_node, .. }) => {
                    assert_eq!(host_node, victim, "{}: wrong victim reported", net.name());
                    assert!(
                        mapped.contains(&victim),
                        "{}: refusal on unmapped node {victim}",
                        net.name()
                    );
                    mapped_faults += 1;
                }
                Err(other) => panic!("{}: fault {victim}: {other}", net.name()),
            }
        }
        assert_eq!(
            reembed_ok + mapped_faults,
            faults_tried,
            "{}: every fault must be classified",
            net.name()
        );

        let row = Row {
            network: net.name(),
            nodes: mat.num_nodes(),
            build_micros,
            load: audit.load,
            dilation: audit.dilation,
            congestion: audit.congestion,
            expansion_x1000: (audit.expansion * 1000.0).round() as u64,
            mean_len_x1000: (audit.mean_path_length * 1000.0).round() as u64,
            faults_tried,
            mapped_faults,
            reembed_ok,
            max_dilation_after,
        };
        println!(
            "{}: build {} us, dilation {} -> max {} under single faults ({}/{} re-embedded)",
            row.network,
            row.build_micros,
            row.dilation,
            row.max_dilation_after,
            row.reembed_ok,
            row.faults_tried
        );
        t.row(&[
            row.network.clone(),
            row.nodes.to_string(),
            row.build_micros.to_string(),
            row.load.to_string(),
            row.dilation.to_string(),
            row.congestion.to_string(),
            f3(row.expansion_x1000 as f64 / 1000.0),
            f3(row.mean_len_x1000 as f64 / 1000.0),
            row.faults_tried.to_string(),
            row.mapped_faults.to_string(),
            row.reembed_ok.to_string(),
            row.max_dilation_after.to_string(),
        ]);
        rows.push(row);
    }

    let all_reembedded = rows
        .iter()
        .all(|r| r.reembed_ok + r.mapped_faults == r.faults_tried);
    let worst_dilation_after = rows.iter().map(|r| r.max_dilation_after).max().unwrap_or(0);

    let mut json = String::from("{\"bench\":\"tab_embed\",");
    json.push_str(&format!(
        "\"mode\":\"{}\",\"guest\":\"hypercube\",\"k\":5,\"fault_stride\":{stride},\"classes\":[",
        if smoke { "smoke" } else { "full" }
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"network\":\"{}\",\"nodes\":{},\"build_micros\":{},\"load\":{},\
             \"dilation\":{},\"congestion\":{},\"expansion_x1000\":{},\
             \"mean_path_len_x1000\":{},\"faults_tried\":{},\"mapped_faults\":{},\
             \"reembed_ok\":{},\"max_dilation_after\":{}}}",
            json_escape(&r.network),
            r.nodes,
            r.build_micros,
            r.load,
            r.dilation,
            r.congestion,
            r.expansion_x1000,
            r.mean_len_x1000,
            r.faults_tried,
            r.mapped_faults,
            r.reembed_ok,
            r.max_dilation_after
        ));
    }
    json.push_str(&format!(
        "],\"acceptance\":{{\"all_single_faults_handled\":{},\"worst_dilation_after\":{}}}}}",
        u8::from(all_reembedded),
        worst_dilation_after
    ));

    // The artifact must parse back through the shared hand-rolled parser
    // before it is trustworthy.
    let parsed = scg_obs::json::parse(&json).expect("BENCH_embed.json parses");
    let top = parsed.as_object(0).expect("top-level object");
    let acc = top["acceptance"].as_object(0).expect("acceptance object");
    assert_eq!(
        acc["all_single_faults_handled"]
            .as_u64(0)
            .expect("flag int"),
        1,
        "acceptance: some single-node fault was neither re-embedded nor refused"
    );
    assert_eq!(
        top["classes"].as_array(0).expect("classes array").len(),
        rows.len()
    );

    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("results/ creatable");
    let table = t.render();
    let mut report = String::new();
    report.push_str("== Embedding engine: IR builds, audits, and single-fault re-embedding ==\n\n");
    report.push_str(&format!(
        "mode: {}; Corollary 5 hypercube guest (cube -> 5-TN -> host), every\n\
         single-node FaultSet at stride {stride}. Faults on a mapped host node are\n\
         refused structurally (MappedNodeFailed); all others must re-embed to a\n\
         validated IR with the node map and load unchanged.\n\n",
        if smoke { "smoke" } else { "full" },
    ));
    report.push_str(&table);
    report.push_str(&format!(
        "\nAcceptance: every fault handled on all {} classes; worst dilation\n\
         after a single fault: {} (vs fault-free worst {}).\n",
        rows.len(),
        worst_dilation_after,
        rows.iter().map(|r| r.dilation).max().unwrap_or(0)
    ));
    std::fs::write(results.join("tab_embed.txt"), &report).expect("results/ writable");
    std::fs::write(results.join("BENCH_embed.json"), &json).expect("results/ writable");
    print!("\n{table}");
    println!("\nwrote results/tab_embed.txt, results/BENCH_embed.json");
    assert!(all_reembedded, "acceptance failed");
}
