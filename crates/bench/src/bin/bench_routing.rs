//! Experiment `bench_routing`: the routing hot path, before and after the
//! compiled route planner.
//!
//! Sweeps all ten Table II classes at `k = 5` plus the larger `k = 9` and
//! `k = 13` shapes (routing never materializes the `k!` nodes, so big `k`
//! is free) and measures, per class:
//!
//! * `legacy` — the pre-planner `scg_route` implementation, reconstructed
//!   verbatim from the public API: fresh [`StarEmulation`] + `star_route`
//!   + a per-hop `Vec` cascade;
//! * `scg_route` — the public entry point, now a plan-cache lookup plus
//!   slice copies;
//! * `planner` — the pre-packed planner baseline, reconstructed from the
//!   public API: the byte-array greedy star-sort over a held
//!   [`RoutePlan`]'s `star_link` slices;
//! * `packed` — the steady-state path: a held [`RoutePlan`] running the
//!   bit-packed `u64` star-sort via `route_into` into a reused
//!   [`RouteBuf`], zero heap allocation;
//! * batch throughput — [`route_batch`] (`route_into` per pair into one
//!   reused buffer per thread) at 1 thread and at the machine's
//!   parallelism.
//!
//! Every pair is cross-checked: packed ≡ planner ≡ legacy byte for byte.
//! The acceptance record carries `packed_le_planner`; `check_bench_json`
//! fails the build when the packed kernel regresses past the planner
//! baseline (×1.25 slack in smoke mode, ×1.05 in full, absorbing timer
//! noise only — a real regression trips both).
//!
//! Writes the human table to `results/bench_routing.txt` and the
//! machine-readable record to `results/BENCH_routing.json` (integers
//! only; validated by parsing it back through [`scg_obs::json`]).
//! `--smoke` shrinks budgets for CI, keeping every correctness
//! cross-check.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scg_bench::Table;
use scg_core::{
    apply_path, route_batch, route_plan, scg_route, star_route, CayleyNetwork, Generator,
    RoutePlan, StarEmulation, SuperCayleyGraph,
};
use scg_perm::{Perm, XorShift64, MAX_DEGREE};

/// Fixed-seed routed pairs per class (cycled by the timed closures).
const FULL_PAIRS: usize = 512;
const SMOKE_PAIRS: usize = 48;

/// Smoke runs tolerate `packed ≤ planner × 1.25` (8 ms budgets are
/// noisy); full runs insist on `× 1.05`.
const SMOKE_SLACK_PCT: u64 = 125;
const FULL_SLACK_PCT: u64 = 105;

/// The parallel batch gate: `par ≥ seq × slack/100`. Adaptive
/// thread-count clamping ([`scg_core::MIN_PAIRS_PER_THREAD`]) makes the
/// parallel path identical to sequential on small batches or single-core
/// machines, so the remaining gap is timer noise — 90% in full mode,
/// 70% under smoke's 8 ms budgets.
const FULL_BATCH_PAR_SLACK_PCT: u64 = 90;
const SMOKE_BATCH_PAR_SLACK_PCT: u64 = 70;

/// One measured per-class row.
struct Row {
    network: String,
    k: usize,
    legacy_ns: u64,
    scg_route_ns: u64,
    planner_ns: u64,
    packed_ns: u64,
    batch_seq_pps: u64,
    batch_par_pps: u64,
}

impl Row {
    fn speedup_x1000(&self) -> u64 {
        (self.legacy_ns * 1000)
            .checked_div(self.scg_route_ns)
            .unwrap_or(0)
    }
}

/// Mean wall time of `f` in nanoseconds over a time budget.
fn mean_ns(budget: Duration, mut f: impl FnMut()) -> u64 {
    let warm = Instant::now();
    while warm.elapsed() < budget / 5 {
        f();
    }
    let mut iters: u64 = 0;
    let start = Instant::now();
    let elapsed = loop {
        f();
        iters += 1;
        let e = start.elapsed();
        if e >= budget {
            break e;
        }
    };
    (elapsed.as_nanos() / u128::from(iters)) as u64
}

/// The pre-PR `scg_route` body, kept as the measured baseline: a fresh
/// emulation helper and a fresh `Vec` cascade per call.
fn legacy_scg_route(net: &SuperCayleyGraph, from: &Perm, to: &Perm) -> Vec<Generator> {
    let emu = StarEmulation::new(net).expect("all classes emulate");
    let mut out = Vec::new();
    for g in star_route(from, to) {
        let Generator::Transposition { i } = g else {
            unreachable!("star routes consist of transpositions")
        };
        out.extend(emu.expand_star_link(i as usize).expect("valid link"));
    }
    out
}

/// The pre-packed planner baseline, reconstructed from the public API:
/// the byte-array relative permutation plus the greedy star-sort with a
/// monotone cycle-opening cursor, emitting the plan's precompiled
/// `star_link` slices into a reused vector. This was `route_into` before
/// the bit-packed kernel; racing it against `route_into` isolates the
/// win of word-parallel state from the win of precompiled expansions.
fn planner_scan_route(plan: &RoutePlan, from: &Perm, to: &Perm, out: &mut Vec<Generator>) {
    out.clear();
    let k = plan.degree_k();
    let mut inv_to = [0u8; MAX_DEGREE];
    for (pos, &sym) in to.symbols().iter().enumerate() {
        inv_to[sym as usize - 1] = (pos + 1) as u8;
    }
    let mut a = [0u8; MAX_DEGREE];
    for (i, &sym) in from.symbols().iter().enumerate() {
        a[i] = inv_to[sym as usize - 1];
    }
    let mut scan = 1usize;
    loop {
        let s = a[0];
        let i = if s != 1 {
            s as usize
        } else {
            while scan < k && a[scan] == (scan + 1) as u8 {
                scan += 1;
            }
            if scan == k {
                return;
            }
            scan + 1
        };
        out.extend_from_slice(plan.star_link(i).expect("link in 2..=k"));
        a.swap(0, i - 1);
    }
}

fn sample_pairs(k: usize, count: usize, seed: u64) -> Vec<(Perm, Perm)> {
    let mut rng = XorShift64::new(seed);
    (0..count)
        .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
        .collect()
}

fn measure_class(net: &SuperCayleyGraph, budget: Duration, pairs: usize, threads: usize) -> Row {
    let k = net.degree_k();
    let sample = sample_pairs(k, pairs, 0xB52 + k as u64);
    let plan = route_plan(net).expect("plan compiles");
    let mut buf = plan.new_buf();

    // Correctness cross-checks on the full sample: packed (`scg_route`
    // rides `route_into`), the planner-scan baseline, and the legacy
    // cascade all emit byte-identical paths, and batch equals sequential.
    let mut scan_out = Vec::new();
    for (from, to) in &sample {
        let new = scg_route(net, from, to).expect("route");
        assert_eq!(new, legacy_scg_route(net, from, to), "{}", net.name());
        planner_scan_route(&plan, from, to, &mut scan_out);
        assert_eq!(new, scan_out, "packed != planner scan on {}", net.name());
        assert_eq!(apply_path(from, &new).expect("walk"), *to);
    }
    let batch = route_batch(net, &sample, threads).expect("batch");
    for (i, (from, to)) in sample.iter().enumerate() {
        assert_eq!(batch[i], scg_route(net, from, to).expect("route"));
    }

    let mut c = 0usize;
    let legacy_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        black_box(legacy_scg_route(net, &p.0, &p.1));
    });
    let mut c = 0usize;
    let scg_route_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        black_box(scg_route(net, &p.0, &p.1).expect("route"));
    });
    let mut c = 0usize;
    let planner_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        planner_scan_route(&plan, &p.0, &p.1, &mut scan_out);
        black_box(scan_out.len());
    });
    let mut c = 0usize;
    let packed_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        plan.route_into(&p.0, &p.1, &mut buf).expect("route");
        black_box(buf.len());
    });

    // Interleaved min-of-3: seq and par alternate within one pass so
    // clock drift and cache temperature hit both columns equally, and
    // each column keeps its best (minimum-ns) rep — the standard defense
    // against the one-sided noise that made par sporadically read slower
    // than seq on identical code paths.
    let mut batch_seq_ns = u64::MAX;
    let mut batch_par_ns = u64::MAX;
    for _ in 0..3 {
        batch_seq_ns = batch_seq_ns.min(mean_ns(budget, || {
            black_box(route_batch(net, &sample, 1).expect("batch"));
        }));
        batch_par_ns = batch_par_ns.min(mean_ns(budget, || {
            black_box(route_batch(net, &sample, threads).expect("batch"));
        }));
    }
    let to_pps = |ns: u64| {
        (sample.len() as u64 * 1_000_000_000)
            .checked_div(ns)
            .unwrap_or(0)
    };
    let batch_seq_pps = to_pps(batch_seq_ns);
    let batch_par_pps = to_pps(batch_par_ns);

    Row {
        network: net.name(),
        k,
        legacy_ns,
        scg_route_ns,
        planner_ns,
        packed_ns,
        batch_seq_pps,
        batch_par_pps,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (budget, pairs) = if smoke {
        (Duration::from_millis(8), SMOKE_PAIRS)
    } else {
        (Duration::from_millis(150), FULL_PAIRS)
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // All ten classes at k = 5, then the large shapes: plans are O(k²),
    // so k = 9 and k = 13 route without ever materializing 9!/13! nodes.
    let mut hosts = scg_bench::all_class_hosts_k5().expect("k=5 classes");
    hosts.extend([
        SuperCayleyGraph::macro_star(4, 2).expect("MS(4,2)"),
        SuperCayleyGraph::complete_rotation_star(4, 2).expect("Complete-RS(4,2)"),
        SuperCayleyGraph::insertion_selection(9).expect("IS(9)"),
        SuperCayleyGraph::macro_is(4, 2).expect("MIS(4,2)"),
        SuperCayleyGraph::macro_star(6, 2).expect("MS(6,2)"),
    ]);

    println!(
        "== Routing hot path: legacy vs compiled plan ({} mode, {threads} threads) ==",
        if smoke { "smoke" } else { "full" }
    );
    let mut t = Table::new(&[
        "network",
        "k",
        "legacy ns",
        "scg_route ns",
        "planner ns",
        "packed ns",
        "speedup",
        "batch seq p/s",
        "batch par p/s",
    ]);
    let mut rows = Vec::new();
    for net in &hosts {
        let row = measure_class(net, budget, pairs, threads);
        println!(
            "{}: legacy {} ns -> scg_route {} ns (x{}.{:03}), planner {} ns -> packed {} ns",
            row.network,
            row.legacy_ns,
            row.scg_route_ns,
            row.speedup_x1000() / 1000,
            row.speedup_x1000() % 1000,
            row.planner_ns,
            row.packed_ns
        );
        t.row(&[
            row.network.clone(),
            row.k.to_string(),
            row.legacy_ns.to_string(),
            row.scg_route_ns.to_string(),
            row.planner_ns.to_string(),
            row.packed_ns.to_string(),
            format!(
                "{}.{:03}x",
                row.speedup_x1000() / 1000,
                row.speedup_x1000() % 1000
            ),
            row.batch_seq_pps.to_string(),
            row.batch_par_pps.to_string(),
        ]);
        rows.push(row);
    }

    // The acceptance row: the first k >= 9 class in the sweep. The
    // packed-vs-planner regression gate tolerates timer noise only.
    let accept = rows
        .iter()
        .find(|r| r.k >= 9)
        .expect("sweep includes k >= 9 classes");
    let slack_pct = if smoke {
        SMOKE_SLACK_PCT
    } else {
        FULL_SLACK_PCT
    };
    let packed_le_planner = accept.packed_ns * 100 <= accept.planner_ns * slack_pct;
    let batch_slack_pct = if smoke {
        SMOKE_BATCH_PAR_SLACK_PCT
    } else {
        FULL_BATCH_PAR_SLACK_PCT
    };
    let batch_par_ge_seq = accept.batch_par_pps * 100 >= accept.batch_seq_pps * batch_slack_pct;

    let mut json = String::from("{\"bench\":\"bench_routing\",");
    json.push_str(&format!(
        "\"mode\":\"{}\",\"threads\":{threads},\"pairs_per_class\":{pairs},\"classes\":[",
        if smoke { "smoke" } else { "full" }
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"network\":\"{}\",\"k\":{},\"legacy_single_ns\":{},\"scg_route_single_ns\":{},\
             \"planner_scan_single_ns\":{},\"packed_single_ns\":{},\"speedup_x1000\":{},\
             \"batch_seq_pairs_per_s\":{},\"batch_par_pairs_per_s\":{}}}",
            json_escape(&r.network),
            r.k,
            r.legacy_ns,
            r.scg_route_ns,
            r.planner_ns,
            r.packed_ns,
            r.speedup_x1000(),
            r.batch_seq_pps,
            r.batch_par_pps
        ));
    }
    json.push_str(&format!(
        "],\"acceptance\":{{\"network\":\"{}\",\"k\":{},\"legacy_single_ns\":{},\
         \"scg_route_single_ns\":{},\"planner_single_ns\":{},\"packed_single_ns\":{},\
         \"speedup_x1000\":{},\"meets_3x\":{},\"packed_le_planner\":{},\
         \"batch_seq_pairs_per_s\":{},\"batch_par_pairs_per_s\":{},\"batch_par_ge_seq\":{}}}}}",
        json_escape(&accept.network),
        accept.k,
        accept.legacy_ns,
        accept.scg_route_ns,
        accept.planner_ns,
        accept.packed_ns,
        accept.speedup_x1000(),
        u8::from(accept.speedup_x1000() >= 3000),
        u8::from(packed_le_planner),
        accept.batch_seq_pps,
        accept.batch_par_pps,
        u8::from(batch_par_ge_seq)
    ));

    // The artifact must parse back through the shared hand-rolled parser
    // before it is trustworthy.
    let parsed = scg_obs::json::parse(&json).expect("BENCH_routing.json parses");
    let top = parsed.as_object(0).expect("top-level object");
    let acc = top["acceptance"].as_object(0).expect("acceptance object");
    assert!(acc["speedup_x1000"].as_u64(0).expect("speedup int") > 0);
    assert_eq!(
        top["classes"].as_array(0).expect("classes array").len(),
        rows.len()
    );

    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("results/ creatable");
    let table = t.render();
    let mut report = String::new();
    report.push_str("== Routing hot path: legacy vs compiled plan ==\n\n");
    report.push_str(&format!(
        "mode: {}; {threads} threads; {pairs} fixed-seed pairs per class.\n",
        if smoke { "smoke" } else { "full" }
    ));
    report.push_str(
        "legacy = pre-planner scg_route (fresh StarEmulation + per-hop Vec cascade);\n\
         scg_route = plan-cache lookup + slice copies; planner = pre-packed\n\
         byte-array star-sort over held-plan star_link slices; packed = held\n\
         plan + bit-packed u64 star-sort via route_into into a reused RouteBuf\n\
         (allocation-free steady state). Batch columns are route_batch\n\
         pairs/second at 1 thread and at full parallelism, route_into per\n\
         pair into one reused RouteBuf per thread.\n\n",
    );
    report.push_str(&table);
    report.push_str(&format!(
        "\nAcceptance (k >= 9): {} legacy {} ns vs scg_route {} ns -> {}.{:03}x;\n\
         planner {} ns vs packed {} ns (packed_le_planner = {});\n\
         batch seq {} p/s vs par {} p/s, interleaved min-of-3 \
         (batch_par_ge_seq = {})\n",
        accept.network,
        accept.legacy_ns,
        accept.scg_route_ns,
        accept.speedup_x1000() / 1000,
        accept.speedup_x1000() % 1000,
        accept.planner_ns,
        accept.packed_ns,
        u8::from(packed_le_planner),
        accept.batch_seq_pps,
        accept.batch_par_pps,
        u8::from(batch_par_ge_seq)
    ));
    std::fs::write(results.join("bench_routing.txt"), &report).expect("results/ writable");
    std::fs::write(results.join("BENCH_routing.json"), &json).expect("results/ writable");
    print!("\n{table}");
    println!("\nwrote results/bench_routing.txt, results/BENCH_routing.json");
    if !smoke {
        assert!(
            accept.speedup_x1000() >= 3000,
            "acceptance: expected >= 3x on {} (k = {}), got {}.{:03}x",
            accept.network,
            accept.k,
            accept.speedup_x1000() / 1000,
            accept.speedup_x1000() % 1000
        );
    }
    assert!(
        packed_le_planner,
        "acceptance: packed kernel regressed past the planner baseline on {} \
         (k = {}): packed {} ns vs planner {} ns (slack {slack_pct}%)",
        accept.network, accept.k, accept.packed_ns, accept.planner_ns
    );
    assert!(
        batch_par_ge_seq,
        "acceptance: parallel batch fell behind sequential on {} (k = {}): \
         par {} pairs/s vs seq {} pairs/s (slack {batch_slack_pct}%)",
        accept.network, accept.k, accept.batch_par_pps, accept.batch_seq_pps
    );
}
