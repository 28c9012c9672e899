//! The traced run: per-layer figures, timed from this benchmark's own
//! code around calls into each layer's public functions, and the
//! reconciliation of the workload's end-to-end time with them.
//!
//! Nothing inside the program is instrumented. A layer the workload
//! exercises is timed on the workload's own inputs; the others on the
//! inputs of the workload that exercises them (`README.md` lists which),
//! so every traced run reports every per-layer metric.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use scg_core::{
    scg_route_faulty_with, Generator, Materialized, RoutePlan, SuperCayleyGraph, DEFAULT_NET_CAP,
};
use scg_emu::TableRouter;
use scg_graph::{FaultSet, NodeId, SurvivorView};
use scg_perm::{PackedPerm, Perm};
use scg_serve::wire::{decode_request, peek_frame, FrameStatus};
use scg_serve::{FaultJournal, ServeMetrics, ShardCore};

use crate::alloc::counted;
use crate::chaos;
use crate::check::scan_reply;
use crate::host;
use crate::inputs::{generate, Op, Pool, Workload};
use crate::load::{self, Daemon};
use crate::metrics::Outcome;
use crate::stats::{median, Reconciliation};

/// Wall time of the daemon pass whose per-frame time is reconciled.
const DAEMON_SECONDS: f64 = 2.0;
/// Repeats of every in-process timing; the median is reported.
const REPS: usize = 9;
/// Repeats of the interleaved timings the reconciliation adds up.
const INTERLEAVED_REPS: usize = 31;
/// Survivor-BFS searches timed for `core.fault.fallback_us`.
const FALLBACK_SEARCHES: usize = 3;

/// Median over [`REPS`] repeats of the seconds per item of `f` over
/// `items`, cycling the items so each repeat makes at least `min_calls`
/// calls.
fn per_item<T>(items: &[T], min_calls: usize, mut f: impl FnMut(&T)) -> f64 {
    let rounds = min_calls.div_ceil(items.len().max(1)).max(1);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                for x in items {
                    f(x);
                }
            }
            t0.elapsed().as_secs_f64() / (rounds * items.len()) as f64
        })
        .collect();
    median(&samples)
}

/// A request frame's `(version, type, payload range)`.
fn framed(bytes: &[u8]) -> Result<(u8, u8, Range<usize>), String> {
    match peek_frame(bytes) {
        FrameStatus::Frame {
            ver,
            ftype,
            start,
            end,
        } => Ok((ver, ftype, start..end)),
        other => Err(format!("request does not frame: {other:?}")),
    }
}

fn fault_set(failed: &[NodeId]) -> FaultSet {
    let mut f = FaultSet::new();
    for &u in failed {
        f.fail_node(u);
    }
    f
}

fn net_of(pool: &Pool) -> Result<SuperCayleyGraph, String> {
    pool.spec
        .net()
        .to_net()
        .map_err(|e| format!("network: {}", e.as_str()))
}

/// Runs the traced measurement of `workload`.
///
/// # Errors
///
/// Set-up failures (spawn, materialization); wrong outputs are recorded
/// in the outcome instead.
pub fn run(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    // Daemon layers run on the workload's pool; chaos-k7 borrows
    // batch-k9's, the home of most of them.
    let daemon_w = if workload == Workload::ChaosK7 {
        Workload::BatchK9
    } else {
        workload
    };
    let pool = generate(daemon_w.daemon_spec().ok_or("no daemon pool")?, seed);
    let faults_pool = if daemon_w == Workload::FaultsK9 {
        pool.clone()
    } else {
        generate(
            Workload::FaultsK9.daemon_spec().ok_or("no fault pool")?,
            seed,
        )
    };

    let e2e_us = daemon_pass(&pool, seed, &mut o)?;
    let fw = FaultWork::new(&faults_pool)?;
    let work = fw.work();
    // The routing call the daemon makes for one pass of this pool.
    let net = net_of(&pool)?;
    let plan = RoutePlan::build(&net).map_err(|e| e.to_string())?;
    let (mut buf, mut state) = (plan.new_buf(), plan.new_batch_state());
    let mut outs: Vec<Vec<Generator>> = vec![Vec::new(); pool.spec.batch];
    let mut route_pass: Box<dyn FnMut() + '_> = if pool.spec.fault_cycles {
        Box::new(|| {
            for ((from, to), faults) in &work {
                black_box(scg_route_faulty_with(&fw.plan, &fw.net, &fw.mat, from, to, faults).ok());
            }
        })
    } else if pool.spec.batch == 0 {
        Box::new(|| {
            for (from, to) in &pool.pairs {
                black_box(plan.route_into(from, to, &mut buf).ok());
            }
        })
    } else {
        Box::new(|| {
            for chunk in pool.pairs.chunks(pool.spec.batch) {
                let out = &mut outs[..chunk.len()];
                out.iter_mut().for_each(Vec::clear);
                black_box(plan.route_chunk(chunk, out, &mut state).ok());
            }
        })
    };
    let shard = shard_layers(&pool, &mut *route_pass, &mut o)?;
    route_layers(&pool, &mut o)?;
    perm_layers(&pool, &mut o);
    fault_layers(&fw, &work, workload, &mut o)?;
    let emu = emu_layers(seed, &mut o)?;

    let transport = Reconciliation::new(
        e2e_us,
        vec![
            ("serve.wire.decode", shard.decode_us),
            ("core.route", shard.route_us),
            (
                "serve.shard.rest",
                shard.handle_us - shard.decode_us - shard.route_us,
            ),
            ("client.scan", shard.scan_us),
        ],
        "serve.transport (residual)",
    );
    o.set("serve.transport.residual_us_per_frame", transport.residual);
    let (label, rec) = if workload == Workload::ChaosK7 {
        ("ms per run_chaos call", emu)
    } else {
        ("us per frame", transport)
    };
    print_reconciliation(workload.name(), label, &rec);
    Ok(o)
}

fn print_reconciliation(name: &str, unit: &str, r: &Reconciliation) {
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(n, t)| format!("{n} {t:.3}"))
        .collect();
    println!(
        "reconciliation {name} ({unit}): end_to_end {:.3} = {} + {} {:.3} (layers sum {:.3})",
        r.end_to_end,
        layers.join(" + "),
        r.residual_name,
        r.residual,
        r.layer_sum()
    );
    let (largest, share) = r.largest();
    println!(
        "largest layer on {name}: {largest} ({:.1}% of end to end)",
        share * 100.0
    );
}

/// A short closed-loop pass through the daemon: end-to-end time per
/// frame plus the transport counters around it.
fn daemon_pass(pool: &Pool, seed: u64, o: &mut Outcome) -> Result<f64, String> {
    let mut d = Daemon::start(pool)?;
    let none = vec![false; pool.frames.len()];
    let warm = load::drive(&mut d, pool, 0.0, &none, &mut |_| Ok(()))?;
    let shard0 = host::named_thread_times("scg-serve-shard");
    let client0 = host::main_thread_times();
    let sample = load::sample_frames(pool, seed);
    let w = load::drive(&mut d, pool, DAEMON_SECONDS, &sample, &mut |_| Ok(()))?;
    let shard1 = host::named_thread_times("scg-serve-shard");
    let client1 = host::main_thread_times();
    d.shutdown();
    for e in warm.errors.into_iter().chain(w.errors) {
        o.fail(e);
    }
    if w.replayed == 0 {
        o.fail("no route was replayed");
    }
    o.attempted += w.attempted;
    o.failed += w.failed;
    let frames = w.frames as f64;
    let (Some(s0), Some(s1), Some(c0), Some(c1)) = (shard0, shard1, client0, client1) else {
        return Err("thread counters unreadable in /proc/self/task".into());
    };
    let sys_us = |a: host::ThreadTimes, b: host::ThreadTimes| {
        (b.sys_ticks - a.sys_ticks) as f64 * host::TICK_SECS * 1e6 / frames
    };
    o.set("serve.transport.shard_sys_us_per_frame", sys_us(s0, s1));
    o.set("serve.transport.client_sys_us_per_frame", sys_us(c0, c1));
    o.set(
        "serve.transport.ctx_switches_per_frame",
        (s1.ctx_switches - s0.ctx_switches) as f64 / frames,
    );
    Ok(w.secs * 1e6 / frames)
}

/// Per-frame times, in µs, of the layers the reconciliation adds up.
struct ShardTimes {
    decode_us: f64,
    route_us: f64,
    handle_us: f64,
    scan_us: f64,
}

/// Wall seconds of one call of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// `ShardCore::handle_frame` in-process on the pool's frames, with the
/// wire decoder, the routing call (`route_pass`, one pass) and the
/// client's reply scan timed on the same inputs. The four are timed in
/// turn within each repeat, so a host phase shifts them alike and their
/// sum stays comparable with `handle_frame`.
fn shard_layers(
    pool: &Pool,
    route_pass: &mut dyn FnMut(),
    o: &mut Outcome,
) -> Result<ShardTimes, String> {
    let framed_pass: Vec<(u8, u8, Range<usize>, &[u8])> = pool
        .frames
        .iter()
        .map(|f| framed(&f.bytes).map(|(v, t, r)| (v, t, r, f.bytes.as_slice())))
        .collect::<Result<_, _>>()?;
    let pairs = pool.pairs_per_pass() as f64;
    let frames = framed_pass.len() as f64;
    let peek = per_item(&pool.frames, 1 << 20, |f| {
        black_box(peek_frame(black_box(&f.bytes)));
    });
    o.set("serve.wire.peek_ns_per_frame", peek * 1e9);

    let mut core = ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()));
    let mut out = Vec::new();
    for f in &pool.setup {
        let (v, t, r) = framed(&f.bytes)?;
        black_box(core.handle_frame(v, t, &f.bytes[r], &mut out));
        out.clear();
    }
    // One pass warms the plan cache (and materializes on faults-k9),
    // keeping its replies for the checks and the scan timing.
    let mut replies: Vec<Vec<u8>> = Vec::with_capacity(framed_pass.len());
    for (v, t, r, b) in &framed_pass {
        let mut reply = Vec::new();
        black_box(core.handle_frame(*v, *t, &b[r.clone()], &mut reply));
        replies.push(reply);
    }
    let reply_bytes: usize = replies.iter().map(Vec::len).sum();
    let mut scanned = Vec::with_capacity(replies.len());
    for (f, reply) in pool.frames.iter().zip(&replies) {
        let (_, t, r) = framed(reply)?;
        match scan_reply(&f.op, t, &reply[r.clone()]) {
            Ok(s) if s.refused == 0 => scanned.push((f, t, &reply[r])),
            Ok(s) => o.fail(format!("in-process reply refused {} operations", s.refused)),
            Err(e) => o.fail(format!("in-process reply: {e}")),
        }
    }
    let mut handle_pass = || {
        for (v, t, r, b) in &framed_pass {
            black_box(core.handle_frame(*v, *t, &b[r.clone()], &mut out));
            out.clear();
        }
    };
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..INTERLEAVED_REPS {
        samples[0].push(timed(|| {
            for (v, t, r, b) in &framed_pass {
                black_box(decode_request(*v, *t, black_box(&b[r.clone()])).ok());
            }
        }));
        samples[1].push(timed(&mut *route_pass));
        samples[2].push(timed(&mut handle_pass));
        samples[3].push(timed(|| {
            for (f, t, payload) in &scanned {
                black_box(scan_reply(&f.op, *t, black_box(payload)).ok());
            }
        }));
    }
    let ((), allocs) = counted(&mut handle_pass);
    let [decode, route, handle, scan] = samples.map(|s| median(&s) / frames);
    o.set("serve.wire.decode_ns_per_frame", decode * 1e9);
    o.set(
        "serve.wire.decode_ns_per_pair",
        decode * 1e9 * frames / pairs,
    );
    o.set("serve.shard.handle_us_per_frame", handle * 1e6);
    o.set("serve.shard.ns_per_pair", handle * 1e9 * frames / pairs);
    o.set("serve.shard.allocs_per_frame", allocs as f64 / frames);
    o.set(
        "serve.shard.reply_bytes_per_pair",
        reply_bytes as f64 / pairs,
    );
    o.set("client.scan_ns_per_frame", scan * 1e9);
    Ok(ShardTimes {
        decode_us: decode * 1e6,
        route_us: route * 1e6,
        handle_us: handle * 1e6,
        scan_us: scan * 1e6,
    })
}

/// The compiled plan: build, single-pair and chunked routing on the
/// pool's pairs.
fn route_layers(pool: &Pool, o: &mut Outcome) -> Result<(), String> {
    let net = net_of(pool)?;
    let build = per_item(&[()], 64, |()| {
        black_box(RoutePlan::build(black_box(&net)).ok());
    });
    let plan = RoutePlan::build(&net).map_err(|e| e.to_string())?;
    let mut buf = plan.new_buf();
    let into = per_item(&pool.pairs, 1 << 18, |(f, t)| {
        black_box(plan.route_into(f, t, &mut buf).ok());
    });
    let chunks: Vec<&[(Perm, Perm)]> = pool.pairs.chunks(512).collect();
    let mut outs: Vec<Vec<Generator>> = vec![Vec::new(); 512];
    let mut state = plan.new_batch_state();
    let chunk = per_item(&chunks, 512, |c| {
        let out = &mut outs[..c.len()];
        for slot in out.iter_mut() {
            slot.clear();
        }
        black_box(plan.route_chunk(c, out, &mut state).ok());
    });
    let chunk_per_pair = chunk * chunks.len() as f64 / pool.pairs.len() as f64;
    o.set("core.plan.build_us", build * 1e6);
    o.set("core.plan.route_into_ns", into * 1e9);
    o.set("core.plan.route_chunk_ns_per_pair", chunk_per_pair * 1e9);
    Ok(())
}

/// The packed permutation kernel on the pool's labels.
fn perm_layers(pool: &Pool, o: &mut Outcome) {
    let labels: Vec<Perm> = pool.pairs.iter().flat_map(|&(f, t)| [f, t]).collect();
    let packed: Vec<(PackedPerm, PackedPerm)> = pool
        .pairs
        .iter()
        .filter_map(|(f, t)| Some((PackedPerm::pack(f).ok()?, PackedPerm::pack(t).ok()?)))
        .collect();
    let pack = per_item(&labels, 1 << 20, |p| {
        black_box(PackedPerm::pack(black_box(p)).ok());
    });
    let compose = per_item(&packed, 1 << 20, |&(a, b)| {
        black_box(black_box(a).compose(black_box(b)));
    });
    let rank = per_item(&labels, 1 << 20, |p| {
        black_box(black_box(p).rank());
    });
    o.set("perm.pack_ns", pack * 1e9);
    o.set("perm.compose_ns", compose * 1e9);
    o.set("perm.rank_ns", rank * 1e9);
}

/// `faults-k9`'s network materialized, its plan, and the fault set in
/// force for each of its pool's frames.
struct FaultWork<'a> {
    pool: &'a Pool,
    net: SuperCayleyGraph,
    mat: Materialized,
    plan: RoutePlan,
    sets: Vec<FaultSet>,
}

impl<'a> FaultWork<'a> {
    fn new(pool: &'a Pool) -> Result<FaultWork<'a>, String> {
        let net = net_of(pool)?;
        Ok(FaultWork {
            pool,
            mat: Materialized::build(&net, DEFAULT_NET_CAP).map_err(|e| e.to_string())?,
            plan: RoutePlan::build(&net).map_err(|e| e.to_string())?,
            sets: pool.fault_states.iter().map(|s| fault_set(s)).collect(),
            net,
        })
    }

    /// Every pair of a pass with the fault set it is routed under.
    fn work(&self) -> Vec<(&'a (Perm, Perm), &FaultSet)> {
        let mut work = Vec::new();
        for f in &self.pool.frames {
            if let Op::Route(r) = &f.op {
                work.extend(
                    self.pool.pairs[r.clone()]
                        .iter()
                        .map(|p| (p, &self.sets[f.state])),
                );
            }
        }
        work
    }
}

/// Fault-aware routing, fault events and fault reports on `faults-k9`'s
/// inputs, and materialization of the workload's network.
fn fault_layers(
    fw: &FaultWork<'_>,
    work: &[(&(Perm, Perm), &FaultSet)],
    workload: Workload,
    o: &mut Outcome,
) -> Result<(), String> {
    let pool = fw.pool;
    let materialize_net = if workload == Workload::ChaosK7 {
        chaos::network()
    } else {
        fw.net.clone()
    };
    let mut mat_times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(
            Materialized::build(&materialize_net, DEFAULT_NET_CAP).map_err(|e| e.to_string())?,
        );
        mat_times.push(t0.elapsed().as_secs_f64());
    }
    o.set("core.topology.materialize_ms", median(&mat_times) * 1e3);

    let route = |(from, to): &(Perm, Perm), faults: &FaultSet| {
        scg_route_faulty_with(&fw.plan, &fw.net, &fw.mat, from, to, faults)
    };
    let (mut detoured, mut fallback) = (0u64, 0u64);
    for (pair, faults) in work {
        match route(pair, faults) {
            Ok(r) => {
                detoured += u64::from(r.detours > 0);
                fallback += u64::from(r.fallback_used);
            }
            Err(e) => o.fail(format!("fault-aware route refused: {e}")),
        }
    }
    o.attempted += work.len() as u64;
    let per_pair = per_item(work, 1 << 14, |(pair, faults)| {
        black_box(route(pair, faults).ok());
    });
    let pairs = work.len() as f64;
    o.set("core.fault.route_ns_per_pair", per_pair * 1e9);
    o.set("core.fault.detour_share", detoured as f64 / pairs);
    o.set("core.fault.fallback_share", fallback as f64 / pairs);

    // What one fallback costs: a survivor-graph BFS between pair
    // endpoints under the base fault set.
    let view = SurvivorView::new(fw.mat.graph(), &fw.sets[0]);
    let ends: Vec<(NodeId, NodeId)> = pool
        .pairs
        .iter()
        .take(FALLBACK_SEARCHES)
        .map(|(f, t)| (f.rank() as NodeId, t.rank() as NodeId))
        .collect();
    let bfs = per_item(&ends, 1, |&(s, t)| {
        black_box(view.shortest_path(s, t));
    });
    o.set("core.fault.fallback_us", bfs * 1e6);

    let events: Vec<_> = pool
        .frames
        .iter()
        .filter_map(|f| match &f.op {
            Op::Fault(ev) => Some(ev.clone()),
            Op::Route(_) => None,
        })
        .flatten()
        .collect();
    let mut faults = fw.sets[0].clone();
    let apply = per_item(&events, 1 << 20, |ev| {
        black_box(ev.apply(&mut faults));
    });
    o.set("graph.fault.apply_ns", apply * 1e9);

    let mut core = ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()));
    let mut out = Vec::new();
    for f in &pool.setup {
        let (v, t, r) = framed(&f.bytes)?;
        black_box(core.handle_frame(v, t, &f.bytes[r], &mut out));
        out.clear();
    }
    let reports: Vec<(u8, u8, Range<usize>, &[u8])> = pool
        .frames
        .iter()
        .filter(|f| matches!(f.op, Op::Fault(_)))
        .map(|f| framed(&f.bytes).map(|(v, t, r)| (v, t, r, f.bytes.as_slice())))
        .collect::<Result<_, _>>()?;
    let report = per_item(&reports, 1 << 12, |(v, t, r, b)| {
        black_box(core.handle_frame(*v, *t, &b[r.clone()], &mut out));
        out.clear();
    });
    o.set("serve.shard.fault_report_us", report * 1e6);
    Ok(())
}

/// The emulator on `chaos-k7`'s inputs: one table build, one refresh
/// per fault epoch of the schedule, one `run_chaos` call; the call time
/// the table work does not explain is the simulator's residual.
fn emu_layers(seed: u64, o: &mut Outcome) -> Result<Reconciliation, String> {
    let (mat, schedule, _) = chaos::set_up(seed)?;
    let graph = mat.graph();
    let t0 = Instant::now();
    let mut table = TableRouter::new(graph).map_err(|e| e.to_string())?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The fault set after each epoch, refreshed into the table in turn,
    // as `run_chaos` does.
    let mut faults = FaultSet::new();
    let mut refresh_ms = Vec::new();
    let events = schedule.events();
    for (i, e) in events.iter().enumerate() {
        e.event.apply(&mut faults);
        if events.get(i + 1).is_some_and(|next| next.at == e.at) {
            continue;
        }
        let t0 = Instant::now();
        table
            .refresh_with_faults(graph, &faults)
            .map_err(|e| e.to_string())?;
        refresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    black_box(&table);
    drop(table);
    let (report, secs) = chaos::timed_call(graph, &schedule, &chaos::config(seed))?;
    if let Err(e) = chaos::check_report(&report, &schedule) {
        o.fail(e);
    }
    o.attempted += 1;
    let mean_refresh = refresh_ms.iter().sum::<f64>() / refresh_ms.len().max(1) as f64;
    let refreshes = report.refreshes as f64;
    o.set("emu.table.build_ms", build_ms);
    o.set("emu.table.refresh_ms", mean_refresh);
    o.set("emu.table.refreshes", refreshes);
    let rec = Reconciliation::new(
        secs * 1e3,
        vec![
            ("emu.table.build", build_ms),
            ("emu.table.refresh", refreshes * mean_refresh),
        ],
        "emu.sim (residual)",
    );
    o.set("emu.sim.residual_ms", rec.residual);
    Ok(rec)
}
