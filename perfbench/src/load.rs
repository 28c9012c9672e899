//! Closed-loop load on one `scg-serve` shard over a Unix-domain socket.
//!
//! Everything runs in this process: the daemon's acceptor and single
//! shard thread, plus the calling thread as the one client. The loop is
//! closed with one frame in flight: the next frame goes out only after
//! the reply to the last one is back, like a caller that waits for its
//! routes. Frames are replayed from the pre-encoded pool, so the daemon
//! receives only the generated inputs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use scg_graph::{ChaosEvent, NodeId};
use scg_serve::wire::{encode_request, NetId, Request};
use scg_serve::{spawn, Client, Config, RunningServer};

use crate::check::{scan_reply, verify_routes, Scan};
use crate::host;
use crate::inputs::{Frame, Op, Pool};
use crate::stats::{median, Pass, Slice, Slicer};

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

/// A fresh socket path relative to the working directory (the checkout
/// root), so it stays inside the checkout and within `sun_path`'s 108
/// bytes however deep the checkout lies.
fn socket_path() -> PathBuf {
    // ord: Relaxed — a unique counter, publishes nothing.
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()))
}

/// A running one-shard daemon and its one client connection.
#[derive(Debug)]
pub struct Daemon {
    server: RunningServer,
    client: Client,
    /// Fault epoch of the last `FAULT_OK`; epochs must only grow.
    epoch: u64,
}

impl Daemon {
    /// Spawns the daemon with one shard, connects, and sends the pool's
    /// setup frames.
    ///
    /// # Errors
    ///
    /// Socket or spawn failures, or a setup frame that is not applied.
    pub fn start(pool: &Pool) -> Result<Daemon, String> {
        let server = spawn(Config {
            uds_path: socket_path(),
            tcp: false,
            shards: 1,
        })
        .map_err(|e| format!("spawn: {e}"))?;
        let client = Client::connect_uds(server.uds_path()).map_err(|e| format!("connect: {e}"))?;
        let mut d = Daemon {
            server,
            client,
            epoch: 0,
        };
        for f in &pool.setup {
            d.exchange(f)?;
        }
        Ok(d)
    }

    /// Sends one frame and checks its reply, untimed.
    ///
    /// # Errors
    ///
    /// A malformed or refused reply, or a fault report not applied.
    pub fn exchange(&mut self, frame: &Frame) -> Result<Scan, String> {
        self.client
            .send_raw(&frame.bytes)
            .map_err(|e| format!("send: {e}"))?;
        let scan = self
            .client
            .recv_with(|ftype, payload| scan_reply(&frame.op, ftype, payload))
            .map_err(|e| format!("recv: {e}"))??;
        if scan.refused > 0 {
            return Err(format!("{} operations refused", scan.refused));
        }
        self.check_fault_ack(&frame.op, &scan)?;
        Ok(scan)
    }

    fn check_fault_ack(&mut self, op: &Op, scan: &Scan) -> Result<(), String> {
        if let Op::Fault(events) = op {
            if scan.applied as usize != events.len() || scan.epoch <= self.epoch {
                return Err(format!(
                    "fault report applied {} of {} events at epoch {} after {}",
                    scan.applied,
                    events.len(),
                    scan.epoch,
                    self.epoch
                ));
            }
            self.epoch = scan.epoch;
        }
        Ok(())
    }

    /// Closes the connection, stops the daemon and joins its threads.
    pub fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// One `setup_s` sample: a cold start from spawn to the first
/// successful route reply (after the pool's setup frames, so on
/// `faults-k9` the materializing first fault report is included).
/// Returns the seconds and the daemon, which the caller shuts down
/// outside the timing.
///
/// # Errors
///
/// As [`Daemon::start`] and [`Daemon::exchange`].
pub fn cold_start(pool: &Pool) -> Result<(f64, Daemon), String> {
    let first_route = pool
        .frames
        .iter()
        .find(|f| matches!(f.op, Op::Route(_)))
        .ok_or("pool has no route frame")?;
    let t0 = Instant::now();
    let mut d = Daemon::start(pool)?;
    let reply = d.exchange(first_route);
    let secs = t0.elapsed().as_secs_f64();
    match reply {
        Ok(_) => Ok((secs, d)),
        Err(e) => {
            d.shutdown();
            Err(e)
        }
    }
}

/// Host steal ticks so far, 0 where `/proc/stat` is unreadable (then
/// every unit counts as calm).
fn steal_now() -> u64 {
    host::steal_ticks().unwrap_or(0)
}

/// What a timed window measured and checked.
#[derive(Debug, Default)]
pub struct Window {
    /// Every pass, in order.
    pub passes: Vec<Pass>,
    /// Closed slices, in order of closing.
    pub slices: Vec<Slice>,
    /// Fault reports sent.
    pub fault_reports: u64,
    /// Frames completed and the wall time they took.
    pub frames: u64,
    /// See `frames`.
    pub secs: f64,
    /// Pairs plus fault reports sent.
    pub attempted: u64,
    /// Pairs and fault reports refused.
    pub failed: u64,
    /// Pairs routed.
    pub routed: u64,
    /// Hops and routed pairs of one pass (every pass must agree).
    pub pass_hops: u64,
    /// See `pass_hops`.
    pub pass_routed: u64,
    /// Routed pairs flagged detoured / fallback.
    pub detoured: u64,
    /// See `detoured`.
    pub fallback: u64,
    /// Pairs whose fully decoded routes were replayed.
    pub replayed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Drives whole passes over the pool until `seconds` have passed at a
/// gap (every `slices_per_gap × passes_per_slice` passes) — at least up
/// to the first gap, so `drive(.., 0.0, ..)` is a warm-up. One frame is
/// in flight at a time. At each gap `between` runs, outside every pass's
/// time. Every pass records the host's steal ticks that elapsed in it,
/// read between two passes, outside both, and goes to a [`Slicer`].
/// Frames flagged in `sample` have their first reply fully decoded and
/// replayed.
///
/// # Errors
///
/// Socket failures; wrong replies are recorded in [`Window::errors`].
pub fn drive(
    d: &mut Daemon,
    pool: &Pool,
    seconds: f64,
    sample: &[bool],
    between: &mut dyn FnMut(&mut Daemon) -> Result<(), String>,
) -> Result<Window, String> {
    let n = pool.frames.len();
    let gap_len = (n * pool.spec.passes_per_slice * pool.spec.slices_per_gap) as u64;
    let mut w = Window::default();
    // Per pool frame: (hops, routed) of its first reply.
    let mut first: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut samples: Vec<(usize, u8, Vec<u8>)> = Vec::new();
    let mut slicer = Slicer::new(pool.spec.passes_per_slice);
    // Route frame round trips of the current pass.
    let mut rtts: Vec<f64> = Vec::with_capacity(n);
    let mut steal0 = steal_now();
    let start = Instant::now();
    let mut pass_start = start;
    loop {
        if w.frames > 0 && w.frames % gap_len == 0 {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            between(d)?;
            steal0 = steal_now();
            pass_start = Instant::now();
        }
        let i = (w.frames % n as u64) as usize;
        let frame = &pool.frames[i];
        let keep = sample[i] && first[i].is_none();
        let sent_at = Instant::now();
        d.client
            .send_raw(&frame.bytes)
            .map_err(|e| format!("send: {e}"))?;
        let (scan, copy) = d
            .client
            .recv_with(|ftype, payload| {
                (
                    scan_reply(&frame.op, ftype, payload),
                    keep.then(|| (ftype, payload.to_vec())),
                )
            })
            .map_err(|e| format!("recv: {e}"))?;
        let rtt_us = sent_at.elapsed().as_secs_f64() * 1e6;
        w.frames += 1;
        if let Some((ftype, bytes)) = copy {
            samples.push((i, ftype, bytes));
        }
        let scan = match scan {
            Ok(scan) => scan,
            Err(e) => {
                w.errors.push(e);
                Scan::default()
            }
        };
        match &frame.op {
            Op::Route(range) => {
                rtts.push(rtt_us);
                w.attempted += range.len() as u64;
            }
            Op::Fault(_) => {
                w.fault_reports += 1;
                w.attempted += 1;
                if scan.refused == 0 {
                    if let Err(e) = d.check_fault_ack(&frame.op, &scan) {
                        w.errors.push(e);
                    }
                }
            }
        }
        w.failed += scan.refused;
        w.routed += scan.ok;
        w.detoured += scan.detoured;
        w.fallback += scan.fallback;
        match first[i] {
            None => first[i] = Some((scan.hops, scan.ok)),
            Some(prev) if prev != (scan.hops, scan.ok) => w.errors.push(format!(
                "frame {i} replied {:?} after {prev:?} in an earlier pass",
                (scan.hops, scan.ok)
            )),
            Some(_) => {}
        }
        if w.frames % n as u64 == 0 {
            let secs = pass_start.elapsed().as_secs_f64();
            let steal = steal_now();
            let stolen = steal.saturating_sub(steal0);
            w.passes.push(Pass {
                pairs_per_s: pool.pairs_per_pass() as f64 / secs,
                rtt_p50_us: median(&rtts),
                steal: stolen,
            });
            w.slices.extend(slicer.add_pass(&rtts, stolen));
            rtts.clear();
            steal0 = steal;
            pass_start = Instant::now();
        }
    }
    w.secs = start.elapsed().as_secs_f64();
    for (hops, routed) in first.iter().flatten() {
        w.pass_hops += hops;
        w.pass_routed += routed;
    }
    for (i, ftype, bytes) in samples {
        match verify_routes(pool, &pool.frames[i], ftype, &bytes) {
            Ok(pairs) => w.replayed += pairs,
            Err(e) => w.errors.push(format!("frame {i}: {e}")),
        }
    }
    Ok(w)
}

/// Which pool frames to replay in full: `sampled_frames` route frames of
/// the pass, drawn from `seed`.
#[must_use]
pub fn sample_frames(pool: &Pool, seed: u64) -> Vec<bool> {
    let mut rng = scg_perm::XorShift64::new(seed ^ 0x0DEC_0DE5);
    let routes: Vec<usize> = (0..pool.frames.len())
        .filter(|&i| matches!(pool.frames[i].op, Op::Route(_)))
        .collect();
    let mut pick = vec![false; pool.frames.len()];
    let want = pool.spec.sampled_frames.min(routes.len());
    while pick.iter().filter(|&&p| p).count() < want {
        pick[routes[rng.gen_range(routes.len())]] = true;
    }
    pick
}

/// Median round trip of `reports` fault reports that alternately fail
/// and repair `node` of `net`, one at a time (an even count, so the fault
/// set ends as it began), and the host steal ticks while they ran.
///
/// # Errors
///
/// Socket failures or a report that is refused or not applied.
pub fn fault_probe(
    d: &mut Daemon,
    net: NetId,
    node: NodeId,
    reports: usize,
) -> Result<(f64, u64), String> {
    let frame = |ev: ChaosEvent| Frame {
        bytes: encode_request(&Request::FaultReport {
            net,
            events: vec![ev],
        }),
        op: Op::Fault(vec![ev]),
        state: 0,
    };
    let pair = [
        frame(ChaosEvent::FailNode(node)),
        frame(ChaosEvent::RepairNode(node)),
    ];
    let mut rtts = Vec::with_capacity(reports);
    let steal0 = steal_now();
    for f in pair.iter().cycle().take(2 * reports.div_ceil(2)) {
        let t0 = Instant::now();
        d.exchange(f)?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((median(&rtts), steal_now().saturating_sub(steal0)))
}
