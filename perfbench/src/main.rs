//! `scg-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-k9|single-k5|faults-k9|chaos-k7> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `faults-k9` and `chaos-k7` run traced only: they have no end-to-end
//! mode.
//!
//! Run it from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Before it come the run fingerprint and, when traced,
//! the reconciliation of the end-to-end time with the layers. The exit
//! code is 1 when an output was wrong, 2 on bad arguments and 3 when the
//! run could not be set up. `README.md` says what each workload and
//! metric is for.

mod alloc;
mod chaos;
mod check;
mod host;
mod inputs;
mod load;
mod metrics;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use scg_core::ScgClass;
use scg_serve::wire::NetId;

use crate::inputs::{DaemonSpec, Workload};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{calm, median, quantile, summarize, TAIL_QUANTILE};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fault reports probed in every gap between passes.
const PROBE_REPORTS: usize = 32;
/// The network those reports name: MS(2,2), which `batch-k9` never
/// routes on and `single-k5` has repaired again before its next pass,
/// so the route path stays fault-free.
const PROBE_NET: NetId = NetId {
    class: ScgClass::MacroStar,
    levels: 2,
    box_size: 2,
};
/// Cold starts timed for `setup_s`, spread evenly over the run.
const SETUP_SAMPLES: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !args.trace && !args.workload.end_to_end() {
        return Err(format!("{} runs only with --trace 1", args.workload.name()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let steal0 = host::steal_ticks();
    let run = match (args.trace, args.workload.daemon_spec()) {
        (false, Some(spec)) => run_daemon(spec, &args),
        _ => trace::run(args.workload, args.seed),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::from(3);
        }
    };
    let steal = steal0.zip(host::steal_ticks()).map(|(a, b)| b - a);
    println!(
        "{}",
        host::fingerprint(args.workload.name(), args.seed, args.trace, steal)
    );
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.result_line(defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("incomplete result: {e}");
            return ExitCode::from(3);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_daemon(spec: DaemonSpec, args: &Args) -> Result<Outcome, String> {
    let pool = inputs::generate(spec, args.seed);
    let sample = load::sample_frames(&pool, args.seed);
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut fault_p50s = Vec::new();
    let mut d = load::Daemon::start(&pool)?;
    let none = vec![false; pool.frames.len()];
    let warm = load::drive(&mut d, &pool, 0.0, &none, &mut |_| Ok(()))?;
    // Read before the first cold start: the serving daemon and the client
    // at steady state. Cold-started daemons free their memory into the
    // allocator's arenas, which keep an unpredictable share.
    let peak_rss = host::peak_rss_mb().ok_or("VmHWM is unreadable")?;
    // Cold starts and fault-report probes are taken in the gaps between
    // passes, outside every pass's time, so
    // they see the same host phases as the passes do. A cold-started
    // daemon is shut down in its gap (up to its acceptor's 100 ms poll),
    // so cold starts are spread over the run rather than made in every
    // gap.
    let cold = |setup: &mut Vec<f64>| -> Result<(), String> {
        let (secs, daemon) = load::cold_start(&pool)?;
        setup.push(secs);
        daemon.shutdown();
        Ok(())
    };
    let start = Instant::now();
    let mut between = |d: &mut load::Daemon| -> Result<(), String> {
        let due = start.elapsed().as_secs_f64() / args.seconds * SETUP_SAMPLES as f64;
        if (setup.len() as f64) < due.min(SETUP_SAMPLES as f64) {
            cold(&mut setup)?;
        }
        fault_p50s.push(load::fault_probe(d, PROBE_NET, 0, PROBE_REPORTS)?);
        Ok(())
    };
    let w = load::drive(&mut d, &pool, args.seconds, &sample, &mut between)?;
    d.shutdown();
    while setup.len() < SETUP_SAMPLES {
        cold(&mut setup)?;
    }
    let probed = (fault_p50s.len() * PROBE_REPORTS) as u64;

    let mut o = Outcome::new();
    o.attempted = w.attempted + probed;
    o.failed = w.failed;
    for e in warm.errors.iter().chain(&w.errors) {
        o.fail(e.clone());
    }
    if w.replayed == 0 {
        o.fail("no route was replayed");
    }
    let s = summarize(&w.passes, &w.slices);
    let pairs = w.attempted - w.fault_reports;
    o.set("setup_s", median(&setup));
    o.set("pairs_per_s", s.pairs_per_s);
    o.set("rtt_p50_us", s.rtt_p50_us);
    o.set("rtt_p99_us", s.rtt_p99_us);
    o.set(
        "fault_rtt_p50_us",
        quantile(&calm(&fault_p50s), TAIL_QUANTILE),
    );
    o.set("delivered_ratio", w.routed as f64 / pairs as f64);
    o.set("hops_per_pair", w.pass_hops as f64 / w.pass_routed as f64);
    o.set("peak_rss_mb", peak_rss);
    eprintln!(
        "{}: {} slices, {} frames in {:.2} s ({:.0} pairs/s whole-run), {} pairs replayed, \
         {} detoured, {} fallback",
        args.workload.name(),
        w.slices.len(),
        w.frames,
        w.secs,
        w.routed as f64 / w.secs,
        w.replayed,
        w.detoured,
        w.fallback
    );
    let passes: Vec<String> = w
        .passes
        .iter()
        .map(|p| format!("[{:.0}, {:.2}, {}]", p.pairs_per_s, p.rtt_p50_us, p.steal))
        .collect();
    let slices: Vec<String> = w
        .slices
        .iter()
        .map(|s| format!("[{:.2}, {}]", s.rtt_p99_us, s.steal))
        .collect();
    let probes: Vec<String> = fault_p50s
        .iter()
        .map(|(x, s)| format!("[{x:.2}, {s}]"))
        .collect();
    eprintln!(
        "passes (pairs/s, rtt p50 us, steal): [{}]",
        passes.join(", ")
    );
    eprintln!("slices (rtt p99 us, steal): [{}]", slices.join(", "));
    eprintln!("fault p50s (us, steal): [{}]", probes.join(", "));
    eprintln!("setup samples (s): {setup:?}");
    Ok(o)
}
