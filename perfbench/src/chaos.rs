//! The `chaos-k7` workload: `scg_emu::run_chaos` on materialized MS(3,2).
//!
//! Each table build or refresh of the emulator's N² `TableRouter` costs
//! seconds at k = 7 (a refresh under faults several times a fault-free
//! build), so the schedule is sized down to two fault epochs: a
//! permanent node fault, a transient node fault and a link flap strike
//! together at cycle 0, and the transient ones heal together at cycle
//! [`REPAIR_AT`]. One call therefore builds once and refreshes twice.

use std::time::Instant;

use scg_core::{Materialized, ScgClass, SuperCayleyGraph, DEFAULT_NET_CAP};
use scg_emu::{run_chaos, ChaosConfig, ChaosReport};
use scg_graph::{ChaosSpec, DenseGraph, FaultSchedule};

/// Cycle at which the transient faults are repaired.
pub const REPAIR_AT: u64 = 16;
/// Packets injected per cycle while injection is open.
pub const INJECT_PER_CYCLE: usize = 64;
/// Injection closes after this cycle, then traffic drains.
pub const INJECT_UNTIL: u64 = 2 * REPAIR_AT;

/// The network, MS(3,2).
///
/// # Panics
///
/// Never: the parameters are valid for the class.
#[must_use]
pub fn network() -> SuperCayleyGraph {
    SuperCayleyGraph::new(ScgClass::MacroStar, 3, 2).expect("MS(3,2) is a valid macro-star")
}

/// The fault mix: one permanent, one transient, one link flap.
#[must_use]
pub fn spec() -> ChaosSpec {
    ChaosSpec {
        horizon: 1,
        permanent_node_faults: 1,
        transient_node_faults: 1,
        link_flaps: 1,
        region_faults: 0,
        region_radius: 1,
        repair_after: (REPAIR_AT, REPAIR_AT),
        exclude: Vec::new(),
    }
}

/// The traffic and healing configuration, traffic drawn from `seed`
/// (salted, so it is not the schedule's stream).
#[must_use]
pub fn config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        inject_per_cycle: INJECT_PER_CYCLE,
        inject_until: INJECT_UNTIL,
        seed: seed ^ 0x7EA_FF1C,
        ..ChaosConfig::default()
    }
}

/// The set-up a user of the emulator pays: materialize the network and
/// draw the schedule. Returns the graph, the schedule and the seconds.
///
/// # Errors
///
/// A materialization failure.
pub fn set_up(seed: u64) -> Result<(Materialized, FaultSchedule, f64), String> {
    let t0 = Instant::now();
    let mat = Materialized::build(&network(), DEFAULT_NET_CAP).map_err(|e| e.to_string())?;
    let schedule = FaultSchedule::random(mat.graph(), &spec(), seed);
    Ok((mat, schedule, t0.elapsed().as_secs_f64()))
}

/// One timed `run_chaos` call on a fresh copy of `schedule`.
///
/// # Errors
///
/// The emulator's error, as text.
pub fn timed_call(
    graph: &DenseGraph,
    schedule: &FaultSchedule,
    config: &ChaosConfig,
) -> Result<(ChaosReport, f64), String> {
    let mut schedule = schedule.clone();
    schedule.reset();
    let t0 = Instant::now();
    let report = run_chaos(graph, &mut schedule, config).map_err(|e| e.to_string())?;
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// Distinct cycles at which `schedule` fires events: the refreshes one
/// call must make.
#[must_use]
pub fn fault_epochs(schedule: &FaultSchedule) -> u64 {
    let mut cycles: Vec<u64> = schedule.events().iter().map(|e| e.at).collect();
    cycles.dedup();
    cycles.len() as u64
}

/// Checks a report against the schedule: traffic drained, every packet
/// accounted for, every degrading event healed, one refresh per epoch.
///
/// # Errors
///
/// Names the first violated condition.
pub fn check_report(report: &ChaosReport, schedule: &FaultSchedule) -> Result<(), String> {
    let s = &report.stats;
    if !report.drained || s.livelocked {
        return Err(format!("traffic did not drain: {s:?}"));
    }
    if s.delivered + s.dropped + s.undelivered != report.injected {
        return Err(format!("{} injected but {s:?}", report.injected));
    }
    if report.events_applied != schedule.len() as u64 {
        return Err(format!(
            "{} of {} events applied",
            report.events_applied,
            schedule.len()
        ));
    }
    if report.mttr_max().is_none() {
        return Err("a degrading event never healed".into());
    }
    if report.refreshes != fault_epochs(schedule) {
        return Err(format!(
            "{} refreshes for {} fault epochs",
            report.refreshes,
            fault_epochs(schedule)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_two_epochs_and_repeats_per_seed() {
        let (mat, a, _) = set_up(11).expect("materializes");
        let b = FaultSchedule::random(mat.graph(), &spec(), 11);
        assert_eq!(a, b);
        assert_eq!(fault_epochs(&a), 2);
        assert_eq!(a.len(), 5, "3 faults + 2 repairs");
        assert!(a.events().iter().all(|e| e.at == 0 || e.at == REPAIR_AT));
    }
}
