//! The four workloads and the inputs each is generated from a seed.
//!
//! Every daemon workload is a *pool*: one pass of pre-encoded frames,
//! replayed pass after pass. A pass ends in the state it started in (on
//! `faults-k9` every node a pass fails it also repairs), so every pass —
//! and every slice, which is a whole number of passes — asks for exactly
//! the same work and gets exactly the same replies.

use std::ops::Range;

use scg_core::ScgClass;
use scg_graph::{ChaosEvent, NodeId};
use scg_perm::{factorial, Perm, XorShift64};
use scg_serve::wire::{encode_request, NetId, Request};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free 512-pair `ROUTE_BATCH` frames on MS(4,2), k = 9.
    BatchK9,
    /// Fault-free single `ROUTE` frames on MS(2,2), k = 5.
    SingleK5,
    /// 64-pair batches on MS(4,2) between fail/repair `FAULT_REPORT`s.
    FaultsK9,
    /// `scg_emu::run_chaos` on materialized MS(3,2), k = 7.
    ChaosK7,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchK9,
        Workload::SingleK5,
        Workload::FaultsK9,
        Workload::ChaosK7,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchK9 => "batch-k9",
            Workload::SingleK5 => "single-k5",
            Workload::FaultsK9 => "faults-k9",
            Workload::ChaosK7 => "chaos-k7",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs untraced, for the end-to-end metrics:
    /// only the ones `BENCHMARK.json` gates. `faults-k9` and `chaos-k7`
    /// move with the host far more than with the program (`README.md`
    /// gives the figures), so they run traced only.
    #[must_use]
    pub fn end_to_end(self) -> bool {
        matches!(self, Workload::BatchK9 | Workload::SingleK5)
    }

    /// How the workload drives the daemon; `None` for `chaos-k7`.
    #[must_use]
    pub fn daemon_spec(self) -> Option<DaemonSpec> {
        let spec = match self {
            Workload::BatchK9 => DaemonSpec {
                levels: 4,
                fault_cycles: false,
                batch: 512,
                route_frames: 64,
                passes_per_slice: 16,
                slices_per_gap: 1,
                sampled_frames: 8,
            },
            Workload::SingleK5 => DaemonSpec {
                levels: 2,
                fault_cycles: false,
                batch: 0,
                route_frames: 1024,
                passes_per_slice: 4,
                slices_per_gap: 8,
                sampled_frames: 256,
            },
            Workload::FaultsK9 => DaemonSpec {
                levels: 4,
                fault_cycles: true,
                batch: 64,
                route_frames: 32,
                passes_per_slice: 32,
                slices_per_gap: 2,
                sampled_frames: 8,
            },
            Workload::ChaosK7 => return None,
        };
        Some(spec)
    }
}

/// How a daemon workload loads the daemon. Every network is a macro-star
/// `MS(l, 2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSpec {
    /// Levels `l` of the macro-star (box size 2, so k = 2l + 1).
    pub levels: u8,
    /// Whether the pool fails and repairs nodes around its route frames.
    pub fault_cycles: bool,
    /// Pairs per `ROUTE_BATCH` frame; 0 sends single `ROUTE` frames.
    pub batch: usize,
    /// Route frames per pass.
    pub route_frames: usize,
    /// Passes per slice, the unit of the latency percentiles: enough for
    /// at least 1 000 route frames, so a slice's p99 has ten samples
    /// beyond it, while a pass stays short (10–30 ms) for the steal
    /// count to tell passes apart.
    pub passes_per_slice: usize,
    /// Slices' worth of passes between two gaps, in which the cold-start
    /// and probe samples are taken.
    pub slices_per_gap: usize,
    /// Route frames per pass whose replies are fully decoded and replayed.
    pub sampled_frames: usize,
}

impl DaemonSpec {
    /// The network descriptor.
    #[must_use]
    pub fn net(&self) -> NetId {
        NetId {
            class: ScgClass::MacroStar,
            levels: self.levels,
            box_size: 2,
        }
    }

    /// The label degree k = nl + 1.
    #[must_use]
    pub fn degree(&self) -> usize {
        2 * usize::from(self.levels) + 1
    }
}

/// What one frame asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Route `pairs[range]` (one pair for a single `ROUTE`).
    Route(Range<usize>),
    /// Report fault events; each changes the fault set.
    Fault(Vec<ChaosEvent>),
}

/// One pre-encoded frame of a pool.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The complete wire frame.
    pub bytes: Vec<u8>,
    /// What it asks for.
    pub op: Op,
    /// Index into [`Pool::fault_states`] of the fault set in force when
    /// the daemon handles this frame.
    pub state: usize,
}

/// The generated inputs of a daemon workload.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The workload's shape.
    pub spec: DaemonSpec,
    /// Frames sent once per connection before the first pass (the base
    /// fault report on `faults-k9`).
    pub setup: Vec<Frame>,
    /// One pass, in send order.
    pub frames: Vec<Frame>,
    /// Every pair the pass routes.
    pub pairs: Vec<(Perm, Perm)>,
    /// Sorted failed-node sets; frames refer to them by index.
    pub fault_states: Vec<Vec<NodeId>>,
}

impl Pool {
    /// Pairs routed per pass.
    #[must_use]
    pub fn pairs_per_pass(&self) -> u64 {
        self.pairs.len() as u64
    }
}

/// Nodes failed for the whole run on `faults-k9`.
const BASE_FAULTS: usize = 2;
/// Nodes a `faults-k9` pass fails and repairs again. With the base set at
/// most 4 = degree − 1 nodes are down at once, below the connectivity
/// κ = 5 of MS(4,2), so the survivors stay connected and every pair
/// whose endpoints are alive has a route.
const CYCLING_FAULTS: usize = 2;

/// Generates the pool of a daemon workload from `seed`.
#[must_use]
pub fn generate(spec: DaemonSpec, seed: u64) -> Pool {
    let fault_cycles = spec.fault_cycles;
    let net = spec.net();
    let k = spec.degree();
    let mut rng = XorShift64::new(seed ^ 0x5CA1_AB1E);
    // Distinct node ids (ranks) for the fault universe.
    let mut universe: Vec<NodeId> = Vec::new();
    if fault_cycles {
        let n = factorial(k);
        while universe.len() < BASE_FAULTS + CYCLING_FAULTS {
            let id = rng.gen_range_u64(n) as NodeId;
            if !universe.contains(&id) {
                universe.push(id);
            }
        }
    }
    let (base, cycling) = universe.split_at(universe.len().min(BASE_FAULTS));
    let draw = |rng: &mut XorShift64| loop {
        let p = Perm::random(k, rng);
        // Endpoints never fail, so no pair is refused for a dead endpoint.
        if !universe.contains(&(p.rank() as NodeId)) {
            return p;
        }
    };
    let per_frame = spec.batch.max(1);
    let pairs: Vec<(Perm, Perm)> = (0..spec.route_frames * per_frame)
        .map(|_| (draw(&mut rng), draw(&mut rng)))
        .collect();

    let mut state: Vec<NodeId> = base.to_vec();
    state.sort_unstable();
    let mut fault_states = vec![state.clone()];
    let state_index = |states: &mut Vec<Vec<NodeId>>, s: &[NodeId]| {
        states.iter().position(|t| t == s).unwrap_or_else(|| {
            states.push(s.to_vec());
            states.len() - 1
        })
    };
    let fault_frame = |events: Vec<ChaosEvent>, state: usize| Frame {
        bytes: encode_request(&Request::FaultReport {
            net,
            events: events.clone(),
        }),
        op: Op::Fault(events),
        state,
    };
    let setup = if fault_cycles {
        vec![fault_frame(
            base.iter().map(|&u| ChaosEvent::FailNode(u)).collect(),
            0,
        )]
    } else {
        Vec::new()
    };
    // Fail each cycling node, then repair each, at evenly spaced points
    // of the pass: the fault set climbs to base + all cycling nodes and
    // is back at base when the pass ends.
    let mut reports: Vec<ChaosEvent> = cycling.iter().map(|&u| ChaosEvent::FailNode(u)).collect();
    reports.extend(cycling.iter().map(|&u| ChaosEvent::RepairNode(u)));
    let every = spec.route_frames / reports.len().max(1);
    let mut frames = Vec::new();
    for i in 0..spec.route_frames {
        if fault_cycles && i % every == 0 && i / every < reports.len() {
            let ev = reports[i / every];
            apply_node_event(ev, &mut state);
            let s = state_index(&mut fault_states, &state);
            frames.push(fault_frame(vec![ev], s));
        }
        let range = i * per_frame..(i + 1) * per_frame;
        let req = if spec.batch == 0 {
            let (from, to) = pairs[range.start];
            Request::Route { net, from, to }
        } else {
            Request::RouteBatch {
                net,
                pairs: pairs[range.clone()].to_vec(),
            }
        };
        frames.push(Frame {
            bytes: encode_request(&req),
            op: Op::Route(range),
            state: state_index(&mut fault_states, &state),
        });
    }
    Pool {
        spec,
        setup,
        frames,
        pairs,
        fault_states,
    }
}

/// Applies a node fail/repair event to a sorted failed-node list.
fn apply_node_event(ev: ChaosEvent, state: &mut Vec<NodeId>) {
    match ev {
        ChaosEvent::FailNode(u) => {
            if let Err(at) = state.binary_search(&u) {
                state.insert(at, u);
            }
        }
        ChaosEvent::RepairNode(u) => state.retain(|&v| v != u),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.name().len() <= 64
                    && w.name()
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-')
            );
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_manifest_gates_exactly_the_end_to_end_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for w in Workload::ALL {
            let listed = text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name()));
            assert_eq!(listed, w.end_to_end(), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_same_pool_and_passes_end_where_they_start() {
        let spec = Workload::FaultsK9.daemon_spec().expect("daemon workload");
        let a = generate(spec, 7);
        let b = generate(spec, 7);
        assert_eq!(a.pairs, b.pairs);
        assert!(a
            .frames
            .iter()
            .zip(&b.frames)
            .all(|(x, y)| x.bytes == y.bytes));
        assert_ne!(generate(spec, 8).pairs, a.pairs);
        let states = &a.fault_states;
        assert_eq!(states[0].len(), BASE_FAULTS);
        assert!(states
            .iter()
            .all(|s| s.len() <= BASE_FAULTS + CYCLING_FAULTS));
        assert_eq!(
            a.frames.last().map(|f| f.state),
            Some(0),
            "pass ends at base"
        );
        assert_eq!(
            a.frames
                .iter()
                .filter(|f| matches!(f.op, Op::Fault(_)))
                .count(),
            4
        );
        let universe: Vec<NodeId> = states.iter().flatten().copied().collect();
        for (from, to) in &a.pairs {
            assert!(!universe.contains(&(from.rank() as NodeId)));
            assert!(!universe.contains(&(to.rank() as NodeId)));
        }
    }

    #[test]
    fn fault_free_pools_have_one_empty_state() {
        let spec = Workload::SingleK5.daemon_spec().expect("daemon workload");
        let p = generate(spec, 1);
        assert_eq!(p.fault_states, vec![Vec::<NodeId>::new()]);
        assert_eq!(p.frames.len(), spec.route_frames);
        assert!(p.setup.is_empty());
        assert_eq!(p.pairs_per_pass(), spec.route_frames as u64);
    }
}
