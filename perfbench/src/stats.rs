//! Order statistics, per-slice aggregation and the layer reconciliation.
//!
//! The host this benchmark was tuned on swings by up to ~40 % in phases
//! of 2–40 s and loses its CPUs to the hypervisor in bursts (see
//! `README.md`), so no timed metric is a whole-run total. A run is cut
//! into passes and slices of identical work; each pass yields a rate and
//! a median round trip, each slice its tail, and the reported figure is
//! an order statistic over them.

// A unit (pass or slice) keeps the host's steal ticks that elapsed while
// it ran, and only the calm units count (see [`calm`]): the hypervisor's
// bursts are the host's noise, not the program's. The host's speed
// phases remain: its fast phases come and go from run to run while its
// slow baseline is present in nearly every run, so per-unit figures are
// bimodal, and a median that falls between the modes jumps. Every
// figure is therefore read on the slow side of its units.

/// Quantile of the calm per-pass pair rates reported as `pairs_per_s`:
/// the lower decile, the rate sustained in all but the slowest tenth.
pub const RATE_QUANTILE: f64 = 0.1;

/// Quantile over calm passes of the pass's median round trip reported as
/// `rtt_p50_us`: the upper decile, the mirror of [`RATE_QUANTILE`] (at
/// one frame in flight a pass's rate and its median round trip are two
/// views of the same per-frame time).
pub const LATENCY_QUANTILE: f64 = 0.9;

/// Quantile over calm slices of the slice's p99 round trip reported as
/// `rtt_p99_us`, and over calm fault-report probes of their median round
/// trip reported as `fault_rtt_p50_us`: the upper quartile. A tail the
/// program adds to more than a quarter of the slices moves it.
pub const TAIL_QUANTILE: f64 = 0.75;

/// The `q`-quantile of `xs` (`0 ≤ q ≤ 1`) by linear interpolation
/// between the two nearest order statistics (Hyndman–Fan type 7, the
/// numpy default). NaN for an empty sample.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (NaN when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Share of a run's units that [`calm`] keeps at the least.
pub const CALM_SHARE: f64 = 0.1;

/// The values of `units` (value, steal ticks while it was measured)
/// that the hypervisor disturbed least: those whose steal count is at
/// most the [`CALM_SHARE`]-quantile of all the counts (the lower order
/// statistic). While at least that share of the units saw no steal at
/// all, that is exactly the steal-free units; when steal is everywhere,
/// the calmest tenth, ties included.
#[must_use]
pub fn calm(units: &[(f64, u64)]) -> Vec<f64> {
    let mut steals: Vec<u64> = units.iter().map(|&(_, s)| s).collect();
    steals.sort_unstable();
    let at = (steals.len().saturating_sub(1) as f64 * CALM_SHARE) as usize;
    let Some(&limit) = steals.get(at) else {
        return Vec::new();
    };
    units
        .iter()
        .filter(|&&(_, s)| s <= limit)
        .map(|&(v, _)| v)
        .collect()
}

/// One pass over the pool, summarised as soon as it ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Pairs routed per second.
    pub pairs_per_s: f64,
    /// Median client-observed route frame round trip.
    pub rtt_p50_us: f64,
    /// Host steal ticks that elapsed during the pass.
    pub steal: u64,
}

/// One slice of a timed window: a fixed number of whole passes,
/// summarised as soon as it closes so a run keeps no per-frame samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// 99th-percentile route frame round trip in the slice.
    pub rtt_p99_us: f64,
    /// Host steal ticks that elapsed during the slice's passes.
    pub steal: u64,
}

impl Slice {
    /// Summarises a slice from its round-trip samples.
    #[must_use]
    pub fn new(rtts_us: &[f64], steal: u64) -> Slice {
        Slice {
            rtt_p99_us: quantile(rtts_us, 0.99),
            steal,
        }
    }
}

/// Passes gathered into a slice that is not yet full.
#[derive(Debug, Default)]
struct OpenSlice {
    rtts: Vec<f64>,
    passes: usize,
    steal: u64,
}

/// Groups whole passes into slices of `passes_per_slice` passes, the
/// steal-free passes apart from the others: a slice is either wholly
/// steal-free or a slice of passes that all lost time to the hypervisor.
/// A steal tick is 10 ms of either CPU, so a pass (10–30 ms) is the
/// finest unit the count can tell apart; a slice of consecutive passes
/// would rarely be steal-free on a busy host.
#[derive(Debug)]
pub struct Slicer {
    passes_per_slice: usize,
    calm: OpenSlice,
    stolen: OpenSlice,
}

impl Slicer {
    /// A slicer closing a slice every `passes_per_slice` passes (at least 1).
    #[must_use]
    pub fn new(passes_per_slice: usize) -> Slicer {
        Slicer {
            passes_per_slice: passes_per_slice.max(1),
            calm: OpenSlice::default(),
            stolen: OpenSlice::default(),
        }
    }

    /// Adds one pass: its route frame round trips and the steal ticks
    /// during it. Returns the slice it completes, if any.
    pub fn add_pass(&mut self, rtts_us: &[f64], steal: u64) -> Option<Slice> {
        let open = if steal == 0 {
            &mut self.calm
        } else {
            &mut self.stolen
        };
        open.rtts.extend_from_slice(rtts_us);
        open.passes += 1;
        open.steal += steal;
        if open.passes < self.passes_per_slice {
            return None;
        }
        let full = std::mem::take(open);
        Some(Slice::new(&full.rtts, full.steal))
    }
}

/// The run-level figures derived from its passes and slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// [`RATE_QUANTILE`] of the calm per-pass pair rates.
    pub pairs_per_s: f64,
    /// [`LATENCY_QUANTILE`] over calm passes of the pass median round
    /// trip.
    pub rtt_p50_us: f64,
    /// [`TAIL_QUANTILE`] over calm slices of the slice p99 round trip.
    pub rtt_p99_us: f64,
}

/// Aggregates passes and slices into run-level figures, each over the
/// [`calm`] units only (NaN fields when empty).
#[must_use]
pub fn summarize(passes: &[Pass], slices: &[Slice]) -> Summary {
    let rates: Vec<(f64, u64)> = passes.iter().map(|p| (p.pairs_per_s, p.steal)).collect();
    let p50s: Vec<(f64, u64)> = passes.iter().map(|p| (p.rtt_p50_us, p.steal)).collect();
    let p99s: Vec<(f64, u64)> = slices.iter().map(|s| (s.rtt_p99_us, s.steal)).collect();
    Summary {
        pairs_per_s: quantile(&calm(&rates), RATE_QUANTILE),
        rtt_p50_us: quantile(&calm(&p50s), LATENCY_QUANTILE),
        rtt_p99_us: quantile(&calm(&p99s), TAIL_QUANTILE),
    }
}

/// An end-to-end time split into measured layers plus the residual the
/// layers do not explain. The residual is always shown, whatever its
/// sign: a negative one means layers overlapped in the end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconciliation {
    /// End-to-end time per unit of work.
    pub end_to_end: f64,
    /// Measured layers, in the order given.
    pub layers: Vec<(&'static str, f64)>,
    /// Name under which the residual is reported.
    pub residual_name: &'static str,
    /// `end_to_end − Σ layers`.
    pub residual: f64,
}

impl Reconciliation {
    /// Splits `end_to_end` into `layers` and a residual.
    #[must_use]
    pub fn new(
        end_to_end: f64,
        layers: Vec<(&'static str, f64)>,
        residual_name: &'static str,
    ) -> Reconciliation {
        let sum: f64 = layers.iter().map(|&(_, t)| t).sum();
        Reconciliation {
            end_to_end,
            residual: end_to_end - sum,
            layers,
            residual_name,
        }
    }

    /// Sum of the measured layers.
    #[must_use]
    pub fn layer_sum(&self) -> f64 {
        self.end_to_end - self.residual
    }

    /// The layer (the residual included) with the largest share of the
    /// end-to-end time, and that share.
    #[must_use]
    pub fn largest(&self) -> (&'static str, f64) {
        self.layers
            .iter()
            .copied()
            .chain(std::iter::once((self.residual_name, self.residual)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(("none", 0.0), |(name, t)| (name, t / self.end_to_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_ignores_input_order_and_clamps_q() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let b = [1.0, 3.0, 5.0, 7.0, 9.0];
        for q in [0.1, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
        assert_eq!(quantile(&a, -1.0), 1.0);
        assert_eq!(quantile(&a, 2.0), 9.0);
    }

    #[test]
    fn calm_keeps_steal_free_units_or_the_calmest_tenth() {
        // Mostly calm: every unit without steal, none with.
        let mostly = [(1.0, 0), (2.0, 3), (3.0, 0), (4.0, 0), (5.0, 1)];
        assert_eq!(calm(&mostly), [1.0, 3.0, 4.0]);
        // Steal everywhere: the calmest tenth, ties included.
        let stolen: Vec<(f64, u64)> = (0..20u32)
            .map(|i| (f64::from(i), u64::from(20 - i) % 7 + 1))
            .collect();
        assert_eq!(calm(&stolen), [6.0, 13.0]);
        assert!(calm(&[]).is_empty());
        assert_eq!(calm(&[(7.0, 5)]), [7.0]);
    }

    #[test]
    fn runs_aggregate_over_calm_units_not_totals() {
        // Passes at the host's slow baseline, a fast phase, and passes
        // that lost CPU to the hypervisor: the steal-hit units are left
        // out, and the fast phase does not lift the figures.
        let pass = |pairs_per_s: f64, rtt_p50_us: f64, steal: u64| Pass {
            pairs_per_s,
            rtt_p50_us,
            steal,
        };
        let mut passes = vec![pass(5.0, 40.0, 0); 14];
        passes.extend([pass(10.0, 20.0, 0); 6]);
        passes.extend([pass(0.5, 400.0, 3); 5]);
        let base = Slice::new(&[20.0, 40.0, 60.0], 0);
        let fast = Slice::new(&[10.0, 20.0, 30.0], 0);
        let stolen = Slice::new(&[200.0, 400.0, 6000.0], 3);
        let slices = [base, fast, base, stolen, base, base, fast, stolen, base];
        let s = summarize(&passes, &slices);
        assert_eq!(s.pairs_per_s, 5.0);
        assert_eq!(s.rtt_p50_us, 40.0);
        assert!((s.rtt_p99_us - 59.6).abs() < 1e-9);
        // A whole-run rate (total work over total time) would not.
        let total = passes.len() as f64 / passes.iter().map(|p| 1.0 / p.pairs_per_s).sum::<f64>();
        assert!(total < 0.6 * s.pairs_per_s);
        assert!(summarize(&[], &[]).pairs_per_s.is_nan());
    }

    #[test]
    fn a_stall_of_the_program_is_not_filtered_away() {
        // A stall in the program itself, in 3 of 8 slices, with no steal:
        // nothing is filtered, and the p99 figure carries it.
        let calm = Slice::new(&[20.0, 40.0, 60.0], 0);
        let stalled = Slice::new(&[20.0, 40.0, 6000.0], 0);
        let slices = [stalled, calm, calm, stalled, calm, calm, stalled, calm];
        assert!(summarize(&[], &slices).rtt_p99_us > 5000.0);
        // In fewer than a quarter of the slices it would not move it.
        let rare = [stalled, calm, calm, calm, calm, calm, calm, calm];
        assert!(summarize(&[], &rare).rtt_p99_us < 60.0);
    }

    #[test]
    fn slice_percentiles_come_from_its_own_samples() {
        let rtts: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Slice::new(&rtts, 4);
        assert!((s.rtt_p99_us - 990.01).abs() < 1e-9);
        assert_eq!(s.steal, 4);
    }

    #[test]
    fn slicer_keeps_steal_free_passes_apart() {
        let mut slicer = Slicer::new(2);
        // Passes alternate calm and stolen: each kind fills its own slice.
        assert_eq!(slicer.add_pass(&[1.0], 0), None);
        assert_eq!(slicer.add_pass(&[100.0], 2), None);
        let calm = slicer.add_pass(&[2.0], 0).expect("two calm passes");
        assert!((calm.rtt_p99_us - 1.99).abs() < 1e-9);
        assert_eq!(calm.steal, 0);
        let stolen = slicer.add_pass(&[200.0], 1).expect("two stolen passes");
        assert!((stolen.rtt_p99_us - 199.0).abs() < 1e-9);
        assert_eq!(stolen.steal, 3);
        // Emptied after closing.
        assert_eq!(slicer.add_pass(&[5.0], 0), None);
        assert_eq!(
            Slicer::new(0).add_pass(&[5.0], 0).map(|s| s.rtt_p99_us),
            Some(5.0)
        );
    }

    #[test]
    fn residual_is_what_the_layers_leave_and_may_be_negative() {
        let r = Reconciliation::new(10.0, vec![("a", 3.0), ("b", 5.0)], "rest");
        assert_eq!(r.layer_sum(), 8.0);
        assert_eq!(r.residual, 2.0);
        assert_eq!(r.largest(), ("b", 0.5));
        let over = Reconciliation::new(4.0, vec![("a", 3.0), ("b", 2.0)], "rest");
        assert_eq!(over.residual, -1.0);
        assert_eq!(over.largest().0, "a");
        let resid = Reconciliation::new(10.0, vec![("a", 1.0)], "rest");
        assert_eq!(resid.largest(), ("rest", 0.9));
    }
}
