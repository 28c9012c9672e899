//! Metric names and units, and the result line the benchmark prints.
//!
//! The tables here mirror `BENCHMARK.json` one for one (a test keeps
//! them in step). A run prints every end-to-end metric when untraced and
//! every per-layer metric when traced; what each one means on each
//! workload is documented in `README.md`.

use std::fmt::Write as _;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("fault_rtt_p50_us", "us"),
    ("delivered_ratio", "ratio"),
    ("hops_per_pair", "hops"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[Def] = &[
    ("perm.pack_ns", "ns"),
    ("perm.compose_ns", "ns"),
    ("perm.rank_ns", "ns"),
    ("core.plan.build_us", "us"),
    ("core.plan.route_into_ns", "ns"),
    ("core.plan.route_chunk_ns_per_pair", "ns"),
    ("core.topology.materialize_ms", "ms"),
    ("core.fault.route_ns_per_pair", "ns"),
    ("core.fault.detour_share", "ratio"),
    ("core.fault.fallback_share", "ratio"),
    ("core.fault.fallback_us", "us"),
    ("graph.fault.apply_ns", "ns"),
    ("serve.wire.peek_ns_per_frame", "ns"),
    ("serve.wire.decode_ns_per_frame", "ns"),
    ("serve.wire.decode_ns_per_pair", "ns"),
    ("serve.shard.handle_us_per_frame", "us"),
    ("serve.shard.ns_per_pair", "ns"),
    ("serve.shard.fault_report_us", "us"),
    ("serve.shard.allocs_per_frame", "count"),
    ("serve.shard.reply_bytes_per_pair", "bytes"),
    ("serve.transport.shard_sys_us_per_frame", "us"),
    ("serve.transport.client_sys_us_per_frame", "us"),
    ("serve.transport.ctx_switches_per_frame", "count"),
    ("serve.transport.residual_us_per_frame", "us"),
    ("client.scan_ns_per_frame", "ns"),
    ("emu.table.build_ms", "ms"),
    ("emu.table.refresh_ms", "ms"),
    ("emu.table.refreshes", "count"),
    ("emu.sim.residual_ms", "ms"),
];

/// The verdict and figures of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations the benchmark asked the program to perform.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Why `correct` is false, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// An outcome with nothing attempted and nothing wrong yet.
    #[must_use]
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.errors.push(why.into());
    }

    /// The result line: exactly the metrics of `defs`, each once, each a
    /// finite number.
    ///
    /// # Errors
    ///
    /// Names a metric of `defs` that is missing, repeated or not finite,
    /// or a recorded value outside `defs`.
    pub fn result_line(&self, defs: &[Def]) -> Result<String, String> {
        for &(name, _) in &self.values {
            if !defs.iter().any(|&(d, _)| d == name) {
                return Err(format!("metric {name} is not defined for this mode"));
            }
        }
        let mut metrics = String::new();
        for (i, &(name, unit)) in defs.iter().enumerate() {
            let mut found = self.values.iter().filter(|&&(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} recorded twice")),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back to the same
            // f64, so no digit is lost.
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1–16 of letters, digits, `_`, `/`,
    /// `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_valid_and_used_once() {
        let all: Vec<Def> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for &(name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert_eq!(all.iter().filter(|&&(n, _)| n == name).count(), 1, "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    /// The `(name, unit)` pairs of `BENCHMARK.json` in file order: every
    /// metric object there is written `{"name": "…", "unit": "…", …}`.
    fn manifest_metrics(text: &str) -> Vec<(String, String)> {
        let field = |s: &str, key: &str| -> Option<String> {
            let rest = s.strip_prefix(&format!("\"{key}\": \""))?;
            Some(rest[..rest.find('"')?].to_owned())
        };
        text.split('{')
            .filter_map(|obj| {
                let name = field(obj, "name")?;
                let after = &obj[obj.find(',')? + 1..];
                Some((name, field(after.trim_start(), "unit")?))
            })
            .collect()
    }

    #[test]
    fn tables_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let own: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(manifest_metrics(&text), own);
    }

    #[test]
    fn result_line_holds_exactly_the_defined_metrics() {
        let defs: &[Def] = &[("a_s", "s"), ("b", "count")];
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.set("b", 2.0);
        assert!(o
            .result_line(defs)
            .expect_err("a_s missing")
            .contains("a_s"));
        o.set("a_s", 0.125);
        assert_eq!(
            o.result_line(defs).expect("complete"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        o.set("c", 1.0);
        assert!(o.result_line(defs).is_err(), "undefined metric refused");
        let mut nan = Outcome::default();
        nan.set("a_s", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.result_line(defs).is_err(), "NaN refused");
    }
}
