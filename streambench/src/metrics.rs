//! The metrics the benchmark reports, by name.  `BENCHMARK.json` lists
//! the same names; a unit test holds the two together.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the other run's median by which
    /// this metric may be worse before `check` calls it a regression.
    pub bound: f64,
    /// Per-layer only: a count that must repeat exactly between runs.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports every one
/// (README.md says what each means on each workload).  The bounds are
/// the contract's cap: one bound per metric has to hold on the noisiest
/// workload in the host's worst hour.
pub const END_TO_END: &[MetricDef] = &[
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("first_output_us", "us", Lower, 0.25),
    e2e("compile_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Single layers, layer = crate.  A workload that does not exercise a
/// layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    layer("apps.build_ms", "ms", Lower),
    layer("frontend.parse_ms", "ms", Lower),
    layer("frontend.elaborate_ms", "ms", Lower),
    layer("frontend.source_kib", "KiB", Lower),
    layer("graph.validate_ms", "ms", Lower),
    layer("graph.flatten_ms", "ms", Lower),
    count("graph.flat_nodes"),
    layer("analysis.analyze_ms", "ms", Lower),
    layer("linear.optimize_ms", "ms", Lower),
    count("linear.filters_replaced"),
    layer("sdep.verify_ms", "ms", Lower),
    layer("exec.lower_ms", "ms", Lower),
    layer("exec.lower_opt0_ms", "ms", Lower),
    layer("rt.plan_ms", "ms", Lower),
    count("rt.stages"),
    count("rt.fissed_regions"),
    count("exec.declined_programs"),
    count("rt.declined_programs"),
    layer("core.phase_coverage", "share", Higher),
    count("exec.firings_per_iter"),
    count("exec.work_ops_per_iter"),
    count("exec.move_ops_per_iter"),
    layer("exec.tape_kib", "KiB", Lower),
    count("exec.kernel_filters"),
    count("exec.items_in_per_batch"),
    count("exec.items_out_per_batch"),
    layer("exec.ns_per_firing", "ns", Lower),
    layer("exec.profiled_work_share", "share", Higher),
    layer("exec.top_filter_share", "share", Lower),
    layer("exec.kernel.replacement_items_per_s", "1/s", Higher),
    layer("exec.session_items_per_s", "1/s", Higher),
    layer("interp.items_per_s", "1/s", Higher),
    layer("sdep.constrained_items_per_s", "1/s", Higher),
    count("core.fallback_rungs"),
    count("core.final_engine_rung"),
    layer("rt.serial_items_per_s", "1/s", Higher),
    layer("rt.par1_items_per_s", "1/s", Higher),
    layer("rt.speedup_vs_serial", "ratio", Higher),
    layer("rt.spsc_items_per_s", "1/s", Higher),
    layer("streamd.tcp_ping_us", "us", Lower),
    layer("streamd.handle_line_us", "us", Lower),
    layer("streamd.daemon_feed_us", "us", Lower),
    layer("exec.session_xfer_us", "us", Lower),
    layer("streamd.wire_us", "us", Lower),
    layer("streamd.tenancy_us", "us", Lower),
    layer("streamd.open_us", "us", Lower),
    layer("streamd.rss_kib_per_instance", "KiB", Lower),
    layer("streamd.req_p50_us", "us", Lower),
    layer("streamd.req_p99_us", "us", Lower),
    layer("streamd.req_p999_us", "us", Lower),
    layer("streamd.req_max_us", "us", Lower),
    layer("streamd.open_loop_p50_us", "us", Lower),
    layer("streamd.open_loop_p99_us", "us", Lower),
    layer("streamd.open_loop_late_max_us", "us", Lower),
    layer("yardstick.handwritten_items_per_s", "1/s", Higher),
    layer("yardstick.vs_handwritten", "ratio", Higher),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.items_per_s", "1/s", Higher),
];

pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One reported value; timings also carry their quartiles and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<Summary>,
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    pub readings: BTreeMap<&'static str, Reading>,
    /// Operations tried in the timed windows: batches, programs, requests.
    pub attempted: u64,
    /// Of those, how many gave an error reply, an I/O error or a wrong
    /// output.
    pub failed: u64,
    /// Why `correct` is false, if it is.
    pub errors: Vec<String>,
    /// The timed calls' latency at the highest percentile the sample
    /// supports, for the table: (percentile, microseconds, samples).
    pub tail: Option<(f64, f64, usize)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.readings.insert(
            name,
            Reading {
                value,
                spread: None,
            },
        );
    }

    /// Record a timing from its samples' summary (the value is
    /// [`Summary::reading`]), `scale` converting the samples' unit
    /// (seconds) to the metric's.
    pub fn set_timing(&mut self, name: &'static str, s: Summary, scale: f64) {
        self.readings.insert(
            name,
            Reading {
                value: s.reading() * scale,
                spread: Some(Summary {
                    p10: s.p10 * scale,
                    median: s.median * scale,
                    p25: s.p25 * scale,
                    p75: s.p75 * scale,
                    n: s.n,
                }),
            },
        );
    }

    /// Record a rate `amount / seconds` from the summary of the seconds.
    pub fn set_rate(&mut self, name: &'static str, amount: f64, seconds: Summary) {
        let rate = |s: f64| if s > 0.0 { amount / s } else { 0.0 };
        self.readings.insert(
            name,
            Reading {
                value: rate(seconds.reading()),
                spread: Some(Summary {
                    p10: rate(seconds.p10),
                    median: rate(seconds.median),
                    // A longer batch is a lower rate: the quartiles swap.
                    p25: rate(seconds.p75),
                    p75: rate(seconds.p25),
                    n: seconds.n,
                }),
            },
        );
    }

    /// Record what tracing costs from the plain and the traced calls of
    /// one paired window, each call doing `amount` of work; returns the
    /// plain calls' typical seconds.
    pub fn set_overhead(&mut self, amount: f64, plain: &[f64], traced: &[f64]) -> f64 {
        let (plain_s, traced_s) = (crate::stats::typical(plain), crate::stats::typical(traced));
        self.set("trace.items_per_s", amount / traced_s);
        // (untraced rate - traced rate) / untraced rate.
        self.set("trace.overhead_share", (traced_s - plain_s) / traced_s);
        plain_s
    }

    /// Keep, for the table, the latency of the timed window's calls at
    /// the highest percentile that still has ten samples beyond it (on
    /// a workload that serves no requests, one timed call stands for a
    /// request).
    pub fn set_tail(&mut self, seconds: &[f64]) {
        let all = crate::stats::sorted(seconds.to_vec());
        self.tail = crate::stats::highest_supported_percentile(all.len())
            .map(|p| (p, crate::stats::percentile(&all, p) * 1e6, all.len()));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.readings.get(name).map_or(0.0, |r| r.value)
    }

    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line of the driver contract: exactly `correct`,
    /// `attempted`, `failed`, and every metric of `defs` (a per-layer
    /// metric the workload did not set reads 0: layer not exercised).
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    crate::json::quote(d.name),
                    number(self.get(d.name)),
                    crate::json::quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line per metric for a person: value, unit, quartiles, count.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let Some(r) = self.readings.get(d.name) else {
                continue;
            };
            out.push_str(&format!(
                "  {:<38} {:>16} {:<6}",
                d.name,
                number(r.value),
                d.unit
            ));
            if let Some(s) = r.spread {
                out.push_str(&format!(
                    " p25 {} median {} p75 {} n {}",
                    number(s.p25),
                    number(s.median),
                    number(s.p75),
                    s.n
                ));
            }
            out.push('\n');
        }
        if let Some((p, us, n)) = self.tail {
            out.push_str(&format!(
                "  timed calls: {n}; p{p} is the highest percentile with ten beyond it: {} us \
                 (wall time over the host's slowness); p99 has {} beyond it\n",
                number(us),
                crate::stats::samples_beyond(n, 99.0)
            ));
        }
        out
    }
}

/// A finite float with all its digits (Rust's shortest round-trip form);
/// non-finite values, which no metric should produce, read 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names_of(v: &Json, key: &str) -> Vec<String> {
        v.get(key)
            .map(|a| a.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            v.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        let ours = |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_of(&v, "end_to_end"), ours(END_TO_END));
        assert_eq!(names_of(&v, "per_layer"), ours(PER_LAYER));
        assert_eq!(
            names_of(&v, "workloads"),
            crate::WORKLOADS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
        for (m, d) in v
            .get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
            let better = if d.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                d.name
            );
        }
        for (m, d) in v.get("per_layer").unwrap().as_array().iter().zip(PER_LAYER) {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("items_per_s", 1234.5);
        r.attempted = 10;
        let v = json::parse(&r.result_line(END_TO_END)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["items_per_s"].get("value").and_then(Json::as_f64),
            Some(1234.5)
        );
        assert_eq!(m["setup_s"].get("unit").and_then(Json::as_str), Some("s"));
        r.fail("x".into());
        assert!(r.result_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn rates_swap_quartiles() {
        let mut r = Report::default();
        r.set_rate(
            "items_per_s",
            100.0,
            Summary {
                p10: 0.5,
                median: 2.0,
                p25: 1.0,
                p75: 4.0,
                n: 3,
            },
        );
        let s = r.readings["items_per_s"].spread.unwrap();
        assert_eq!((s.median, s.p25, s.p75), (50.0, 25.0, 100.0));
        // The reading is the rate of the fastest tenth of the calls.
        assert_eq!(r.get("items_per_s"), 200.0);
    }
}
