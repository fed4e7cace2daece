//! Per-filter measurements: what a profiled run reports.
//!
//! With an [`OpProfiler`](crate::engine::OpProfiler) attached the
//! compiled engine times work-function firings; the result is a
//! [`ProfileReport`] — per-filter firing counts and sampled wall-clock
//! nanoseconds, keyed by flat-graph instance name — which `streamitc
//! --profile` prints as a table.  It is a report only: nothing in the
//! compiler reads it back (the planners balance on the static estimate).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Measured cost of one filter instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilterProfile {
    /// Total work-function firings observed (sampled or not).
    pub firings: u64,
    /// Firings actually timed (amortized sampling keeps this a fraction
    /// of `firings` when overhead matters).
    pub sampled_firings: u64,
    /// Wall-clock nanoseconds summed over the sampled firings.
    pub sampled_ns: u64,
}

impl FilterProfile {
    /// Mean nanoseconds per firing over the sampled subset, or `None`
    /// if nothing was sampled.
    pub fn ns_per_firing(&self) -> Option<f64> {
        if self.sampled_firings == 0 {
            None
        } else {
            Some(self.sampled_ns as f64 / self.sampled_firings as f64)
        }
    }
}

/// A profiling run's aggregate: measured cost per filter instance name.
///
/// Keys are flat-graph node names (e.g. `LowPass`); the ordered map
/// keeps iteration deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub filters: BTreeMap<String, FilterProfile>,
}

impl ProfileReport {
    /// Exact-name lookup.
    pub fn get(&self, name: &str) -> Option<&FilterProfile> {
        self.filters.get(name)
    }

    /// Human-readable cost table (the `streamitc --profile` output),
    /// sorted by measured ns/firing descending.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(&str, &FilterProfile)> =
            self.filters.iter().map(|(n, p)| (n.as_str(), p)).collect();
        rows.sort_by(|a, b| {
            let (x, y) = (
                a.1.ns_per_firing().unwrap_or(0.0),
                b.1.ns_per_firing().unwrap_or(0.0),
            );
            y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal)
        });
        let total_ns: f64 = rows
            .iter()
            .map(|(_, p)| p.ns_per_firing().unwrap_or(0.0) * p.firings as f64)
            .sum();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<32} {:>10} {:>8} {:>12} {:>7}",
            "filter", "firings", "sampled", "ns/firing", "share"
        );
        for (name, p) in rows {
            let ns = p.ns_per_firing().unwrap_or(0.0);
            let share = if total_ns > 0.0 {
                100.0 * ns * p.firings as f64 / total_ns
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "{:<32} {:>10} {:>8} {:>12.1} {:>6.1}%",
                name, p.firings, p.sampled_firings, ns, share
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        let filters = [("Heavy", 100, 10, 5000), ("Light", 4, 4, 80)];
        let filters = filters.map(|(name, firings, sampled_firings, sampled_ns)| {
            let p = FilterProfile {
                firings,
                sampled_firings,
                sampled_ns,
            };
            (name.to_string(), p)
        });
        ProfileReport {
            filters: filters.into_iter().collect(),
        }
    }

    #[test]
    fn ns_per_firing_uses_sampled_subset() {
        let r = sample();
        let heavy = r.get("Heavy").unwrap();
        assert_eq!(heavy.firings, 100);
        assert_eq!(heavy.sampled_firings, 10);
        assert_eq!(heavy.ns_per_firing(), Some(500.0));
    }

    #[test]
    fn table_sorted_by_cost() {
        let t = sample().render_table();
        let heavy_at = t.find("Heavy").unwrap();
        let light_at = t.find("Light").unwrap();
        assert!(heavy_at < light_at, "table:\n{t}");
    }
}
