//! The result line: correctness counts plus named metrics with units.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (transients, samples or requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Checks beyond the per-operation ones (e.g. reply counts) passed.
    pub checks_ok: bool,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed above the result line (e.g. the
    /// sample counts behind a percentile).
    pub notes: Vec<String>,
}

/// Whether `name` is a legal metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    /// An empty report whose extra checks have passed so far.
    pub fn new() -> Self {
        Report {
            checks_ok: true,
            ..Report::default()
        }
    }

    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a duplicate name or a non-finite value —
    /// all programming errors in the benchmark.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Puts the metrics in the order of `names`, which must be exactly the
    /// names reported.
    ///
    /// # Errors
    ///
    /// Names the metrics that are missing or not listed.
    pub fn conform(&mut self, names: &[&str]) -> Result<(), String> {
        let missing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| self.metrics.iter().all(|m| m.name != *n))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|m| m.name)
            .filter(|n| !names.contains(n))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "missing metrics {missing:?}, unlisted metrics {extra:?}"
            ));
        }
        self.metrics
            .sort_by_key(|m| names.iter().position(|n| *n == m.name));
        Ok(())
    }

    /// The run is correct when nothing failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok && self.attempted > 0
    }

    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form of a finite number: `{:?}` prints
/// e.g. `2.0` and `1e-7`, both valid JSON numbers.
pub fn fmt_number(x: f64) -> String {
    format!("{x:?}")
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
