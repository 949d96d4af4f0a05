//! A run's metrics and its printed report: one line per metric, then the
//! result object as the last line of stdout.

use lsi_obs::Json;

use crate::stats::percentile;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How it was taken (sample counts), for the printed line.
    pub note: String,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add_with(name, value, unit, String::new());
    }

    pub fn add_with(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Per-call timings as `<name>.p50` and `<name>.p99`.
    pub fn add_calls(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        for (suffix, p) in [("p50", 50.0), ("p99", 99.0)] {
            if let Some(pct) = percentile(samples, p) {
                self.add_with(
                    &format!("{name}.{suffix}"),
                    pct.value,
                    unit,
                    format!("n={}", pct.n),
                );
            }
        }
    }
}

/// The outcome of one workload run.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Operations tried: CLI commands, daemon starts and HTTP requests.
    pub attempted: u64,
    /// Of those, the ones that failed: a nonzero exit, a non-200 status
    /// or a missing response.
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Print the report to stdout, ending with the JSON result line.
    pub fn print(&self) {
        println!(
            "# lsibench workload={} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for m in &self.metrics.0 {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("{:<36} {:>16} {}{note}", m.name, human(m.value), m.unit);
        }
        println!(
            "{:<36} {:>16} ratio  ({} of {} operations failed)",
            "error_rate",
            human(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.to_string_compact());
    }
}

/// Six decimals, or three significant digits for tiny nonzero values.
fn human(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}
