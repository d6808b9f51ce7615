//! Experiment reporting: paper-vs-measured tables, ASCII figures, and
//! machine-readable run snapshots.

use std::fmt::Write as _;

use ezflow_net::scenario::MAX_DURATION_SECS;
use ezflow_net::{NetworkSpec, RunSnapshot};
use ezflow_sim::{Duration, JsonValue};

/// The longest timeline a named experiment scales, in seconds of paper
/// time: scenario 2 (Figs. 10–11) ends at 4,500 s.
pub const LONGEST_PAPER_SECS: u64 = 4_500;

/// How much of the paper's experiment duration to simulate.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier on simulated durations (1.0 = the paper's length).
    pub time: f64,
    /// Random seed for the runs.
    pub seed: u64,
    /// Worker threads for independent runs within one experiment
    /// (`0` = machine parallelism, `1` = serial). Results are identical
    /// for any value — see [`crate::runner::SweepRunner`].
    pub jobs: usize,
    /// Flight-recorder capacity in packet journeys (`0`, the default,
    /// leaves the recorder off; `--trace-dir` arms it).
    pub flight_cap: usize,
    /// Telemetry sampling interval (`None`, the default, leaves the bus
    /// off; `--telemetry-dir` / `--telemetry-ms` arm it). Snapshots from
    /// armed runs gain a `stability` section.
    pub telemetry_every: Option<Duration>,
    /// Arms the controller-audit ledger when nonzero (`0`, the default,
    /// leaves it off; `--audit-dir` arms it with
    /// [`NetworkSpec::AUDIT_CAP`]). The value bounds nothing:
    /// the ledger streams its records. Snapshots from armed runs gain a
    /// `controller` section.
    ///
    /// No observer perturbs a run — the simulation content is
    /// bit-identical armed or not; where each writes is
    /// [`crate::export`]'s business.
    pub audit_cap: usize,
}

impl Scale {
    /// Full paper-length runs.
    pub fn full() -> Self {
        Scale {
            time: 1.0,
            seed: 42,
            jobs: 0,
            flight_cap: 0,
            telemetry_every: None,
            audit_cap: 0,
        }
    }

    /// Quick runs for CI. Half the paper's durations: the
    /// CAA needs a few hundred simulated seconds to converge (50-sample
    /// rounds at tens of packets per second), so cutting deeper than this
    /// turns adaptation transients into spurious check failures.
    pub fn quick() -> Self {
        Scale {
            time: 0.5,
            seed: 42,
            jobs: 0,
            flight_cap: 0,
            telemetry_every: None,
            audit_cap: 0,
        }
    }

    /// Scales a duration in seconds, keeping a sane floor.
    pub fn secs(&self, paper_secs: u64) -> u64 {
        ((paper_secs as f64 * self.time) as u64).max(30)
    }

    /// Whether `time` can scale the named experiments at all: finite,
    /// positive, and keeping the longest of them ([`LONGEST_PAPER_SECS`])
    /// inside the simulator's own horizon. [`Scale::secs`] saturates, so
    /// `--time=1e300` would otherwise ask for `u64::MAX` seconds — a run
    /// paced by simulated time that never ends — and a NaN would run
    /// silently at the floor. The message names the `--time` flag.
    pub fn check_time(&self) -> Result<(), String> {
        let longest = LONGEST_PAPER_SECS as f64 * self.time;
        if self.time.is_finite() && self.time > 0.0 && longest <= MAX_DURATION_SECS {
            return Ok(());
        }
        Err(format!(
            "--time={:?} must be a positive factor that keeps the longest named run \
             ({LONGEST_PAPER_SECS} s at 1.0) within {MAX_DURATION_SECS:e} s",
            self.time
        ))
    }

    /// The sweep runner this scale asks for.
    pub fn runner(&self) -> crate::runner::SweepRunner {
        crate::runner::SweepRunner::new(self.jobs)
    }

    /// A [`NetworkSpec`] for `topo` carrying this scale's observer
    /// settings: the one arming point, which every experiment's every
    /// network goes through.
    pub fn spec(&self, topo: &ezflow_net::Topology, seed: u64) -> NetworkSpec {
        let mut spec = NetworkSpec::from_topology(topo, seed);
        spec.flight_cap = self.flight_cap;
        spec.telemetry_every = self.telemetry_every;
        spec.audit_cap = self.audit_cap;
        spec
    }
}

/// One row of a paper-vs-measured table.
#[derive(Clone, Debug)]
pub struct Row {
    /// What the row measures.
    pub label: String,
    /// The paper's reported value, if it reports one.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
}

impl Row {
    /// Builds a row.
    pub fn new(
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Row {
            label: label.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// A named numeric series attached to a report (for CSV export).
#[derive(Clone, Debug)]
pub struct Series {
    /// File-friendly name, e.g. "fig1_3hop_node1_buffer".
    pub name: String,
    /// Column headers.
    pub headers: (String, String),
    /// The points.
    pub points: Vec<(f64, f64)>,
}

/// The result of one experiment.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Experiment id (e.g. "fig1").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form context lines (what was run, what to look for).
    pub notes: Vec<String>,
    /// Paper-vs-measured rows.
    pub rows: Vec<Row>,
    /// Rendered ASCII figures.
    pub figures: Vec<String>,
    /// Pass/fail verdicts on the qualitative claims (label, ok).
    pub checks: Vec<(String, bool)>,
    /// Raw series for CSV export.
    pub series: Vec<Series>,
    /// Cross-layer run snapshots (one per simulated network), for JSON
    /// export via [`write_snapshots_json`].
    pub snapshots: Vec<RunSnapshot>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            ..Report::default()
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds a table row.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) {
        self.rows.push(Row::new(label, paper, measured));
    }

    /// Adds a qualitative check.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        self.checks.push((label.into(), ok));
    }

    /// Attaches a raw series for CSV export.
    pub fn series(
        &mut self,
        name: impl Into<String>,
        x: impl Into<String>,
        y: impl Into<String>,
        points: Vec<(f64, f64)>,
    ) {
        self.series.push(Series {
            name: name.into(),
            headers: (x.into(), y.into()),
            points,
        });
    }

    /// Writes every attached series as `<dir>/<id>_<name>.csv`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for s in &self.series {
            let path = dir.join(format!("{}_{}.csv", self.id, s.name));
            let rows: Vec<Vec<f64>> = s.points.iter().map(|&(x, y)| vec![x, y]).collect();
            ezflow_stats::write_csv(&path, &[&s.headers.0, &s.headers.1], &rows)?;
            written.push(path);
        }
        Ok(written)
    }

    /// True iff every qualitative check passed.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Renders the report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== [{}] {} ==", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        if !self.rows.is_empty() {
            let w_label = self
                .rows
                .iter()
                .map(|r| r.label.len())
                .max()
                .unwrap_or(0)
                .max(9);
            let w_paper = self
                .rows
                .iter()
                .map(|r| r.paper.len())
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(
                out,
                "   {:<w_label$} | {:<w_paper$} | measured",
                "metric", "paper"
            );
            let _ = writeln!(out, "   {:-<w_label$}-+-{:-<w_paper$}-+----------", "", "");
            for r in &self.rows {
                let _ = writeln!(
                    out,
                    "   {:<w_label$} | {:<w_paper$} | {}",
                    r.label, r.paper, r.measured
                );
            }
        }
        for f in &self.figures {
            out.push('\n');
            for line in f.lines() {
                let _ = writeln!(out, "   {line}");
            }
        }
        if !self.checks.is_empty() {
            let _ = writeln!(out, "   checks:");
            for (label, ok) in &self.checks {
                let _ = writeln!(out, "     [{}] {label}", if *ok { "PASS" } else { "FAIL" });
            }
        }
        out
    }

    /// Renders the report as a Markdown section (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "{n}\n");
        }
        if !self.rows.is_empty() {
            let _ = writeln!(out, "| metric | paper | measured |");
            let _ = writeln!(out, "|---|---|---|");
            for r in &self.rows {
                let _ = writeln!(out, "| {} | {} | {} |", r.label, r.paper, r.measured);
            }
            out.push('\n');
        }
        for f in &self.figures {
            let _ = writeln!(out, "```text\n{f}```\n");
        }
        if !self.checks.is_empty() {
            for (label, ok) in &self.checks {
                let _ = writeln!(out, "- **{}** {label}", if *ok { "PASS" } else { "FAIL" });
            }
            out.push('\n');
        }
        out
    }
}

/// Serialises run snapshots gathered from `reports` as one JSON document:
/// `{"snapshots": [RunSnapshot, ...]}`, in report order.
pub fn snapshots_json(reports: &[Report]) -> JsonValue {
    let snaps: Vec<JsonValue> = reports
        .iter()
        .flat_map(|r| r.snapshots.iter())
        .map(RunSnapshot::to_json)
        .collect();
    JsonValue::obj(vec![("snapshots", JsonValue::Array(snaps))])
}

/// Writes [`snapshots_json`] pretty-printed to `path`.
pub fn write_snapshots_json(reports: &[Report], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut text = snapshots_json(reports).to_pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// Formats kb/s ± std.
pub fn kbps(mean: f64, std: f64) -> String {
    format!("{mean:.1} ± {std:.1} kb/s")
}

/// Formats seconds.
pub fn secs(s: f64) -> String {
    format!("{s:.2} s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_time_bounds_the_longest_named_run() {
        let at = |time| Scale {
            time,
            ..Scale::full()
        };
        for ok in [
            1.0,
            0.5,
            0.01,
            MAX_DURATION_SECS / LONGEST_PAPER_SECS as f64,
        ] {
            assert_eq!(at(ok).check_time(), Ok(()), "{ok}");
        }
        for bad in [0.0, -1.0, 2_223.0, 1e300, f64::INFINITY, f64::NAN] {
            let err = at(bad).check_time().unwrap_err();
            assert!(err.contains("--time"), "{bad}: {err}");
        }
    }

    #[test]
    fn scale_floors_duration() {
        let s = Scale::quick();
        assert_eq!(s.secs(100), 50);
        assert_eq!(s.secs(2500), 1250);
        assert_eq!(s.secs(10), 30, "floor at 30 s");
        assert_eq!(Scale::full().secs(2500), 2500);
    }

    #[test]
    fn render_contains_rows_and_checks() {
        let mut r = Report::new("figX", "demo");
        r.note("context");
        r.row("throughput F1", "119 kb/s", "121.3 kb/s");
        r.check("stabilized", true);
        r.check("broken", false);
        let text = r.render();
        assert!(text.contains("[figX] demo"));
        assert!(text.contains("119 kb/s"));
        assert!(text.contains("[PASS] stabilized"));
        assert!(text.contains("[FAIL] broken"));
        assert!(!r.all_ok());
        let md = r.render_markdown();
        assert!(md.contains("| throughput F1 | 119 kb/s | 121.3 kb/s |"));
    }
}
