//! Command line: one pass of one workload (what the driver runs), the
//! whole benchmark (every workload, untraced then traced, one child
//! process each so `VmHWM` is per workload), or the A/A comparison.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ezflow_sim::JsonValue;

use crate::measure::{self, Options, Outcome};
use crate::metrics::{def, MetricDef, END_TO_END, PER_LAYER};
use crate::workload::{by_name, Workload, WORKLOADS};

const USAGE: &str = "\
usage: ezflow-benchmark [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
                        [--quick] [--out DIR] [--aa N]

  --workload NAME  one pass of one workload, in this process; the last line of
                   standard output is the result as one JSON object
                   (paper_chain, mesh1k_steady, mesh6k_cold, observed_lossy)
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics and
                   <out>/<workload>.trace.jsonl
  --seed N         benchmark seed (default 42)
  --seconds S      how long one pass measures (default 20)
  --quick          2 repetitions of tenth-length runs: a smoke test, not a measurement
  --out DIR        where reports and traces go (default benchmark/out)
  --aa N           run the untraced benchmark 2 x N times, alternating set A and
                   set B, and compare the medians against the bounds

With neither --workload nor --aa: every workload, untraced then traced.";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
    pub aa: Option<usize>,
}

/// Default output directory: `out/` beside the harness's manifest.
pub fn default_out() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

impl Args {
    /// Parses `--key value` pairs and the `--quick` flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            trace: false,
            seed: 42,
            seconds: 20.0,
            quick: false,
            out: default_out(),
            aa: None,
        };
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            if key == "--quick" {
                out.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = |what: &str| format!("{key} {value}: expected {what}");
            match key.as_str() {
                "--workload" => out.workload = Some(value),
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?
                }
                "--out" => out.out = PathBuf::from(value),
                "--aa" => {
                    out.aa = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| bad("a positive whole number"))?,
                    )
                }
                _ => return Err(format!("unknown argument {key}")),
            }
        }
        Ok(out)
    }

    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            seconds: self.seconds,
            quick: self.quick,
            out_root: self.out.clone(),
        }
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .values
        .0
        .iter()
        .map(|&(name, value)| {
            let unit = def(name).expect("only defined metrics are recorded").unit;
            (
                name,
                JsonValue::obj(vec![
                    ("value", value.into()),
                    ("unit", JsonValue::str(unit)),
                ]),
            )
        })
        .collect();
    JsonValue::obj(vec![
        ("correct", outcome.correct().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", JsonValue::obj(metrics)),
    ])
    .to_compact()
}

/// Runs one pass in this process and prints it: `workload/metric value
/// unit` lines, diagnostics, then the result line.
pub fn run_pass(
    workload: &'static Workload,
    trace: bool,
    opts: &Options,
) -> Result<Outcome, String> {
    let (outcome, table): (Outcome, &[MetricDef]) = if trace {
        (measure::traced(workload, opts)?, &PER_LAYER)
    } else {
        (measure::untraced(workload, opts)?, &END_TO_END)
    };
    if let Some(name) = outcome.values.first_missing(table) {
        return Err(format!("{}/{name}: no finite value", workload.name));
    }
    for &(name, value) in &outcome.values.0 {
        let unit = def(name).expect("only defined metrics are recorded").unit;
        println!("{}/{name} {value} {unit}", workload.name);
    }
    for note in &outcome.notes {
        println!("# {}: {note}", workload.name);
    }
    for broken in &outcome.broken {
        println!("# {}: BROKEN {broken}", workload.name);
    }
    println!(
        "# {}: {} of {} sweep-point runs failed",
        workload.name, outcome.failed, outcome.attempted
    );
    println!("{}", result_json(&outcome));
    Ok(outcome)
}

/// Runs one pass in a child process of this executable, forwarding its
/// diagnostics, and returns its parsed result line.
pub fn spawn_pass(
    args: &Args,
    workload: &str,
    trace: bool,
    echo: bool,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    JsonValue::parse(last).map_err(|e| format!("{workload}: result line: {}", e.message))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let t0 = Instant::now();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = spawn_pass(args, w.name, trace, true)?;
            all_correct &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        }
    }
    println!(
        "# all workloads, untraced + traced: {:.1} s wall, {}",
        t0.elapsed().as_secs_f64(),
        if all_correct {
            "all correct"
        } else {
            "FAILURES"
        }
    );
    Ok(all_correct)
}

/// Entry point.
pub fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.workload, args.aa) {
        (Some(_), Some(_)) => Err("--workload and --aa exclude each other".to_string()),
        (Some(name), None) => match by_name(name) {
            // A pass that printed its result line has done its job, even
            // when the line says `"correct": false`.
            Some(w) => run_pass(w, args.trace, &args.options()).map(|_| true),
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        (None, Some(n)) => crate::aa::run(&args, n),
        (None, None) => run_all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_form() {
        let a = parse(&[
            "--workload",
            "mesh1k_steady",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("mesh1k_steady"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--aa", "0"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 20,
            ..Outcome::default()
        };
        outcome.values.set("setup_s", 0.25);
        let doc = JsonValue::parse(&result_json(&outcome)).unwrap();
        let JsonValue::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
