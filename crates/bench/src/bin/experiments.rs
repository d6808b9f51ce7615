//! The experiment harness CLI.
//!
//! ```text
//! cargo run --release -p ezflow-bench --bin experiments -- all
//! cargo run --release -p ezflow-bench --bin experiments -- fig1 table2
//! cargo run --release -p ezflow-bench --bin experiments -- --quick all
//! cargo run --release -p ezflow-bench --bin experiments -- --markdown all
//! cargo run --release -p ezflow-bench --bin experiments -- --jobs=4 seeds
//! ```
//!
//! `--jobs=N` fans each experiment's independent runs across N worker
//! threads (`--jobs=0`, the default, uses the machine's parallelism;
//! `--jobs=1` runs them in line). Results and exports are identical for
//! every N — runs are pure functions of their spec and seed.
//!
//! `--trace-dir=DIR` (flight recorder, the first `--flight-cap=N` packets
//! of each run, default 4096), `--telemetry-dir=DIR` (telemetry bus, one
//! window per `--telemetry-ms=N`, default 100; that flag alone arms the
//! bus without streaming) and `--audit-dir=DIR` (controller audit
//! ledger) each arm an observer on every network every experiment or
//! spec runs and export it, one file per run: `<stem>.jsonl`,
//! `<stem>.jsonl` and `<stem>.audit.jsonl`, the stem being the run's
//! label scrubbed (`scenario1/802.11` is `scenario1_80211`) — see
//! [`ezflow_bench::export`]. The first two write same-named files, so
//! they must name different directories. No observer changes the
//! simulation: runs are bit-identical armed or not, and a capture the
//! flight cap cut short says on stderr how many packets of how many it
//! holds. An export that cannot be written is named there and the
//! process exits 1.
//!
//! `--spec=FILE` runs a declarative scenario document (see DESIGN.md §9
//! and the committed examples under `scenarios/`) through the same
//! reporting pipeline: every sweep point in the file becomes one run, and
//! `--csv` / `--json` and the three export flags all apply.
//! `--list` prints the named experiment ids plus every spec discovered
//! under `scenarios/`, one line each.
//!
//! The whole command line is checked before the first experiment starts:
//! a malformed flag value (`--seed=abc`, `--telemetry-ms=0`,
//! `--flight-cap=0`), an unknown
//! or bare `--flag`, an unknown id, a spec that cannot be read, does not
//! compile or names a controller the harness lacks, one directory given to
//! both `--trace-dir` and `--telemetry-dir`, or a `--time` factor that
//! scales a spec's duration — or the named experiments' longest
//! timeline — out of bounds is a usage error: one line on stderr naming
//! the culprit, exit 2, nothing run.
//!
//! Ids: fig1, table1, fig4, table2, scenario1 (fig6/fig7/fig8),
//! scenario2 (fig10/fig11/table3), table4, theorem1, ablations, all.

use std::process::ExitCode;

use ezflow_bench::experiments;
use ezflow_bench::report::Scale;

/// The named experiment ids with one-line blurbs, for `--list`.
const NAMED: &[(&str, &str)] = &[
    (
        "fig1",
        "K-hop chain turbulence: buffer oscillation under 802.11",
    ),
    ("table1", "9-node testbed calibration (Table 1 link rates)"),
    ("fig4", "3-hop chain: EZ-flow stabilizes the relay buffers"),
    ("table2", "chain throughput/delay, 802.11 vs EZ-flow"),
    (
        "scenario1",
        "Figs. 6-8: two merging 8-hop flows (also: fig6 fig7 fig8)",
    ),
    (
        "scenario2",
        "Figs. 10-11, Table 3: 25-node mesh (also: fig10 fig11 table3)",
    ),
    ("table4", "per-hop buffer/delay decomposition"),
    ("theorem1", "stability region check"),
    ("ablations", "EZ-flow component knock-outs"),
    ("seeds", "seed sensitivity sweep"),
    ("all", "every experiment above, in order"),
];

/// The value of `--flag=VALUE`; one that does not parse is the user's
/// typo, reported as usage (exit 2) rather than a panic.
fn flag_value<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: '{value}' (expected {expected})");
        std::process::exit(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut markdown = false;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut dirs = ezflow_bench::export::Dirs::default();
    let mut flight_cap: Option<usize> = None;
    let mut telemetry_ms: Option<u64> = None;
    let mut ids = Vec::new();
    let mut specs: Vec<std::path::PathBuf> = Vec::new();
    let mut list = false;
    for a in &args {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--list" => list = true,
            s if s.starts_with("--spec=") => {
                specs.push(std::path::PathBuf::from(&s["--spec=".len()..]));
            }
            "--markdown" => markdown = true,
            s if s.starts_with("--seed=") => {
                scale.seed = flag_value("--seed", &s["--seed=".len()..], "a non-negative integer");
            }
            s if s.starts_with("--time=") => {
                scale.time = flag_value("--time", &s["--time=".len()..], "a number");
            }
            s if s.starts_with("--jobs=") => {
                scale.jobs = flag_value("--jobs", &s["--jobs=".len()..], "a non-negative integer");
            }
            s if s.starts_with("--csv=") => {
                csv_dir = Some(std::path::PathBuf::from(&s["--csv=".len()..]));
            }
            s if s.starts_with("--json=") => {
                json_path = Some(std::path::PathBuf::from(&s["--json=".len()..]));
            }
            s if s.starts_with("--trace-dir=") => {
                dirs.trace = Some(std::path::PathBuf::from(&s["--trace-dir=".len()..]));
            }
            s if s.starts_with("--flight-cap=") => {
                let cap: std::num::NonZeroUsize = flag_value(
                    "--flight-cap",
                    &s["--flight-cap=".len()..],
                    "a positive integer",
                );
                flight_cap = Some(cap.get());
            }
            s if s.starts_with("--telemetry-dir=") => {
                dirs.telemetry = Some(std::path::PathBuf::from(&s["--telemetry-dir=".len()..]));
            }
            s if s.starts_with("--telemetry-ms=") => {
                let ms: std::num::NonZeroU64 = flag_value(
                    "--telemetry-ms",
                    &s["--telemetry-ms=".len()..],
                    "a positive integer",
                );
                telemetry_ms = Some(ms.get());
            }
            s if s.starts_with("--audit-dir=") => {
                dirs.audit = Some(std::path::PathBuf::from(&s["--audit-dir=".len()..]));
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}");
                return ExitCode::from(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    // The recorder only runs when there is somewhere to write its export.
    if dirs.trace.is_some() {
        scale.flight_cap = flight_cap.unwrap_or(4096);
    } else if flight_cap.is_some() {
        eprintln!("--flight-cap has no effect without --trace-dir=DIR");
    }
    // Either telemetry flag arms the bus; the dir adds live streaming.
    if dirs.telemetry.is_some() || telemetry_ms.is_some() {
        scale.telemetry_every = Some(match telemetry_ms {
            Some(ms) => ezflow_sim::Duration::from_millis(ms),
            None => ezflow_net::NetworkSpec::TELEMETRY_EVERY,
        });
    }
    if dirs.audit.is_some() {
        scale.audit_cap = ezflow_net::NetworkSpec::AUDIT_CAP;
    }
    if list {
        println!("named experiments:");
        for (id, blurb) in NAMED {
            println!("  {id:<10} {blurb}");
        }
        println!("scenario specs (scenarios/*.json, run with --spec=FILE):");
        let found = experiments::spec::discover(std::path::Path::new("scenarios"));
        if found.is_empty() {
            println!("  (none found under ./scenarios)");
        }
        for (path, line) in found {
            println!("  {:<28} {line}", path.display().to_string());
        }
        return ExitCode::SUCCESS;
    }
    if ids.is_empty() && specs.is_empty() {
        eprintln!(
            "usage: experiments [--quick] [--markdown] [--csv=DIR] [--json=FILE] [--trace-dir=DIR]\n\
             \x20                  [--flight-cap=N] [--telemetry-dir=DIR] [--telemetry-ms=N]\n\
             \x20                  [--audit-dir=DIR]\n\
             \x20                  [--seed=N] [--time=F] [--jobs=N]\n\
             \x20                  [--list] [--spec=FILE] <id>...\n\
             ids: fig1 table1 fig4 table2 scenario1 scenario2 table4 theorem1 ablations seeds all"
        );
        return ExitCode::from(2);
    }

    // Resolve everything that can be wrong with the command line before
    // anything runs: an experiment takes seconds to minutes, and a typo
    // after it should not cost that.
    let mut runners = Vec::with_capacity(ids.len());
    for id in &ids {
        let Some(run) = experiments::by_id(id) else {
            eprintln!("unknown experiment id: {id}");
            return ExitCode::from(2);
        };
        runners.push(run);
    }
    // Spec runs bound `--time` against their own duration below; the
    // named experiments scale the paper's timelines, so bound the factor.
    if !runners.is_empty() {
        if let Err(e) = scale.check_time() {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    // A lifecycle and a telemetry stream are both `<stem>.jsonl`: in one
    // directory the first would overwrite the second. The audit stream's
    // suffix differs, so `--audit-dir` may share.
    if let Some(dir) = dirs
        .trace
        .as_ref()
        .filter(|d| dirs.telemetry.as_ref() == Some(d))
    {
        eprintln!(
            "--trace-dir and --telemetry-dir both name {}: they write same-named files \
             and need a directory each",
            dir.display()
        );
        return ExitCode::from(2);
    }
    let mut prepared = Vec::with_capacity(specs.len());
    for path in &specs {
        let spec = experiments::spec::load(path).and_then(|spec| {
            experiments::spec::prepare(&spec, &scale)
                .map_err(|e| format!("{}: {e}", path.display()))
        });
        match spec {
            Ok(spec) => prepared.push(spec),
            Err(e) => {
                eprintln!("spec error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    ezflow_bench::export::set_dirs(dirs);
    let mut all_ok = true;
    let mut with_snapshots = Vec::new();
    let mut all_reports: Vec<ezflow_bench::report::Report> = Vec::new();
    for run in runners {
        all_reports.extend(run(scale));
    }
    for spec in &prepared {
        all_reports.push(experiments::spec::run_spec(spec, &scale));
    }
    for rep in all_reports {
        if markdown {
            print!("{}", rep.render_markdown());
        } else {
            print!("{}", rep.render());
        }
        if let Some(dir) = &csv_dir {
            match rep.write_csv(dir) {
                Ok(files) => eprintln!("wrote {} CSV files to {}", files.len(), dir.display()),
                Err(e) => eprintln!("CSV export failed: {e}"),
            }
        }
        all_ok &= rep.all_ok();
        if !rep.snapshots.is_empty() {
            with_snapshots.push(rep);
        }
    }
    if let Some(path) = &json_path {
        let count: usize = with_snapshots.iter().map(|r| r.snapshots.len()).sum();
        match ezflow_bench::report::write_snapshots_json(&with_snapshots, path) {
            Ok(()) => eprintln!("wrote {count} run snapshots to {}", path.display()),
            Err(e) => {
                eprintln!("JSON export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        println!("\nall qualitative checks PASSED");
    } else {
        println!("\nsome qualitative checks FAILED");
    }
    if all_ok && !ezflow_bench::export::failed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
