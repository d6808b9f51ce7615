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
//! `--jobs=1` forces the old serial behaviour). Results are identical
//! for every N — runs are pure functions of their spec and seed.
//!
//! `--trace-dir=DIR` arms the per-packet flight recorder and writes each
//! traced run's lifecycle JSONL as `DIR/<experiment>_<algo>.jsonl` — the
//! input format of the `trace` inspector binary. The capture is bounded
//! (`--flight-cap=N` journeys, default 4096): past the bound the recorder
//! samples admissions deterministically and evicts finished journeys, and
//! this harness reports exactly how much was kept — a partial capture is
//! always labelled, never silent. Recording never changes the simulation:
//! runs are bit-identical with or without it.
//!
//! `--telemetry-dir=DIR` arms the telemetry bus on every network the
//! experiments build and streams one JSONL record per sample window to
//! `DIR/<experiment>_<algo>.jsonl` *while each run is in flight* — the
//! input format of `trace telemetry`. The sampling interval defaults to
//! 100 ms of simulated time; `--telemetry-ms=N` overrides it, and also
//! arms the bus on its own (rings + the snapshots' `stability` section,
//! no streaming). Telemetry never changes the simulation either.
//!
//! `--audit-dir=DIR` arms the controller-provenance audit ledger on every
//! network and streams one JSONL record per BOE estimation sample and per
//! `CWmin` decision to `DIR/<experiment>_<algo>.audit.jsonl` — the input
//! format of `trace controller`. Snapshots from the same runs gain a
//! `controller` section (per-node CW-change counts, per-link estimation
//! error). The audit is pull-based and never changes the simulation.
//!
//! `--spec=FILE` runs a declarative scenario document (see DESIGN.md §9
//! and the committed examples under `scenarios/`) through the same
//! reporting pipeline: every sweep point in the file becomes one run, and
//! `--csv` / `--json` / `--trace-dir` / `--telemetry-dir` all apply.
//! `--list` prints the named experiment ids plus every spec discovered
//! under `scenarios/`, one line each.
//!
//! The whole command line is checked before the first experiment starts:
//! a malformed flag value (`--seed=abc`, `--telemetry-ms=0`), an unknown
//! `--flag`, an unknown id, an unreadable spec or a `--time` factor that
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
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut flight_cap: Option<usize> = None;
    let mut telemetry_dir: Option<std::path::PathBuf> = None;
    let mut telemetry_ms: Option<u64> = None;
    let mut audit_dir: Option<std::path::PathBuf> = None;
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
            "--seed" => {}
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
                trace_dir = Some(std::path::PathBuf::from(&s["--trace-dir=".len()..]));
            }
            s if s.starts_with("--flight-cap=") => {
                let cap = &s["--flight-cap=".len()..];
                flight_cap = Some(flag_value("--flight-cap", cap, "a non-negative integer"));
            }
            s if s.starts_with("--telemetry-dir=") => {
                telemetry_dir = Some(std::path::PathBuf::from(&s["--telemetry-dir=".len()..]));
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
                audit_dir = Some(std::path::PathBuf::from(&s["--audit-dir=".len()..]));
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}");
                return ExitCode::from(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    // The recorder only runs when there is somewhere to write its export.
    if trace_dir.is_some() {
        scale.flight_cap = flight_cap.unwrap_or(4096);
    } else if flight_cap.is_some() {
        eprintln!("--flight-cap has no effect without --trace-dir=DIR");
    }
    // Either telemetry flag arms the bus; the dir adds live streaming.
    if telemetry_dir.is_some() || telemetry_ms.is_some() {
        scale.telemetry_every = Some(match telemetry_ms {
            Some(ms) => ezflow_sim::Duration::from_millis(ms),
            None => ezflow_net::NetworkSpec::TELEMETRY_EVERY,
        });
    }
    if let Some(dir) = &telemetry_dir {
        ezflow_bench::telemetry_out::set_dir(dir);
    }
    // The audit-dir flag arms the ledger and streams decisions live;
    // snapshots gain their `controller` section from the same runs.
    if let Some(dir) = &audit_dir {
        scale.audit_cap = ezflow_net::NetworkSpec::AUDIT_CAP;
        ezflow_bench::audit_out::set_dir(dir);
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
    let mut loaded = Vec::with_capacity(specs.len());
    for path in &specs {
        let checked = experiments::spec::load(path).and_then(|spec| {
            experiments::spec::check_scale(&spec, &scale)?;
            Ok(spec)
        });
        match checked {
            Ok(spec) => loaded.push(spec),
            Err(e) => {
                eprintln!("spec error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut all_ok = true;
    let mut with_snapshots = Vec::new();
    let mut all_reports: Vec<ezflow_bench::report::Report> = Vec::new();
    for run in runners {
        all_reports.extend(run(scale));
    }
    for spec in &loaded {
        match experiments::spec::run_spec(spec, &scale) {
            Ok(rep) => all_reports.push(rep),
            Err(e) => {
                eprintln!("spec error: {e}");
                return ExitCode::from(2);
            }
        }
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
        if let Some(dir) = &trace_dir {
            match rep.write_lifecycles(dir) {
                Ok(files) => {
                    for (path, st) in files {
                        eprintln!(
                            "wrote lifecycle JSONL {} ({} journeys kept)",
                            path.display(),
                            st.tracked - st.evicted
                        );
                        if st.stride > 1 || st.evicted > 0 {
                            eprintln!(
                                "  PARTIAL capture: cap bound hit — sampling 1/{} \
                                 ({} packets skipped, {} journeys evicted); \
                                 raise --flight-cap for a fuller census",
                                st.stride, st.skipped, st.evicted
                            );
                        }
                    }
                }
                Err(e) => {
                    eprintln!("lifecycle export failed: {e}");
                    return ExitCode::FAILURE;
                }
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
        ExitCode::SUCCESS
    } else {
        println!("\nsome qualitative checks FAILED");
        ExitCode::FAILURE
    }
}
