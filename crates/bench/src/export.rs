//! The one way a run's observers reach the disk.
//!
//! `experiments` registers up to three directories here, once, after its
//! command line validates; each one's flag also arms its observer on
//! every network ([`crate::Scale::spec`]), and every
//! [`crate::runner::Job`] then exports its own run under the [`stem`] of
//! its label: `--trace-dir` the lifecycle of the first `--flight-cap`
//! packets as `<stem>.jsonl`, written when the run ends;
//! `--telemetry-dir` one record per sample window as `<stem>.jsonl` and
//! `--audit-dir` one per BOE sample and `CWmin` decision as
//! `<stem>.audit.jsonl`, both streamed while the run is in flight. A
//! process that registers nothing — a test, `benchmark/` — attaches and
//! writes nothing. A file that cannot be created or written is named on
//! stderr and remembered ([`failed`]): an export never stops a run,
//! `experiments` exits 1 once its reports are out.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use ezflow_net::Network;

/// The export directories, one per observer flag.
#[derive(Debug, Default)]
pub struct Dirs {
    /// `--trace-dir` (read by `trace journey | worst | drops`).
    pub trace: Option<PathBuf>,
    /// `--telemetry-dir` (read by `trace telemetry`).
    pub telemetry: Option<PathBuf>,
    /// `--audit-dir` (read by `trace controller`).
    pub audit: Option<PathBuf>,
}

static DIRS: OnceLock<Dirs> = OnceLock::new();
static FAILED: AtomicBool = AtomicBool::new(false);

/// Registers the directories. First call wins (the CLI calls it once).
pub fn set_dirs(dirs: Dirs) {
    let _ = DIRS.set(dirs);
}

/// Whether any export of this process could not be created or written.
pub fn failed() -> bool {
    FAILED.load(Ordering::Relaxed)
}

/// The file stem of a run label: `/` becomes `_`, and `.`, space, `(`,
/// `)` are dropped — `scenario1/802.11` is `scenario1_80211`.
pub fn stem(label: &str) -> String {
    label.replace('/', "_").replace(['.', ' ', '(', ')'], "")
}

/// Names an export that could not be made and records the failure.
fn fail(path: &Path, e: std::io::Error) {
    eprintln!("export failed: {}: {e}", path.display());
    FAILED.store(true, Ordering::Relaxed);
}

/// Creates `dir/file` (and `dir`).
fn create(dir: &Path, file: String) -> Option<(PathBuf, File)> {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| File::create(&path)) {
        Ok(f) => Some((path, f)),
        Err(e) => {
            fail(&path, e);
            None
        }
    }
}

/// Before the run: gives each armed streaming observer of `net` its file
/// under the registered directories.
pub fn attach(net: &mut Network, label: &str) {
    let Some(dirs) = DIRS.get() else { return };
    let stem = stem(label);
    if let Some(dir) = dirs
        .telemetry
        .as_deref()
        .filter(|_| net.telemetry.enabled())
    {
        if let Some((path, f)) = create(dir, format!("{stem}.jsonl")) {
            net.telemetry.set_sink(Box::new(BufWriter::new(f)));
            eprintln!("streaming telemetry to {}", path.display());
        }
    }
    if let Some(dir) = dirs.audit.as_deref().filter(|_| net.audit.enabled()) {
        if let Some((path, f)) = create(dir, format!("{stem}.audit.jsonl")) {
            net.audit.set_sink(Box::new(BufWriter::new(f)));
            eprintln!("streaming controller audit to {}", path.display());
        }
    }
}

/// After the run: writes the flight recorder's lifecycle export and says
/// how bounded the capture was — a partial one is always labelled. (The
/// two streams need no finishing: their writers flush when `net` drops.)
pub fn finish(net: &mut Network, label: &str) {
    let Some(dir) = DIRS.get().and_then(|d| d.trace.as_deref()) else {
        return;
    };
    if !net.flight.enabled() {
        return;
    }
    let Some((path, mut f)) = create(dir, format!("{}.jsonl", stem(label))) else {
        return;
    };
    if let Err(e) = f.write_all(net.flight.to_jsonl().as_bytes()) {
        return fail(&path, e);
    }
    let st = net.flight.stats();
    eprintln!(
        "wrote lifecycle JSONL {} ({} journeys)",
        path.display(),
        st.tracked
    );
    if st.skipped > 0 {
        eprintln!(
            "  PARTIAL capture: recorded the first {} of {} packets; \
             raise --flight-cap for a fuller census",
            st.tracked,
            st.tracked + st.skipped
        );
    }
}
