//! A child-process runner with a wall budget, for the `experiments` and
//! `trace` binaries' CLI tests (`cli.rs`).
//!
//! The regressions those tests guard against are hangs and aborts, and a
//! bare `Command::output()` turns a hang into a tier-1 run that never
//! ends. Through [`run`] a child that is still alive after [`BUDGET`] is
//! killed and fails the calling test, as does one that died on a signal
//! (SIGABRT is what a panic or a failed allocation looks like under the
//! release profile's `panic = "abort"`).

use std::io::{BufRead, BufReader, Read};
use std::process::{ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Wall budget per child. Every probe is meant to be rejected before
/// anything is simulated; the few that run at this budget are
/// analysis-only experiments — milliseconds, even unoptimised.
pub const BUDGET: Duration = Duration::from_secs(5);

/// Runs `bin args…` to its end within [`BUDGET`] and returns what it
/// wrote and how it exited (always with an exit code: see the module
/// docs).
pub fn run(bin: &str, args: &[&str]) -> Output {
    run_within(BUDGET, bin, args)
}

/// [`run`] under a budget of the caller's choosing, for a child that is
/// meant to simulate.
pub fn run_within(budget: Duration, bin: &str, args: &[&str]) -> Output {
    run_reading(budget, bin, args, to_end)
}

/// [`run`], but the reader closes the child's stdout after its first
/// line, as `| head -1` does; the returned stdout is that line.
pub fn run_closing_stdout(bin: &str, args: &[&str]) -> Output {
    run_reading(BUDGET, bin, args, |pipe| {
        let mut line = Vec::new();
        BufReader::new(pipe)
            .read_until(b'\n', &mut line)
            .expect("the child's output can be read");
        line
    })
}

/// Runs the child with `read_stdout` consuming its stdout on a thread of
/// its own.
fn run_reading(
    budget: Duration,
    bin: &str,
    args: &[&str],
    read_stdout: fn(ChildStdout) -> Vec<u8>,
) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{bin} does not start: {e}"));
    // Drained on their own threads, so a chatty child blocks on neither
    // pipe while this thread only watches the clock.
    let stdout = child.stdout.take().expect("stdout is piped");
    let stdout = std::thread::spawn(move || read_stdout(stdout));
    let stderr = child.stderr.take().expect("stderr is piped");
    let stderr = std::thread::spawn(move || to_end(stderr));
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("the child can be polled") {
            Some(status) => break status,
            None if started.elapsed() > budget => {
                // Reap it too, so the readers see end-of-file.
                child.kill().and_then(|()| child.wait()).ok();
                panic!("{args:?}: still running after {budget:?}, killed");
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let out = Output {
        status,
        stdout: stdout.join().expect("the stdout reader finishes"),
        stderr: stderr.join().expect("the stderr reader finishes"),
    };
    assert!(
        out.status.code().is_some(),
        "{args:?}: {} — {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Reads `pipe` to its end.
fn to_end(mut pipe: impl Read) -> Vec<u8> {
    let mut bytes = Vec::new();
    pipe.read_to_end(&mut bytes)
        .expect("the child's output can be read");
    bytes
}

/// Asserts the usage-error contract: exit 2, `complaint` (a flag or a
/// field path) on stderr, nothing on stdout, inside the budget.
pub fn assert_rejected(bin: &str, args: &[&str], complaint: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote a report");
}
