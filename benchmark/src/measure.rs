//! The two passes over a workload: the untraced one, which yields every
//! end-to-end metric, and the traced one, which yields every per-layer
//! metric and the span file.
//!
//! Both run in-process and warm: one discarded warm-up repetition, then
//! K timed repetitions of the whole pipeline, every timing a stitched
//! minimum over them (see [`crate::estimator`]).

use std::path::{Path, PathBuf};
use std::time::Instant;

use ezflow_bench::{Job, SweepRunner};
use ezflow_net::CompiledScenario;
use ezflow_sim::JsonValue;

use crate::estimator::{median, secs, stitched_min};
use crate::metrics::{ratio, Values};
use crate::pipeline::{file_stem, Counters, Pipeline, Rep, REPORT_PHASES, SETUP_PHASES};
use crate::trace::{self_times, spans_jsonl};
use crate::workload::Workload;
use crate::{micro, procfs};

/// Fewest timed repetitions of an untraced pass.
pub const MIN_REPS: usize = 9;
/// Repetitions of each kind (profiler off, profiler on, alternating) in
/// a traced pass.
pub const TRACE_REPS: usize = 3;
/// Repetitions under `--quick`.
pub const QUICK_REPS: usize = 2;

/// Share of the measuring time spent on extra set-up-only samples.
const EXTRA_BUDGET: f64 = 0.05;

/// Container spans (`rep`, `point:*`) may hold at most this share of a
/// repetition as self time: everything else must sit in a named phase.
const MAX_UNATTRIBUTED: f64 = 0.02;

/// How one pass is to be run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Benchmark seed: the run (and sweep) seeds of the generated spec.
    pub seed: u64,
    /// How long an untraced pass measures for: repetitions continue past
    /// [`MIN_REPS`] until this many seconds are spent.
    pub seconds: f64,
    /// K = [`QUICK_REPS`], tenth-length runs.
    pub quick: bool,
    /// Directory the report and trace files go under.
    pub out_root: PathBuf,
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The metrics, in table order.
    pub values: Values,
    /// Sweep-point runs executed (warm-up included).
    pub attempted: u64,
    /// Of those, how many failed an output check.
    pub failed: u64,
    /// Structural failures of the pass itself (span attribution).
    pub broken: Vec<String>,
    /// Diagnostics, printed but not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True iff every run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    fn tally(&mut self, workload: &Workload, rep: &Rep) {
        let mut failed: Vec<bool> = rep.points.iter().map(|p| !p.failures.is_empty()).collect();
        if workload.regime_check {
            let queue_of = |name: &str| rep.points.iter().position(|p| p.controller == name);
            if let (Some(plain), Some(ez)) = (queue_of("802.11"), queue_of("EZ-flow")) {
                let (qp, qe) = (
                    rep.points[plain].first_relay_queue,
                    rep.points[ez].first_relay_queue,
                );
                if qe.partial_cmp(&qp) != Some(std::cmp::Ordering::Less) {
                    eprintln!(
                        "FAILED {}: EZ-flow first-relay queue {qe:.2} is not below 802.11's {qp:.2}",
                        rep.points[ez].label
                    );
                    failed[ez] = true;
                }
            }
        }
        self.attempted += failed.len() as u64;
        self.failed += failed.iter().filter(|&&f| f).count() as u64;
    }
}

/// K repetitions reduced to one stitched row.
struct Stitched {
    /// Phase name of each segment.
    layout: Vec<&'static str>,
    /// Per-segment minimum over the repetitions, ns.
    mins: Vec<u64>,
    /// The repetitions themselves.
    reps: Vec<Rep>,
}

impl Stitched {
    fn phase_ns(&self, phases: &[&str]) -> u64 {
        self.layout
            .iter()
            .zip(&self.mins)
            .filter(|(name, _)| phases.contains(name))
            .map(|(_, &ns)| ns)
            .sum()
    }

    fn total_ns(&self) -> u64 {
        self.mins.iter().sum()
    }

    fn last(&self) -> &Rep {
        self.reps.last().expect("at least one repetition")
    }
}

/// Extra set-up-only samples, interleaved with the repetitions. Set-up
/// is a handful of monolithic calls, so K repetitions give each of them
/// only K readings, microseconds long on the small topologies. After
/// every repetition the set-up chain alone (parse, compile, builds) is
/// repeated for [`EXTRA_BUDGET`] of the time that repetition took, so
/// the samples are spread over the whole pass and not taken in one burst
/// that a slow stretch of the host could cover entirely.
#[derive(Default)]
struct SetupSampler {
    /// Per set-up segment, in segment order: the minimum seen, ns.
    mins: Vec<u64>,
    /// Seconds of sampling earned and not yet spent.
    credit: f64,
    /// What the last sample cost, seconds.
    cost: f64,
}

impl SetupSampler {
    fn after_rep(&mut self, p: &Pipeline, rep_secs: f64) -> Result<(), String> {
        self.credit += EXTRA_BUDGET * rep_secs;
        while self.credit >= self.cost {
            let t0 = Instant::now();
            let sample = p.setup_only()?;
            if self.mins.is_empty() {
                self.mins = sample;
            } else {
                for (m, ns) in self.mins.iter_mut().zip(sample) {
                    *m = (*m).min(ns);
                }
            }
            self.cost = t0.elapsed().as_secs_f64();
            self.credit -= self.cost;
        }
        Ok(())
    }
}

/// Runs rounds of repetitions — one per entry of `kinds`, profiler on
/// where the entry is `true`, so the kinds alternate and meet the same
/// host conditions — for at least `min_rounds` rounds, then more until
/// `seconds` have been spent measuring, and stitches each kind's
/// repetitions.
fn repeat(
    p: &mut Pipeline,
    kinds: &[bool],
    min_rounds: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Vec<Stitched>, String> {
    let mut reps: Vec<Vec<Rep>> = kinds.iter().map(|_| Vec::new()).collect();
    let mut setup = SetupSampler::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        for (&profile, reps) in kinds.iter().zip(&mut reps) {
            let rep = p.run_rep(profile, false)?;
            out.tally(p.workload, &rep);
            setup.after_rep(p, secs(rep.rec.segs.iter().sum()))?;
            reps.push(rep);
        }
        rounds += 1;
    }
    reps.into_iter()
        .map(|reps| {
            let layout = reps[0].rec.seg_names.clone();
            if let Some(r) = reps.iter().position(|r| r.rec.seg_names != layout) {
                return Err(format!("repetition {r} was cut into different segments"));
            }
            let rows: Vec<&[u64]> = reps.iter().map(|r| r.rec.segs.as_slice()).collect();
            let mut mins = stitched_min(&rows)?;
            let setup_segments = (0..layout.len()).filter(|&i| SETUP_PHASES.contains(&layout[i]));
            for (i, &ns) in setup_segments.zip(&setup.mins) {
                mins[i] = mins[i].min(ns);
            }
            Ok(Stitched { layout, mins, reps })
        })
        .collect()
}

fn phase_note(st: &Stitched) -> String {
    let mut note = String::from("stitched");
    for phase in SETUP_PHASES.iter().chain(&["run"]).chain(&REPORT_PHASES) {
        note.push_str(&format!(" {phase} {:.6} s,", secs(st.phase_ns(&[phase]))));
    }
    note.pop();
    note
}

fn rep_note(st: &Stitched) -> String {
    let whole: Vec<f64> = st
        .reps
        .iter()
        .map(|r| secs(r.rec.segs.iter().sum()))
        .collect();
    format!(
        "K={} whole-rep min {:.4} s, p50 {:.4} s, stitched {:.4} s",
        whole.len(),
        whole.iter().copied().fold(f64::INFINITY, f64::min),
        median(&whole),
        secs(st.total_ns())
    )
}

/// The untraced pass: every end-to-end metric.
pub fn untraced(workload: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut p = Pipeline::new(workload, opts.seed, opts.quick, &opts.out_root)?;
    let warm = p.run_rep(false, false)?;
    out.tally(workload, &warm);
    drop(warm);
    let (min_reps, seconds) = if opts.quick {
        (QUICK_REPS, 0.0)
    } else {
        (MIN_REPS, opts.seconds)
    };
    let st = repeat(&mut p, &[false], min_reps, seconds, &mut out)?
        .pop()
        .expect("one kind, one stitched row");

    let points = &st.last().points;
    let n = points.len() as f64;
    let frames: u64 = points.iter().map(|p| p.counters.frames).sum();
    let v = &mut out.values;
    v.set("spec_to_report_s", secs(st.total_ns()));
    v.set("setup_s", secs(st.phase_ns(&SETUP_PHASES)));
    v.set(
        "run_ns_per_frame",
        ratio(st.phase_ns(&["run"]) as f64, frames as f64),
    );
    v.set("peak_rss_mb", procfs::peak_rss_mb()?);
    v.set(
        "report_bytes",
        points.iter().map(|p| p.report_bytes).sum::<u64>() as f64,
    );
    v.set(
        "goodput_kbps",
        points.iter().map(|p| p.goodput_kbps).sum::<f64>() / n,
    );
    v.set(
        "delay_mean_ms",
        points.iter().map(|p| p.delay_mean_ms).sum::<f64>() / n,
    );
    v.set(
        "jain_mean_window",
        points.iter().map(|p| p.jain_mean_window).sum::<f64>() / n,
    );
    out.notes.push(rep_note(&st));
    out.notes.push(phase_note(&st));
    out.notes.push(format!(
        "{frames} frames on air over {} point(s); set-up {:.2} %, report phases {:.2} % of spec_to_report_s",
        points.len(),
        100.0 * ratio(st.phase_ns(&SETUP_PHASES) as f64, st.total_ns() as f64),
        100.0 * ratio(st.phase_ns(&REPORT_PHASES) as f64, st.total_ns() as f64),
    ));
    Ok(out)
}

/// Serial sweep wall over `SweepRunner::new(2)` wall, best of two
/// alternating rounds each. 1 by definition where there is nothing to
/// run side by side (one sweep point) or nowhere to (one core).
fn speedup_jobs2(p: &Pipeline, compiled: &CompiledScenario) -> Result<f64, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if compiled.points.len() < 2 || cores < 2 {
        return Ok(1.0);
    }
    let until = p.until(compiled);
    let wall = |workers: usize| -> Result<f64, String> {
        let mut jobs = Vec::with_capacity(compiled.points.len());
        for point in &compiled.points {
            jobs.push(Job::new(
                point.label.clone(),
                p.network_spec(compiled, point, false),
                until,
                Pipeline::algo(point)?.factory(),
            ));
        }
        let t0 = Instant::now();
        let nets = SweepRunner::new(workers).run(jobs);
        let wall = t0.elapsed().as_secs_f64();
        drop(nets);
        Ok(wall)
    };
    let (mut serial, mut parallel) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        serial = serial.min(wall(1)?);
        parallel = parallel.min(wall(2)?);
    }
    Ok(serial / parallel)
}

/// Share of each traced repetition held by the container spans
/// themselves, and the check that it stays under [`MAX_UNATTRIBUTED`].
fn check_attribution(st: &Stitched, out: &mut Outcome) {
    let mut worst = 0.0f64;
    for (r, rep) in st.reps.iter().enumerate() {
        let spans = &rep.rec.spans;
        let own = self_times(spans);
        let glue: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "rep" || s.name.starts_with("point:"))
            .map(|(_, &ns)| ns)
            .sum();
        let share = ratio(glue as f64, spans[0].dur_ns() as f64);
        worst = worst.max(share);
        if share > MAX_UNATTRIBUTED {
            out.broken.push(format!(
                "traced repetition {r}: {:.2} % of the repetition is in no phase span",
                100.0 * share
            ));
        }
    }
    out.notes.push(format!(
        "span self times cover each traced repetition; at most {:.3} % sits in no phase span",
        100.0 * worst
    ));
}

/// The traced pass: every per-layer metric, and
/// `<out_root>/<workload>.trace.jsonl`.
pub fn traced(workload: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut p = Pipeline::new(workload, opts.seed, opts.quick, &opts.out_root)?;
    let warm = p.run_rep(false, true)?;
    out.tally(workload, &warm);
    let build_rss = warm.build_rss.ok_or("first build was not probed")?;
    let first_nodes = warm.points[0].counters.nodes;
    drop(warm);
    let k = if opts.quick { QUICK_REPS } else { TRACE_REPS };
    let mut both = repeat(&mut p, &[false, true], k, 0.0, &mut out)?;
    let (traced, plain) = (
        both.pop().expect("two kinds"),
        both.pop().expect("two kinds"),
    );
    check_attribution(&traced, &mut out);

    // Exact counters from the last traced repetition; handler and loop
    // time as the minimum over the traced repetitions (fixed work, so
    // the host can only have added to the others).
    let mut c = Counters::default();
    traced
        .last()
        .points
        .iter()
        .for_each(|pt| c.add(&pt.counters));
    let mut loop_ns = u64::MAX;
    for (i, rep) in traced.reps.iter().enumerate() {
        let mut rc = Counters::default();
        rep.points.iter().for_each(|pt| rc.add(&pt.counters));
        let run_ns: u64 = rep
            .rec
            .seg_names
            .iter()
            .zip(&rep.rec.segs)
            .filter(|(name, _)| **name == "run")
            .map(|(_, &ns)| ns)
            .sum();
        loop_ns = loop_ns.min(run_ns.saturating_sub(rc.handler_ns.iter().sum()));
        for (best, ns) in c.handler_ns.iter_mut().zip(rc.handler_ns) {
            *best = if i == 0 { ns } else { (*best).min(ns) };
        }
    }

    let compiled = p.parse()?.compile().map_err(|e| e.to_string())?;
    let first = &compiled.points[0];
    let (tx_ns, sense_degree) = micro::channel_tx_ns(&p.network_spec(&compiled, first, false));
    let report = p.out_dir.join(format!("{}.json", file_stem(first)));
    let report_text =
        std::fs::read_to_string(&report).map_err(|e| format!("{}: {e}", report.display()))?;

    let frames = c.frames as f64;
    let receptions = (c.clean + c.collisions + c.losses) as f64;
    let run_plain = plain.phase_ns(&["run"]);
    let v = &mut out.values;
    v.set("net.scenario.parse_s", secs(plain.phase_ns(&["parse"])));
    v.set("net.scenario.compile_s", secs(plain.phase_ns(&["compile"])));
    v.set("net.builder.build_s", secs(plain.phase_ns(&["build"])));
    v.set(
        "net.builder.bytes_per_node",
        ratio(build_rss.grew_bytes, first_nodes as f64),
    );
    v.set("net.builder.rss_mb_after_build", build_rss.after_mb);
    v.set("net.engine.run_s", secs(run_plain));
    v.set(
        "net.snapshot.snapshot_s",
        secs(plain.phase_ns(&["snapshot"])),
    );
    v.set("sim.json.serialise_s", secs(plain.phase_ns(&["serialise"])));
    v.set("bench.report.write_s", secs(plain.phase_ns(&["write"])));
    v.set(
        "sim.json.parse_mb_per_s",
        micro::json_parse_mb_per_s(&report_text)?,
    );
    v.set(
        "sim.sched.loop_ns_per_event",
        ratio(loop_ns as f64, c.consumed() as f64),
    );
    v.set(
        "sim.sched.hold_ns_per_op",
        micro::sched_hold_ns(c.depth_high_water as usize),
    );
    v.set(
        "sim.sched.events_per_frame",
        ratio(c.consumed() as f64, frames),
    );
    v.set(
        "sim.sched.reschedules_per_frame",
        ratio(c.rescheduled as f64, frames),
    );
    v.set(
        "sim.sched.rotations_per_event",
        ratio(c.rotations as f64, c.dispatched as f64),
    );
    v.set(
        "sim.sched.stale_fraction",
        ratio(c.stale_elided as f64, c.consumed() as f64),
    );
    v.set("sim.sched.depth_high_water", c.depth_high_water as f64);
    v.set(
        "mac.dcf.timer_ns_per_frame",
        ratio(
            c.handler(&["mac_tx_path", "mac_ack_job", "mac_nav"]) as f64,
            frames,
        ),
    );
    v.set(
        "mac.dcf.retry_ratio",
        ratio(c.retries as f64, c.tx_attempts as f64),
    );
    v.set(
        "mac.dcf.useful_ratio",
        ratio(c.tx_success as f64, c.tx_attempts as f64),
    );
    v.set(
        "phy.medium.txend_ns_per_frame",
        ratio(c.handler(&["tx_end"]) as f64, frames),
    );
    v.set("phy.medium.tx_ns", tx_ns);
    v.set("phy.medium.sense_degree_mean", sense_degree);
    v.set(
        "phy.medium.collision_ratio",
        ratio(c.collisions as f64, receptions),
    );
    v.set("phy.loss.loss_ratio", ratio(c.losses as f64, receptions));
    v.set("phy.arena.high_water", c.arena_high_water as f64);
    v.set(
        "phy.arena.reuse_ratio",
        ratio(c.arena_reuses as f64, c.arena_allocated as f64),
    );
    v.set(
        "net.transport.ns_per_frame",
        ratio(c.handler(&["traffic", "window_refresh"]) as f64, frames),
    );
    v.set(
        "net.metrics.sample_ns_per_frame",
        ratio(c.handler(&["sample", "backlog"]) as f64, frames),
    );
    let last = &traced.last().points;
    v.set(
        "net.metrics.delay_p95_ms",
        last.iter().map(|p| p.delay_p95_ms).sum::<f64>() / last.len() as f64,
    );
    v.set(
        "net.queue.drop_ratio",
        ratio(
            c.queue_drops as f64,
            (c.queue_drops + c.queue_accepted) as f64,
        ),
    );
    v.set(
        "net.telemetry.ns_per_window",
        ratio(c.handler(&["telemetry"]) as f64, c.telemetry_windows as f64),
    );
    v.set("net.telemetry.windows", c.telemetry_windows as f64);
    v.set(
        "net.flight.kept_ratio",
        ratio(
            c.flight_tracked as f64,
            (c.flight_tracked + c.flight_skipped) as f64,
        ),
    );
    v.set("net.audit.records", c.audit_records as f64);
    v.set("stats.hist.record_ns", micro::hist_record_ns());
    v.set(
        "core.boe.hit_ratio",
        ratio(c.boe_hits as f64, (c.boe_hits + c.boe_misses) as f64),
    );
    v.set("core.caa.moves", c.caa_moves as f64);
    v.set("bench.runner.speedup_jobs2", speedup_jobs2(&p, &compiled)?);
    v.set(
        "trace.overhead_pct",
        100.0 * (ratio(traced.phase_ns(&["run"]) as f64, run_plain as f64) - 1.0),
    );

    out.notes
        .push(format!("profiler off: {}", rep_note(&plain)));
    out.notes
        .push(format!("profiler on:  {}", rep_note(&traced)));
    write_trace(&opts.out_root, workload, &traced, &out.values)?;
    Ok(out)
}

fn write_trace(
    out_root: &Path,
    workload: &Workload,
    traced: &Stitched,
    values: &Values,
) -> Result<(), String> {
    let mut text = String::new();
    for (r, rep) in traced.reps.iter().enumerate() {
        text.push_str(&spans_jsonl(workload.name, r, &rep.rec.spans));
    }
    for &(name, value) in &values.0 {
        let rec = JsonValue::obj(vec![
            ("workload", JsonValue::str(workload.name)),
            ("metric", JsonValue::str(name)),
            ("value", value.into()),
        ]);
        text.push_str(&rec.to_compact());
        text.push('\n');
    }
    let path = out_root.join(format!("{}.trace.jsonl", workload.name));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
