//! One repetition of the user path, from spec text in memory to report
//! files flushed, cut into fixed segments and checked.
//!
//! `spec text -> parse -> compile -> (per sweep point) build -> run ->
//! snapshot -> serialise -> write`, through the crates' public functions
//! only. Every call into a layer is one span and at least one segment;
//! `run_until` is advanced in [`RUN_STEPS`] equal simulated-time steps so
//! the event loop contributes many short segments rather than one long
//! one. The untimed `check` span that follows holds the harness's own
//! verification work, so nothing a repetition does is unattributed.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ezflow_bench::experiments::{spec::summarize, Algo};
use ezflow_bench::Scale;
use ezflow_net::engine::{PROFILE_KINDS, PROFILE_NAMES};
use ezflow_net::{CompiledScenario, Network, NetworkSpec, RunSnapshot, ScenarioSpec, SweepPoint};
use ezflow_sim::{JsonValue, Time};

use crate::checks::{first_divergence, fnv1a, swap_perf, zeroed_perf};
use crate::trace::Recorder;
use crate::workload::Workload;

/// Equal simulated-time steps `run_until` is advanced in, per sweep point.
pub const RUN_STEPS: u64 = 400;

/// Flight-recorder capacity on observer-armed workloads, journeys.
const FLIGHT_CAP: usize = 4096;

/// The phases whose sum is `setup_s`.
pub const SETUP_PHASES: [&str; 3] = ["parse", "compile", "build"];

/// The phases that turn a finished run into files.
pub const REPORT_PHASES: [&str; 3] = ["snapshot", "serialise", "write"];

/// An in-memory JSONL sink the network streams into while it runs; the
/// `write` phase puts its bytes on disk with the rest of the report.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("sink writer panicked")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("sink writer panicked"))
    }
}

/// A sweep point's label as a file name.
pub fn file_stem(point: &SweepPoint) -> String {
    point.label.replace('/', "_")
}

/// A finished run on its way from the timed phases to the checks.
struct Finished {
    net: Network,
    doc: JsonValue,
    exports: Vec<(&'static str, Vec<u8>)>,
    run_span: usize,
}

/// Exact counters of one or more finished runs, read from the typed
/// snapshot and the network's public getters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub nodes: u64,
    pub frames: u64,
    pub dispatched: u64,
    pub stale_elided: u64,
    pub rescheduled: u64,
    pub rotations: u64,
    pub depth_high_water: u64,
    pub tx_attempts: u64,
    pub tx_success: u64,
    pub retries: u64,
    pub collisions: u64,
    pub losses: u64,
    pub clean: u64,
    pub arena_high_water: u64,
    pub arena_reuses: u64,
    pub arena_allocated: u64,
    pub queue_drops: u64,
    pub queue_accepted: u64,
    pub telemetry_windows: u64,
    pub flight_tracked: u64,
    pub flight_skipped: u64,
    pub audit_records: u64,
    pub boe_hits: u64,
    pub boe_misses: u64,
    pub caa_moves: u64,
    /// Engine self-profiler totals, [`PROFILE_NAMES`] order; zero unless
    /// the run was traced.
    pub handler_ns: [u64; PROFILE_KINDS],
}

impl Counters {
    fn of(snap: &RunSnapshot, net: &Network) -> Counters {
        let mut c = Counters {
            nodes: snap.nodes.len() as u64,
            frames: snap.channel.tx_started,
            dispatched: snap.scheduler.dispatched_total,
            stale_elided: snap.scheduler.stale_elided,
            rescheduled: snap.scheduler.rescheduled_total,
            rotations: snap.perf.sched_rotations,
            depth_high_water: snap.scheduler.depth_high_water as u64,
            collisions: snap.channel.collisions_at_dst,
            losses: snap.channel.bernoulli_losses,
            clean: snap.channel.clean_deliveries,
            arena_high_water: snap.perf.arena_high_water,
            arena_reuses: net.arena_slot_reuses(),
            arena_allocated: net.arena_allocated_total(),
            telemetry_windows: snap.perf.telemetry_windows,
            flight_tracked: net.flight.stats().tracked,
            flight_skipped: net.flight.stats().skipped,
            audit_records: net.audit.pushed(),
            handler_ns: snap.perf.handler_ns,
            ..Counters::default()
        };
        for n in &snap.nodes {
            c.tx_attempts += n.mac.tx_attempts;
            c.tx_success += n.mac.tx_success;
            c.retries += n.mac.retries;
            c.boe_hits += n.counters.boe_hits;
            c.boe_misses += n.counters.boe_misses;
            c.caa_moves += n.counters.caa_increases + n.counters.caa_decreases;
            for q in &n.queues {
                c.queue_drops += q.drops;
                c.queue_accepted += q.accepted;
            }
        }
        c
    }

    /// Sums `other` into `self` (high-water marks take the maximum).
    pub fn add(&mut self, other: &Counters) {
        macro_rules! sum { ($($f:ident),*) => { $( self.$f += other.$f; )* } }
        sum!(
            nodes,
            frames,
            dispatched,
            stale_elided,
            rescheduled,
            rotations,
            tx_attempts,
            tx_success,
            retries,
            collisions,
            losses,
            clean,
            arena_reuses,
            arena_allocated,
            queue_drops,
            queue_accepted,
            telemetry_windows,
            flight_tracked,
            flight_skipped,
            audit_records,
            boe_hits,
            boe_misses,
            caa_moves
        );
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.arena_high_water = self.arena_high_water.max(other.arena_high_water);
        for (a, b) in self.handler_ns.iter_mut().zip(other.handler_ns) {
            *a += b;
        }
    }

    /// Scheduler entries consumed, wherever they died: dispatched,
    /// elided as stale, or moved in place by a keyed reschedule.
    pub fn consumed(&self) -> u64 {
        self.dispatched + self.stale_elided + self.rescheduled
    }

    /// Wall-clock nanoseconds inside the named handler kinds.
    pub fn handler(&self, kinds: &[&str]) -> u64 {
        PROFILE_NAMES
            .iter()
            .zip(self.handler_ns)
            .filter(|(n, _)| kinds.contains(n))
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// What one sweep-point run produced, after checking.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The sweep point's label.
    pub label: String,
    /// Digest of every artefact with the `perf` block zeroed.
    pub digest: u64,
    /// Bytes of every artefact with the `perf` block zeroed.
    pub report_bytes: u64,
    /// Aggregate delivered goodput, kb/s.
    pub goodput_kbps: f64,
    /// Mean network delay over every delivered packet of every flow, ms.
    pub delay_mean_ms: f64,
    /// p95 of the same delays, ms.
    pub delay_p95_ms: f64,
    /// Mean windowed Jain index.
    pub jain_mean_window: f64,
    /// Mean queue at each flow's first relay, averaged over flows.
    pub first_relay_queue: f64,
    /// Controller name of the point (`802.11`, `EZ-flow`).
    pub controller: String,
    /// Exact counters of the run.
    pub counters: Counters,
    /// Why the run counts as failed; empty when it passed.
    pub failures: Vec<String>,
}

/// One repetition: its spans and segments, and what each point produced.
pub struct Rep {
    /// Spans and segment durations.
    pub rec: Recorder,
    /// One outcome per sweep point, in sweep order.
    pub points: Vec<PointOutcome>,
    /// Resident set around the first point's build (only when probed).
    pub build_rss: Option<BuildRss>,
}

/// The resident set around one `Network::new`.
#[derive(Clone, Copy, Debug)]
pub struct BuildRss {
    /// `VmRSS` right after the build, MB.
    pub after_mb: f64,
    /// How much the build grew it, bytes.
    pub grew_bytes: f64,
}

/// A workload bound to a seed: everything a repetition needs.
pub struct Pipeline {
    /// The workload.
    pub workload: &'static Workload,
    /// The generated spec text — all the simulator gets to see.
    pub spec_text: String,
    /// Tenth-length runs (`--quick`).
    pub quick: bool,
    /// Where the report files go.
    pub out_dir: PathBuf,
    /// Per sweep point: the digest of the first run seen in this process.
    reference: Vec<Option<u64>>,
}

impl Pipeline {
    /// Binds `workload` to `seed`, creating `out_dir/<workload>/`.
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        quick: bool,
        out_root: &std::path::Path,
    ) -> Result<Pipeline, String> {
        let out_dir = out_root.join(workload.name);
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Pipeline {
            workload,
            spec_text: workload.spec_text(seed),
            quick,
            out_dir,
            reference: Vec::new(),
        })
    }

    fn scale(&self) -> Scale {
        let mut scale = Scale::full();
        scale.jobs = 1;
        if self.workload.observers {
            scale.telemetry_every = Some(NetworkSpec::TELEMETRY_EVERY);
            scale.audit_cap = NetworkSpec::AUDIT_CAP;
        }
        scale
    }

    /// Simulated end time: the spec's own, a tenth of it under `--quick`.
    pub fn until(&self, compiled: &CompiledScenario) -> Time {
        let us = compiled.until.as_micros();
        Time::from_micros(if self.quick { us / 10 } else { us })
    }

    /// The network spec of one sweep point, observers armed as the
    /// workload asks.
    pub fn network_spec(
        &self,
        compiled: &CompiledScenario,
        point: &SweepPoint,
        profile: bool,
    ) -> NetworkSpec {
        let mut ns = self.scale().spec(&compiled.topology, point.seed);
        ns.queue_cap = point.queue_cap;
        ns.profile = profile;
        if self.workload.observers {
            ns.flight_cap = FLIGHT_CAP;
        }
        ns
    }

    /// Resolves a sweep point's controller name.
    pub fn algo(point: &SweepPoint) -> Result<Algo, String> {
        Algo::from_name(&point.controller)
            .ok_or_else(|| format!("{}: unknown controller '{}'", point.label, point.controller))
    }

    fn build(
        &self,
        compiled: &CompiledScenario,
        point: &SweepPoint,
        algo: Algo,
        profile: bool,
    ) -> (Network, Option<(SharedBuf, SharedBuf)>) {
        let ns = self.network_spec(compiled, point, profile);
        let mut net = Network::new(ns, &*algo.factory());
        let sinks = self.workload.observers.then(|| {
            let (telemetry, audit) = (SharedBuf::default(), SharedBuf::default());
            net.telemetry.set_sink(Box::new(telemetry.clone()));
            net.audit.set_sink(Box::new(audit.clone()));
            (telemetry, audit)
        });
        (net, sinks)
    }

    /// Parses the spec text.
    pub fn parse(&self) -> Result<ScenarioSpec, String> {
        ScenarioSpec::parse(&self.spec_text).map_err(|e| format!("{}: {e}", self.workload.name))
    }

    /// Runs one full repetition. `profile` arms the engine's
    /// self-profiler (the traced pass); `probe_rss` reads the resident
    /// set around the first build.
    pub fn run_rep(&mut self, profile: bool, probe_rss: bool) -> Result<Rep, String> {
        let mut rec = Recorder::new();
        let rep_span = rec.open("rep");
        let spec = rec.phase("parse", || self.parse())?;
        let compiled = rec
            .phase("compile", || spec.compile())
            .map_err(|e| format!("{}: {e}", self.workload.name))?;
        let until = self.until(&compiled);
        self.reference.resize(compiled.points.len(), None);
        let mut points = Vec::with_capacity(compiled.points.len());
        let mut build_rss = None;
        for (i, point) in compiled.points.iter().enumerate() {
            let span = rec.open(format!("point:{}", point.label));
            let probe = (probe_rss && i == 0).then_some(&mut build_rss);
            points.push(self.run_point(&mut rec, &compiled, i, until, profile, probe)?);
            rec.close(span);
        }
        rec.close(rep_span);
        Ok(Rep {
            rec,
            points,
            build_rss,
        })
    }

    fn run_point(
        &mut self,
        rec: &mut Recorder,
        compiled: &CompiledScenario,
        index: usize,
        until: Time,
        profile: bool,
        probe_rss: Option<&mut Option<BuildRss>>,
    ) -> Result<PointOutcome, String> {
        let point = &compiled.points[index];
        let algo = Self::algo(point)?;
        let rss_before = probe_rss.is_some().then(crate::procfs::rss_mb);
        let (mut net, sinks) = rec.phase("build", || self.build(compiled, point, algo, profile));
        if let (Some(slot), Some(before)) = (probe_rss, rss_before) {
            let after_mb = crate::procfs::rss_mb()?;
            *slot = Some(BuildRss {
                after_mb,
                grew_bytes: (after_mb - before?).max(0.0) * 1024.0 * 1024.0,
            });
        }

        let run = rec.open("run");
        for step in 1..=RUN_STEPS {
            let to = Time::from_micros(until.as_micros() * step / RUN_STEPS);
            rec.segment("run", || net.run_until(to));
        }
        rec.close(run);

        let (doc, lifecycle) = rec.phase("snapshot", || {
            let doc = net.snapshot_json(&point.label);
            (doc, sinks.is_some().then(|| net.flight.to_jsonl()))
        });
        let text = rec.phase("serialise", || {
            let mut text = doc.to_pretty();
            text.push('\n');
            text
        });
        let stem = file_stem(point);
        let mut exports: Vec<(&str, Vec<u8>)> = Vec::new();
        if let (Some(lifecycle), Some((telemetry, audit))) = (lifecycle, &sinks) {
            exports.push(("lifecycle.jsonl", lifecycle.into_bytes()));
            exports.push(("telemetry.jsonl", telemetry.take()));
            exports.push(("audit.jsonl", audit.take()));
        }
        rec.phase("write", || -> Result<(), String> {
            self.write_file(&format!("{stem}.json"), text.as_bytes())?;
            for (suffix, bytes) in &exports {
                self.write_file(&format!("{stem}.{suffix}"), bytes)?;
            }
            Ok(())
        })?;
        drop(text);

        // The harness checking the run, not the simulator producing a
        // report: timed as its own `check` span, part of no metric. The
        // network, the document and the exports are handed over so that
        // tearing them down is attributed too.
        let check = rec.open("check");
        let finished = Finished {
            net,
            doc,
            exports,
            run_span: run,
        };
        let outcome = self.check_point(rec, compiled, index, until, profile, finished);
        rec.close(check);
        outcome
    }

    fn check_point(
        &mut self,
        rec: &mut Recorder,
        compiled: &CompiledScenario,
        index: usize,
        until: Time,
        profile: bool,
        finished: Finished,
    ) -> Result<PointOutcome, String> {
        let Finished {
            mut net,
            mut doc,
            exports,
            run_span,
        } = finished;
        let point = &compiled.points[index];
        let mut failures = Vec::new();
        let snap = RunSnapshot::from_json(&doc)
            .map_err(|e| format!("{}: report does not parse back: {e}", point.label))?;
        if profile {
            let handlers: Vec<(&str, u64)> = PROFILE_NAMES
                .iter()
                .copied()
                .zip(snap.perf.handler_ns)
                .collect();
            let total: u64 = handlers.iter().map(|h| h.1).sum();
            let run_ns = rec.spans[run_span].dur_ns();
            if total > run_ns {
                failures.push(format!(
                    "handler time {total} ns exceeds the run span {run_ns} ns"
                ));
            }
            rec.add_children(run_span, &handlers);
        }
        let flows: Vec<u32> = compiled.topology.flows.iter().map(|f| f.id).collect();
        let from = compiled
            .topology
            .flows
            .iter()
            .map(|f| f.start)
            .min()
            .unwrap_or(Time::ZERO)
            .min(until);
        let (goodput_kbps, _, (_, jain_mean_window)) = summarize(&net, &flows, from, until);
        let first_relay_queue = compiled
            .topology
            .flows
            .iter()
            .filter_map(|f| f.path.get(1))
            .map(|&relay| net.metrics.buffer[relay].window(from, until).mean)
            .sum::<f64>()
            / compiled.topology.flows.len().max(1) as f64;
        if net.metrics.delivered.values().sum::<u64>() == 0 {
            failures.push("no traffic was delivered".to_string());
        }
        let counters = Counters::of(&snap, &net);
        // Exact mean and p95 over every delivered packet of every flow:
        // the snapshot's log-bucketed histograms quantise a quantile to
        // ~10 % steps, so two seeds one packet apart can read a bucket
        // apart. The series are moved out and the network dropped first,
        // so the copies made here stay below the run's own memory peak
        // and do not end up in `peak_rss_mb`.
        let delay_series = std::mem::take(&mut net.metrics.delay_net);
        drop(net);
        let mut delays: Vec<f64> = Vec::new();
        for series in delay_series.values() {
            delays.extend(series.points().into_iter().map(|(_, secs)| secs));
        }
        drop(delay_series);
        let mean_secs = ezflow_stats::mean_std(&delays).mean;
        let p95_secs = ezflow_stats::percentile(&delays, 0.95).unwrap_or(0.0);
        drop(delays);
        if let Some(n) = snap
            .nodes
            .iter()
            .find(|n| n.airtime.total_us() != snap.at_us)
        {
            failures.push(format!(
                "airtime partition of node {} sums to {} us, elapsed {} us",
                n.id,
                n.airtime.total_us(),
                snap.at_us
            ));
        }
        drop(snap);

        swap_perf(&mut doc, zeroed_perf())
            .ok_or_else(|| format!("{}: snapshot has no perf block", point.label))?;
        let mut zeroed = doc.to_pretty();
        zeroed.push('\n');
        let mut parts: Vec<&[u8]> = vec![zeroed.as_bytes()];
        parts.extend(exports.iter().map(|(_, b)| b.as_slice()));
        let digest = fnv1a(&parts);
        let report_bytes = parts.iter().map(|p| p.len() as u64).sum();
        let reference = format!("{}.reference.json", file_stem(point));
        match self.reference[index] {
            None => {
                self.reference[index] = Some(digest);
                self.write_file(&reference, zeroed.as_bytes())?;
            }
            Some(d) if d == digest => {}
            Some(_) => failures.push(self.explain_divergence(&reference, &doc)),
        }
        for f in &failures {
            eprintln!("FAILED {}: {f}", point.label);
        }
        Ok(PointOutcome {
            label: point.label.clone(),
            digest,
            report_bytes,
            goodput_kbps,
            delay_mean_ms: mean_secs * 1e3,
            delay_p95_ms: p95_secs * 1e3,
            jain_mean_window,
            first_relay_queue,
            controller: point.controller.clone(),
            counters,
            failures,
        })
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let path = self.out_dir.join(name);
        let mut f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(bytes)
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn explain_divergence(&self, reference: &str, doc: &JsonValue) -> String {
        let path = self.out_dir.join(reference);
        let first = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| JsonValue::parse(&t).map_err(|e| e.message));
        match first {
            Ok(first) => match first_divergence(&first, doc) {
                Some(at) => format!("report differs from the first repetition at {at}"),
                None => "a JSONL export differs from the first repetition".to_string(),
            },
            Err(e) => format!("report differs from the first repetition ({reference}: {e})"),
        }
    }

    /// Runs the set-up phases (parse, compile, one build per sweep
    /// point) and nothing else, returning each one's duration in
    /// nanoseconds, in segment order.
    pub fn setup_only(&self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        let t0 = Instant::now();
        let spec = self.parse()?;
        out.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let compiled = spec.compile().map_err(|e| e.to_string())?;
        out.push(t0.elapsed().as_nanos() as u64);
        for point in &compiled.points {
            let algo = Self::algo(point)?;
            let t0 = Instant::now();
            let built = self.build(&compiled, point, algo, false);
            out.push(t0.elapsed().as_nanos() as u64);
            drop(built);
        }
        Ok(out)
    }
}
