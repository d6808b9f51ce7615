//! `trace` — the per-packet lifecycle inspector.
//!
//! Reads the JSONL that the flight recorder exports (one
//! [`ezflow_net::lifecycle::TraceEvent`] per line, produced by
//! `experiments --trace-dir=DIR` or [`ezflow_net::FlightRecorder::to_jsonl`])
//! and answers the questions the aggregate counters cannot: *what happened
//! to this packet*, *which packets fared worst*, and *where and why were
//! packets dropped*.
//!
//! ```text
//! trace journey --packet=ID FILE   # one packet's full hop-by-hop story
//! trace worst [--flow=F] [--top=K] FILE   # slowest delivered journeys
//! trace drops [--by-cause] [--by-node] [--by-link] FILE   # drop census
//! trace telemetry [--top=K] FILE   # worst oscillators, episodes, sparklines
//! trace controller [--top=K] FILE   # CW timelines, decisions, link errors
//! ```
//!
//! Flow ids are the simulator's: the paper's F1 is flow 0, F2 is flow 1.
//! A capture holds the first `--flight-cap` packets a run admitted (the
//! harness says so when it stops short of all of them), each journey
//! whole from admission to its terminal delivery or drop, or to the end
//! of the run. Lines are in the order events happened; the commands
//! group them by packet id.
//!
//! `telemetry` reads the *other* JSONL format: the telemetry bus's
//! one-record-per-sample-window stream (`experiments --telemetry-dir`).
//! It rebuilds the per-node queue-depth series, runs the stability
//! analyzer over them, and prints the worst oscillators, the sustained
//! oscillation episodes, and one sparkline per ranked node and flow.
//!
//! `controller` reads a third format: the audit ledger's stream
//! (`experiments --audit-dir`, one record per BOE estimation sample and
//! per `CWmin` decision). It prints each node's `CWmin` timeline as a
//! sparkline over its decision points, the decision list with the
//! counter and threshold that fired each one, and the worst-estimated
//! links ranked by mean absolute estimation error.

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

use ezflow_net::lifecycle::{parse_jsonl, DropCause, TraceEvent, TracePayload};
use ezflow_net::{group_journeys, summarize_journey, DecisionKind, JourneySummary};
use ezflow_phy::FrameKind;
use ezflow_sim::{Duration, JsonValue};
use ezflow_stats::{analyze, Stability, StabilityConfig, TimeSeries};

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace <command> [flags] FILE\n\
         commands:\n\
         \x20 journey --packet=ID   print one packet's full lifecycle\n\
         \x20 worst [--flow=F] [--top=K]   slowest delivered journeys (default top 10)\n\
         \x20 drops [--by-cause] [--by-node] [--by-link]   drop census, grouped\n\
         \x20 telemetry [--top=K]   stability digest of a telemetry stream\n\
         \x20 controller [--top=K]   CW timelines, decisions, estimation errors\n\
         FILE is a lifecycle JSONL export (experiments --trace-dir=DIR),\n\
         for `telemetry` a sample-window stream (--telemetry-dir=DIR),\n\
         or for `controller` an audit stream (--audit-dir=DIR)"
    );
    ExitCode::from(2)
}

/// Microseconds rendered for humans: µs under 1 ms, else ms.
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else {
        format!("{:.3} ms", us as f64 / 1_000.0)
    }
}

fn hops_arrow(s: &JourneySummary) -> String {
    let mut out = String::new();
    for (i, h) in s.hops.iter().enumerate() {
        if i > 0 {
            out.push('→');
        }
        out.push_str(&format!("N{h}"));
    }
    if let Some((_, node)) = s.delivered {
        out.push_str(&format!("→N{node}"));
    }
    out
}

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path} is not a lifecycle export: {e}"))
}

fn cmd_journey(events: &[TraceEvent], packet: u64) -> ExitCode {
    let journeys = group_journeys(events);
    let Some(evs) = journeys.get(&packet) else {
        eprintln!(
            "packet {packet} is not in this capture ({} journeys: seq {:?}..{:?})",
            journeys.len(),
            journeys.keys().next(),
            journeys.keys().next_back(),
        );
        return ExitCode::FAILURE;
    };
    let s = summarize_journey(packet, evs);
    println!(
        "packet {packet} (flow {})",
        s.flow.map_or("?".into(), |f| f.to_string())
    );
    println!("  path: {}", hops_arrow(&s));
    println!("  hops: {}, DCF attempts: {}", s.hops.len(), s.attempts);
    match (s.delivered, s.dropped) {
        (Some((at, node)), _) => {
            let lat = s.latency_us().map_or("?".into(), fmt_us);
            println!("  DELIVERED at N{node}, t={at}, end-to-end {lat}");
        }
        (None, Some((at, node, cause))) => {
            println!("  DROPPED at N{node}, t={at}, cause: {}", cause.name());
        }
        (None, None) => println!("  IN FLIGHT when the capture ended"),
    }
    println!();
    for ev in evs {
        println!("  {ev}");
    }
    ExitCode::SUCCESS
}

fn cmd_worst(events: &[TraceEvent], flow: Option<u32>, top: usize) -> ExitCode {
    let journeys = group_journeys(events);
    let mut delivered: Vec<(u64, JourneySummary)> = journeys
        .iter()
        .map(|(&seq, evs)| summarize_journey(seq, evs))
        .filter(|s| flow.is_none() || s.flow == flow)
        .filter_map(|s| s.latency_us().map(|l| (l, s)))
        .collect();
    if delivered.is_empty() {
        eprintln!(
            "no delivered journeys{} in this capture",
            flow.map_or(String::new(), |f| format!(" of flow {f}"))
        );
        return ExitCode::FAILURE;
    }
    delivered.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.seq.cmp(&b.1.seq)));
    println!(
        "{} delivered journeys{}; {} slowest:",
        delivered.len(),
        flow.map_or(String::new(), |f| format!(" of flow {f}")),
        top.min(delivered.len())
    );
    println!(
        "  {:>10} | {:>5} | {:>12} | {:>8} | path",
        "packet", "flow", "latency", "attempts"
    );
    for (lat, s) in delivered.iter().take(top) {
        println!(
            "  {:>10} | {:>5} | {:>12} | {:>8} | {}",
            s.seq,
            s.flow.map_or("?".into(), |f| f.to_string()),
            fmt_us(*lat),
            s.attempts,
            hops_arrow(s)
        );
    }
    ExitCode::SUCCESS
}

/// The (tx → rx) link a drop belongs to; `None` means the packet never
/// went on air (no link to blame). A retry-limit drop at N belongs to
/// the link from N to the receiver N addressed: the node of the data
/// decode outcomes after N's last `Enqueue` (`N→?` if none was written).
/// Any other drop is at a receiver: `hops` records enqueue nodes, so a
/// queue-full drop at the refusing receiver is not itself a hop, and the
/// link is then last-hop → drop node.
fn drop_link(s: &JourneySummary, evs: &[TraceEvent]) -> Option<(usize, Option<usize>)> {
    let (_, node, cause) = s.dropped?;
    if cause == DropCause::RetryLimit {
        let enqueued = evs
            .iter()
            .rposition(|e| e.node == node && matches!(e.payload, TracePayload::Enqueue { .. }));
        let rx = evs[enqueued.map_or(0, |i| i + 1)..].iter().find(|e| {
            e.node != node
                && matches!(
                    e.payload,
                    TracePayload::RxOutcome {
                        class: FrameKind::Data,
                        ..
                    }
                )
        });
        return Some((node, rx.map(|e| e.node)));
    }
    match s.hops.iter().rposition(|&h| h == node) {
        Some(0) => None,
        Some(pos) => Some((s.hops[pos - 1], Some(node))),
        None => s.hops.last().map(|&tx| (tx, Some(node))),
    }
}

/// What a drop census groups by; a census line prints its key.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Link(Option<(usize, Option<usize>)>),
    Node(usize),
    Cause(&'static str),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Link(Some((tx, Some(rx)))) => write!(f, "N{tx}→N{rx}"),
            Key::Link(Some((tx, None))) => write!(f, "N{tx}→?"),
            Key::Link(None) => f.write_str("at source (never left)"),
            Key::Node(node) => write!(f, "N{node}"),
            Key::Cause(cause) => f.write_str(cause),
        }
    }
}

/// Two-level drop census. `key` picks a drop's group and subgroup from
/// its link, node and cause; each group prints its total, then the
/// count of each subgroup.
fn census(dropped: &[(JourneySummary, &[TraceEvent])], key: fn(Key, Key, Key) -> (Key, Key)) {
    let mut census: BTreeMap<Key, BTreeMap<Key, u64>> = BTreeMap::new();
    for (s, evs) in dropped {
        let (_, node, cause) = s.dropped.expect("filtered on dropped");
        let (group, sub) = key(
            Key::Link(drop_link(s, evs)),
            Key::Node(node),
            Key::Cause(cause.name()),
        );
        *census.entry(group).or_default().entry(sub).or_insert(0) += 1;
    }
    for (group, subs) in &census {
        println!("  {group}: {}", subs.values().sum::<u64>());
        for (sub, n) in subs {
            println!("    {sub}: {n}");
        }
    }
}

fn cmd_drops(events: &[TraceEvent], by_cause: bool, by_node: bool, by_link: bool) -> ExitCode {
    let journeys = group_journeys(events);
    let dropped: Vec<(JourneySummary, &[TraceEvent])> = journeys
        .iter()
        .map(|(&seq, evs)| (summarize_journey(seq, evs), &evs[..]))
        .filter(|(s, _)| s.dropped.is_some())
        .collect();
    println!(
        "{} journeys, {} ended in a drop",
        journeys.len(),
        dropped.len()
    );
    if by_link {
        // Which hop kills packets, then why.
        census(&dropped, |link, _, cause| (link, cause));
    } else if by_node {
        // Where packets die, then why there.
        census(&dropped, |_, node, cause| (node, cause));
    } else if by_cause {
        census(&dropped, |_, node, cause| (cause, node));
    } else {
        for (s, _) in &dropped {
            let (at, node, cause) = s.dropped.expect("filtered on dropped");
            println!(
                "  packet {:>8} flow {} dropped at N{node} t={at} ({}) after {}",
                s.seq,
                s.flow.map_or("?".into(), |f| f.to_string()),
                cause.name(),
                hops_arrow(s)
            );
        }
    }
    ExitCode::SUCCESS
}

/// One-line sparkline of `values`, downsampled to at most `width`
/// buckets (bucket value = max, so oscillation peaks survive).
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let per = values.len().div_ceil(width).max(1);
    let buckets: Vec<f64> = values
        .chunks(per)
        .map(|c| c.iter().fold(f64::MIN, |a, &b| a.max(b)))
        .collect();
    let max = buckets.iter().fold(0.0f64, |a, &b| a.max(b));
    buckets
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Per-entity series rebuilt from a telemetry stream.
struct TelemetryDump {
    interval: Duration,
    windows: u64,
    /// Node id -> queue-depth samples, one per window.
    node_queue: BTreeMap<usize, Vec<f64>>,
    /// Flow id -> windowed kb/s.
    flow_kbps: BTreeMap<u32, Vec<f64>>,
}

fn load_telemetry(path: &str) -> Result<TelemetryDump, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut dump = TelemetryDump {
        interval: Duration::from_micros(1),
        windows: 0,
        node_queue: BTreeMap::new(),
        flow_kbps: BTreeMap::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = JsonValue::parse(line)
            .map_err(|e| format!("{path}:{}: not a telemetry record: {e}", lineno + 1))?;
        let bad = || format!("{path}:{}: not a telemetry record", lineno + 1);
        let us = rec
            .get("interval_us")
            .and_then(JsonValue::as_u64)
            .ok_or_else(bad)?;
        // Every window is one bin of the series `cmd_telemetry` rebuilds,
        // so the width must be positive and the same on every record.
        if us == 0 {
            return Err(format!("{path}:{}: interval_us is 0", lineno + 1));
        }
        if dump.windows > 0 && us != dump.interval.as_micros() {
            return Err(format!(
                "{path}:{}: interval_us {us} differs from the {} of the records before it",
                lineno + 1,
                dump.interval.as_micros()
            ));
        }
        dump.interval = Duration::from_micros(us);
        for nd in rec
            .get("nodes")
            .and_then(JsonValue::as_array)
            .ok_or_else(bad)?
        {
            let id = nd.get("id").and_then(JsonValue::as_u64).ok_or_else(bad)? as usize;
            let q = nd
                .get("queue")
                .and_then(JsonValue::as_f64)
                .ok_or_else(bad)?;
            dump.node_queue.entry(id).or_default().push(q);
        }
        for fl in rec
            .get("flows")
            .and_then(JsonValue::as_array)
            .ok_or_else(bad)?
        {
            let id = fl.get("flow").and_then(JsonValue::as_u64).ok_or_else(bad)?;
            // Flow ids are `u32`s: a wider one would wrap onto another
            // flow and blend the two series.
            let id = u32::try_from(id)
                .map_err(|_| format!("{path}:{}: flow {id} does not fit in 32 bits", lineno + 1))?;
            let k = fl.get("kbps").and_then(JsonValue::as_f64).ok_or_else(bad)?;
            dump.flow_kbps.entry(id).or_default().push(k);
        }
        dump.windows += 1;
    }
    if dump.windows == 0 {
        return Err(format!("{path}: no telemetry windows"));
    }
    Ok(dump)
}

fn cmd_telemetry(dump: &TelemetryDump, top: usize) -> ExitCode {
    let cfg = StabilityConfig::default();
    println!(
        "{} sample windows of {} µs ({} nodes, {} flows); stability over \
         {}-window chunks, episode = amplitude ≥ {} for ≥ {} chunks",
        dump.windows,
        dump.interval.as_micros(),
        dump.node_queue.len(),
        dump.flow_kbps.len(),
        cfg.window,
        cfg.amp_threshold,
        cfg.min_windows,
    );

    // Rebuild each node's queue ring and score it.
    let mut scored: Vec<(usize, Stability, &Vec<f64>)> = dump
        .node_queue
        .iter()
        .map(|(&id, values)| {
            let mut series = TimeSeries::new(dump.interval, values.len().max(1));
            for &v in values {
                series.push(v);
            }
            (id, analyze(&series, &cfg), values)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.amplitude
            .mean
            .total_cmp(&a.1.amplitude.mean)
            .then(a.0.cmp(&b.0))
    });

    println!("\nworst oscillators (queue depth, by mean chunk amplitude):");
    println!(
        "  {:>5} | {:>8} | {:>8} | {:>6} | {:>8} | queue sparkline",
        "node", "amp_mean", "amp_max", "cv", "episodes"
    );
    for (id, st, values) in scored.iter().take(top) {
        println!(
            "  {:>5} | {:>8.2} | {:>8.2} | {:>6.3} | {:>8} | {}",
            format!("N{id}"),
            st.amplitude.mean,
            st.amplitude.max,
            st.cv.mean,
            st.episodes.len(),
            sparkline(values, 48)
        );
    }

    let mut episodes: Vec<(usize, &ezflow_stats::Episode)> = scored
        .iter()
        .flat_map(|(id, st, _)| st.episodes.iter().map(move |e| (*id, e)))
        .collect();
    episodes.sort_by(|a, b| a.1.start.cmp(&b.1.start).then(a.0.cmp(&b.0)));
    if episodes.is_empty() {
        println!("\nno sustained oscillation episodes");
    } else {
        println!("\nsustained oscillation episodes:");
        for (id, e) in &episodes {
            println!(
                "  N{id}: {} .. {} (peak amplitude {:.1})",
                e.start, e.end, e.peak_amplitude
            );
        }
    }

    println!("\nper-flow windowed throughput:");
    for (flow, values) in &dump.flow_kbps {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        println!(
            "  flow {flow}: mean {:>7.1} kb/s | {}",
            mean,
            sparkline(values, 48)
        );
    }
    ExitCode::SUCCESS
}

/// One `CWmin` decision from an audit stream, with its recorded inputs.
struct Decision {
    at_us: u64,
    node: usize,
    kind: DecisionKind,
    successor: Option<usize>,
    avg: f64,
    countup: u64,
    countdown: u64,
    up_threshold: u64,
    down_threshold: u64,
    cw_before: u64,
    cw_after: u64,
}

/// An audit stream rebuilt per entity (`experiments --audit-dir`).
struct AuditDump {
    records: u64,
    samples: u64,
    decisions: Vec<Decision>,
    /// (node, successor) -> signed estimation errors, in stream order.
    link_err: BTreeMap<(usize, usize), Vec<f64>>,
}

fn load_audit(path: &str) -> Result<AuditDump, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut dump = AuditDump {
        records: 0,
        samples: 0,
        decisions: Vec::new(),
        link_err: BTreeMap::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = JsonValue::parse(line)
            .map_err(|e| format!("{path}:{}: not an audit record: {e}", lineno + 1))?;
        let bad = || format!("{path}:{}: not an audit record", lineno + 1);
        let u = |k: &str| rec.get(k).and_then(JsonValue::as_u64).ok_or_else(bad);
        let at_us = u("at_us")?;
        let node = u("node")? as usize;
        let kind = rec
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(bad)?;
        match kind {
            "sample" => {
                let successor = u("successor")? as usize;
                let err = u("estimate")? as f64 - u("truth")? as f64;
                dump.link_err
                    .entry((node, successor))
                    .or_default()
                    .push(err);
                dump.samples += 1;
            }
            _ => dump.decisions.push(Decision {
                at_us,
                node,
                kind: [
                    DecisionKind::Increase,
                    DecisionKind::Decrease,
                    DecisionKind::Assign,
                ]
                .into_iter()
                .find(|k| k.name() == kind)
                .ok_or_else(|| format!("{path}:{}: unknown audit kind '{kind}'", lineno + 1))?,
                successor: rec
                    .get("successor")
                    .and_then(JsonValue::as_u64)
                    .map(|s| s as usize),
                avg: rec.get("avg").and_then(JsonValue::as_f64).ok_or_else(bad)?,
                countup: u("countup")?,
                countdown: u("countdown")?,
                up_threshold: u("up_threshold")?,
                down_threshold: u("down_threshold")?,
                cw_before: u("cw_before")?,
                cw_after: u("cw_after")?,
            }),
        }
        dump.records += 1;
    }
    if dump.records == 0 {
        return Err(format!("{path}: no audit records"));
    }
    Ok(dump)
}

/// What made a decision fire, in the CAA's own terms (§3.3 Algorithm 1).
/// The record carries the charge *entering* the round; the firing round
/// is the one that pushed it to the threshold.
fn fired(d: &Decision) -> String {
    match d.kind {
        DecisionKind::Increase => {
            format!("countup {}+1 hit {} → double", d.countup, d.up_threshold)
        }
        DecisionKind::Decrease => format!(
            "countdown {}+1 hit {} → halve",
            d.countdown, d.down_threshold
        ),
        DecisionKind::Assign => "assigned".to_string(),
    }
}

fn cmd_controller(dump: &AuditDump, top: usize) -> ExitCode {
    println!(
        "{} audit records: {} estimation samples over {} links, {} CW decisions",
        dump.records,
        dump.samples,
        dump.link_err.len(),
        dump.decisions.len(),
    );

    // CWmin timeline per node, sampled at its decision points.
    let mut timelines: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in &dump.decisions {
        let tl = timelines.entry(d.node).or_default();
        if tl.is_empty() {
            tl.push(d.cw_before as f64);
        }
        tl.push(d.cw_after as f64);
    }
    if !timelines.is_empty() {
        println!("\nCWmin timelines (one point per decision):");
        println!(
            "  {:>5} | {:>9} | {:>8} | {:>8} | timeline",
            "node", "decisions", "cw_first", "cw_last"
        );
        for (node, tl) in &timelines {
            println!(
                "  {:>5} | {:>9} | {:>8} | {:>8} | {}",
                format!("N{node}"),
                tl.len() - 1,
                tl.first().copied().unwrap_or(0.0),
                tl.last().copied().unwrap_or(0.0),
                sparkline(tl, 48)
            );
        }
    }

    if dump.decisions.is_empty() {
        println!("\nno CW decisions in this capture");
    } else {
        let shown = top.min(dump.decisions.len());
        println!(
            "\nlast {shown} of {} decisions (oldest first):",
            dump.decisions.len()
        );
        for d in &dump.decisions[dump.decisions.len() - shown..] {
            let succ = d
                .successor
                .map_or(String::new(), |s| format!(" (successor N{s})"));
            println!(
                "  t={:>12} N{}{}: {} CW {} → {} | avg b̂ {:.2}, {}",
                fmt_us(d.at_us),
                d.node,
                succ,
                d.kind.name(),
                d.cw_before,
                d.cw_after,
                d.avg,
                fired(d)
            );
        }
    }

    // Worst-estimated links by mean absolute error:
    // (link, bias, mae, max |error|, error series).
    type LinkScore<'a> = (&'a (usize, usize), f64, f64, f64, &'a Vec<f64>);
    let mut ranked: Vec<LinkScore<'_>> = dump
        .link_err
        .iter()
        .map(|(link, errs)| {
            let n = errs.len() as f64;
            let bias = errs.iter().sum::<f64>() / n;
            let mae = errs.iter().map(|e| e.abs()).sum::<f64>() / n;
            let max = errs.iter().fold(0.0f64, |a, &e| a.max(e.abs()));
            (link, bias, mae, max, errs)
        })
        .collect();
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    if !ranked.is_empty() {
        println!("\nworst-estimated links (estimate − truth, by mean |error|):");
        println!(
            "  {:>9} | {:>8} | {:>7} | {:>7} | {:>7} | |error| sparkline",
            "link", "samples", "bias", "mae", "max"
        );
        for (link, bias, mae, max, errs) in ranked.iter().take(top) {
            let abs: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
            println!(
                "  {:>9} | {:>8} | {:>7.2} | {:>7.2} | {:>7.1} | {}",
                format!("N{}→N{}", link.0, link.1),
                errs.len(),
                bias,
                mae,
                max,
                sparkline(&abs, 48)
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let mut packet: Option<u64> = None;
    let mut flow: Option<u32> = None;
    let mut top = 10usize;
    let mut by_cause = false;
    let mut by_node = false;
    let mut by_link = false;
    let mut file: Option<String> = None;
    for a in &args[1..] {
        match a.as_str() {
            "--by-cause" => by_cause = true,
            "--by-node" => by_node = true,
            "--by-link" => by_link = true,
            s if s.starts_with("--packet=") => {
                packet = Some(match s["--packet=".len()..].parse() {
                    Ok(v) => v,
                    Err(_) => return usage(),
                });
            }
            s if s.starts_with("--flow=") => {
                flow = Some(match s["--flow=".len()..].parse() {
                    Ok(v) => v,
                    Err(_) => return usage(),
                });
            }
            s if s.starts_with("--top=") => {
                top = match s["--top=".len()..].parse() {
                    Ok(v) => v,
                    Err(_) => return usage(),
                };
            }
            s if s.starts_with("--") => return usage(),
            other => {
                if file.replace(other.to_string()).is_some() {
                    return usage();
                }
            }
        }
    }
    let Some(file) = file else {
        return usage();
    };
    // `telemetry` reads the sample-window stream, not lifecycle events.
    if cmd == "telemetry" {
        return match load_telemetry(&file) {
            Ok(dump) => cmd_telemetry(&dump, top),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    // `controller` reads the audit stream, also not lifecycle events.
    if cmd == "controller" {
        return match load_audit(&file) {
            Ok(dump) => cmd_controller(&dump, top),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let events = match load(&file) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "journey" => {
            let Some(packet) = packet else {
                eprintln!("journey needs --packet=ID");
                return usage();
            };
            cmd_journey(&events, packet)
        }
        "worst" => cmd_worst(&events, flow, top),
        "drops" => cmd_drops(&events, by_cause, by_node, by_link),
        _ => usage(),
    }
}
