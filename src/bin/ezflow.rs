//! `ezflow` — command-line front end to the simulator.
//!
//! ```text
//! ezflow run --topo chain --hops 4 --secs 300 --controller ezflow
//! ezflow run --topo scenario1 --controller 802.11
//! ezflow run --topo testbed --controller ezflow-testbed --seed 7
//! ezflow model --hops 4 --slots 200000 --adaptive
//! ezflow topologies
//! ```
//!
//! `run` simulates a topology under a chosen controller and prints a
//! per-flow / per-node summary. `model` runs the §6 slotted random walk.
//! `topologies` lists what `--topo` accepts.
//!
//! `run` holds its flags to the limits a scenario spec is held to
//! (`scenario::{MAX_NODES, MAX_DURATION_SECS, MAX_WINDOW}`) and validates
//! the network before building it; `model` holds `--hops` and `--slots`
//! to work that ends. A value out of range, or a flag the command does
//! not know, exits 2 naming the flag.

use std::process::ExitCode;

use ezflow::analysis::{ModelConfig, SlottedModel};
use ezflow::net::scenario::{MAX_DURATION_SECS, MAX_NODES, MAX_WINDOW};
use ezflow::prelude::*;

/// Longest chain `model` walks. The §6 analysis is about K ≤ 4 hops and
/// a slot costs O(K) (≈ 0.1 µs per hop), so 1,024 is generous.
const MODEL_MAX_HOPS: usize = 1024;

/// Most hop·slots `model` simulates — a few minutes of work: 10⁹ slots
/// of the default 4-hop chain, 5,000× the default run.
const MODEL_MAX_HOP_SLOTS: u64 = 4_000_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        Some("topologies") => {
            println!("chain      K-hop line (use --hops, default 4); Fig. 1 / §6");
            println!("testbed    the 9-node calibrated campus testbed of Fig. 3 (both flows)");
            println!("scenario1  two 8-hop flows merging toward a gateway (Fig. 5)");
            println!("scenario2  three flows with hidden sources (Fig. 9)");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage:\n  ezflow run --topo <chain|testbed|scenario1|scenario2> \
                 [--hops N] [--secs N] [--controller <802.11|ezflow|ezflow-testbed|diffq|static-q>] \
                 [--seed N] [--loss P] [--rts-cts] [--window N]\n  \
                 ezflow model --hops N --slots N [--adaptive|--fixed] [--seed N]\n  \
                 ezflow topologies"
            );
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {v}");
            std::process::exit(2)
        }),
        None => default,
    }
}

/// Reports a bad argument and yields the usage exit code.
fn rejected(complaint: String) -> ExitCode {
    eprintln!("{complaint}");
    ExitCode::from(2)
}

/// Checks that every argument is one of `valued` (each followed by its
/// value) or `switches`: a stale or misspelt flag fails, naming itself,
/// instead of being silently ignored.
fn known_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), ExitCode> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            return Err(rejected(format!(
                "unknown flag {arg} (run `ezflow` for usage)"
            )));
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> ExitCode {
    let valued = [
        "--topo",
        "--hops",
        "--secs",
        "--controller",
        "--seed",
        "--loss",
        "--window",
    ];
    if let Err(code) = known_flags(args, &valued, &["--rts-cts"]) {
        return code;
    }
    let topo_name = flag_value(args, "--topo").unwrap_or("chain");
    let hops: usize = parse(args, "--hops", 4);
    // A K-hop chain has K + 1 nodes; checked before one is allocated.
    // The other topologies have their own shape and ignore the flag.
    if topo_name == "chain" && !(1..MAX_NODES).contains(&hops) {
        return rejected(format!(
            "--hops {hops}: must be in 1..{MAX_NODES} (the {MAX_NODES}-node limit)"
        ));
    }
    let seed: u64 = parse(args, "--seed", 42);
    let loss: f64 = parse(args, "--loss", 0.0);
    if !(0.0..=1.0).contains(&loss) {
        return rejected(format!("--loss {loss}: must be a probability in [0, 1]"));
    }
    let controller = flag_value(args, "--controller").unwrap_or("ezflow");
    let window: usize = parse(args, "--window", 0);
    if window > MAX_WINDOW {
        return rejected(format!(
            "--window {window}: must be at most {MAX_WINDOW} packets"
        ));
    }

    let default_secs = match topo_name {
        "scenario1" => 2504,
        "scenario2" => 4500,
        "testbed" => 1800,
        _ => 300,
    };
    let secs: u64 = parse(args, "--secs", default_secs);
    // A run is paced by simulated time: past the bound it is a hang.
    if !(1..=MAX_DURATION_SECS as u64).contains(&secs) {
        return rejected(format!(
            "--secs {secs}: must be in 1..={MAX_DURATION_SECS:e}"
        ));
    }
    let until = Time::from_secs(secs);

    let mut topo = match topo_name {
        "chain" => chain(hops, Time::ZERO, until),
        "testbed" => testbed(true, true, Time::ZERO, until),
        "scenario1" => {
            let mut t = scenario1();
            clamp_flows(&mut t, until);
            t
        }
        "scenario2" => {
            let mut t = scenario2();
            clamp_flows(&mut t, until);
            t
        }
        other => {
            eprintln!("unknown topology: {other} (try `ezflow topologies`)");
            return ExitCode::from(2);
        }
    };

    if window > 0 {
        // Swap every flow to the closed-loop windowed transport.
        for f in &mut topo.flows {
            f.transport = ezflow::net::Transport::Windowed {
                window,
                ack_payload: 40,
            };
        }
    }
    let make: Box<dyn Fn(usize) -> Box<dyn Controller>> = match controller {
        "802.11" | "plain" => Box::new(|_| Box::new(FixedController::standard())),
        "ezflow" => Box::new(|_| Box::new(EzFlowController::with_defaults())),
        "ezflow-testbed" => {
            Box::new(|_| Box::new(EzFlowController::new(EzFlowConfig::testbed(), 32)))
        }
        "diffq" => Box::new(|_| Box::new(DiffQController::new())),
        "static-q" => {
            let flows = topo.flows.clone();
            let f = static_penalty_factory(&flows, 16, 128);
            Box::new(f)
        }
        other => {
            eprintln!("unknown controller: {other}");
            return ExitCode::from(2);
        }
    };

    let mut spec = NetworkSpec::from_topology(&topo, seed);
    if loss > 0.0 {
        spec.loss = LossModel::uniform(loss);
    }
    spec.mac.rts_cts = flag_present(args, "--rts-cts");
    if let Err(e) = spec.validate() {
        return rejected(format!("cannot build this network: {e}"));
    }
    let mut net = Network::new(spec, &*make);

    let wall = std::time::Instant::now();
    net.run_until(until);
    let wall = wall.elapsed();

    println!(
        "{} | {} nodes | controller {} | {} s simulated in {:.2} s wall ({} events)",
        topo.name,
        net.node_count(),
        controller,
        secs,
        wall.as_secs_f64(),
        net.events_processed()
    );

    let half = Time::from_secs(secs / 2);
    println!("\nflows (second-half statistics):");
    for f in &topo.flows {
        let kbps = net.metrics.mean_kbps(f.id, half, until);
        let d = net.metrics.delay_net[&f.id].window(half, until);
        let p95 = net.metrics.delay_net[&f.id]
            .percentile_in(half, until, 0.95)
            .unwrap_or(0.0);
        println!(
            "  F{}: {} -> {} ({} hops): {:7.1} kb/s | delay mean {:6.3} s, p95 {:6.3} s | delivered {}",
            f.id,
            f.path[0],
            f.path.last().unwrap(),
            f.hops(),
            kbps,
            d.mean,
            p95,
            net.metrics.delivered[&f.id]
        );
    }

    println!("\nnodes (mean buffer / cw / airtime share / drops q+retry):");
    let elapsed = until.since(Time::ZERO);
    for n in 0..net.node_count() {
        let b = net.metrics.buffer[n].window(half, until);
        let s = net.mac_stats(n);
        if s.tx_attempts == 0 && b.max == 0.0 {
            continue; // idle bystander
        }
        println!(
            "  N{n:<2} buffer {:5.1} | cw {:5} | air {:4.1}% | drops {:5}+{}",
            b.mean,
            net.cw_min(n),
            100.0 * net.utilization(n, elapsed),
            net.metrics.queue_drops[n],
            net.metrics.retry_drops[n],
        );
    }
    ExitCode::SUCCESS
}

fn clamp_flows(t: &mut Topology, until: Time) {
    for f in &mut t.flows {
        if f.stop > until {
            f.stop = until;
        }
        if f.start >= until {
            f.start = Time::ZERO;
        }
    }
}

fn cmd_model(args: &[String]) -> ExitCode {
    if let Err(code) = known_flags(
        args,
        &["--hops", "--slots", "--seed"],
        &["--adaptive", "--fixed"],
    ) {
        return code;
    }
    let hops: usize = parse(args, "--hops", 4);
    // The model needs a relay buffer to walk: two hops at least.
    if !(2..=MODEL_MAX_HOPS).contains(&hops) {
        return rejected(format!("--hops {hops}: must be in 2..={MODEL_MAX_HOPS}"));
    }
    let slots: u64 = parse(args, "--slots", 200_000);
    let max_slots = MODEL_MAX_HOP_SLOTS / hops as u64;
    if !(1..=max_slots).contains(&slots) {
        return rejected(format!(
            "--slots {slots}: must be in 1..={max_slots} for {hops} hops \
             (hops x slots <= {MODEL_MAX_HOP_SLOTS})"
        ));
    }
    let seed: u64 = parse(args, "--seed", 42);
    let adaptive = !flag_present(args, "--fixed");
    let mut m = SlottedModel::new(ModelConfig {
        hops,
        adaptive,
        ..ModelConfig::default()
    });
    let mut rng = SimRng::new(seed);
    for _ in 0..slots {
        m.step(&mut rng);
    }
    println!(
        "{}-hop slotted model, {} ({slots} slots): h = {}, buffers = {:?},",
        hops,
        if adaptive { "EZ-flow" } else { "fixed cw" },
        m.h(),
        m.buffers()
    );
    println!(
        "windows = {:?}, delivered/slot = {:.3}",
        m.windows(),
        m.delivered as f64 / slots as f64
    );
    ExitCode::SUCCESS
}
