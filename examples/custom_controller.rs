//! Writing your own flow controller against the `Controller` trait.
//!
//! The EZ-flow reproduction is also a workbench: any hop-by-hop
//! flow-control idea that actuates `CWmin` can be dropped into the same
//! harness and compared against the paper's mechanism on the same
//! topologies. This example implements a deliberately naive
//! "overhear-rate" controller — it never estimates buffers, it just
//! throttles when it overhears *fewer* forwards than it sends — and races
//! it against EZ-flow on the turbulent 4-hop chain.
//!
//! ```text
//! cargo run --release --example custom_controller
//! ```

use ezflow::net::controller::ControllerFactory;
use ezflow::prelude::*;

/// Throttle when the successor forwards less than we feed it.
///
/// Every `window` acknowledged sends, compare with how many forwards we
/// overheard from the successor in the same span: if the successor kept
/// up, halve `CWmin` (down to 16); if it fell behind by more than 20%,
/// double it (up to 2^15). No buffer estimation, no message passing —
/// but also none of EZ-flow's precision, as the output shows.
struct OverhearRate {
    window: u32,
    sent: u32,
    overheard: u32,
    successor: Option<usize>,
    cw: u32,
}

impl OverhearRate {
    fn new() -> Self {
        OverhearRate {
            window: 50,
            sent: 0,
            overheard: 0,
            successor: None,
            cw: 32,
        }
    }
}

impl Controller for OverhearRate {
    fn on_event(&mut self, _now: Time, event: ControllerEvent<'_>) -> Reaction {
        match event {
            ControllerEvent::SentToSuccessor { successor, frame } => {
                self.successor = Some(successor);
                if successor == frame.final_dst {
                    // Sink successor consumes instantly: count it as kept-up.
                    self.overheard += 1;
                }
                self.sent += 1;
                if self.sent < self.window {
                    return Reaction::default();
                }
                let ratio = self.overheard as f64 / self.sent as f64;
                self.sent = 0;
                self.overheard = 0;
                let new = if ratio < 0.8 {
                    (self.cw * 2).min(32_768)
                } else {
                    (self.cw / 2).max(16)
                };
                // Only the window: no buffer estimate, no audit record.
                let cw = (new != self.cw).then(|| {
                    self.cw = new;
                    new
                });
                Reaction {
                    cw,
                    ..Reaction::default()
                }
            }
            ControllerEvent::Overheard { frame } => {
                if Some(frame.src) == self.successor {
                    self.overheard += 1;
                }
                Reaction::default()
            }
        }
    }

    fn name(&self) -> &'static str {
        "overhear-rate"
    }
}

fn main() {
    let secs = 600;
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    let topo = chain(4, Time::ZERO, until);

    let entries: Vec<(&str, ControllerFactory)> = vec![
        (
            "802.11",
            Box::new(|_| Box::new(FixedController::standard())),
        ),
        (
            "EZ-flow",
            Box::new(|_| Box::new(EzFlowController::with_defaults())),
        ),
        (
            "overhear-rate (this example)",
            Box::new(|_| Box::new(OverhearRate::new())),
        ),
    ];

    println!("4-hop chain shoot-out, {secs} s\n");
    for (name, make) in entries {
        let mut net = Network::from_topology(&topo, 11, &*make);
        net.run_until(until);
        let kbps = net.metrics.mean_kbps(0, half, until);
        let delay = net.metrics.delay_net[&0].window(half, until).mean;
        let b1 = net.metrics.buffer[1].window(half, until).mean;
        println!(
            "{name:>28}: {kbps:6.1} kb/s, delay {delay:5.2} s, b1 {b1:5.1} pkts, cw0 {}",
            net.cw_min(0)
        );
    }
    println!("\nthe naive rate controller helps, but EZ-flow's exact buffer");
    println!("estimates let it hold queues near zero at higher throughput.");
}
