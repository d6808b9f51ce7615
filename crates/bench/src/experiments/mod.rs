//! The experiment implementations, one module per paper artifact.
//!
//! See DESIGN.md §5 for the experiment index mapping each module to the
//! figure/table it regenerates.

pub mod ablations;
pub mod analysis_exps;
pub mod fig1;
pub mod fig4;
pub mod scenario1;
pub mod scenario2;
pub mod seeds;
pub mod spec;
pub mod table1;
pub mod table2;

use ezflow_core::EzFlowController;
use ezflow_net::controller::{ControllerFactory, FixedController};
use ezflow_net::Network;
use ezflow_sim::Time;

use crate::report::{Report, Scale};

/// Which flow-control algorithm a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Plain IEEE 802.11 (the paper's baseline).
    Plain,
    /// EZ-flow with the paper's simulation parameters.
    EzFlow,
    /// EZ-flow with the testbed's MadWifi `CWmin <= 2^10` clamp.
    EzFlowTestbed,
}

impl Algo {
    /// Per-node controller factory (`Send + Sync`, so one factory can be
    /// handed to the sweep runner's worker threads).
    pub fn factory(self) -> ControllerFactory {
        match self {
            Algo::Plain => Box::new(|_| Box::new(FixedController::standard())),
            Algo::EzFlow => Box::new(|_| Box::new(EzFlowController::with_defaults())),
            Algo::EzFlowTestbed => {
                Box::new(|_| Box::new(EzFlowController::new(ezflow_core::EzFlowConfig::testbed())))
            }
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Plain => "802.11",
            Algo::EzFlow => "EZ-flow",
            Algo::EzFlowTestbed => "EZ-flow (2^10 cap)",
        }
    }

    /// Resolves a controller name from a scenario spec's `sweep.controllers`
    /// list. Accepts the display name, its file stem and the obvious aliases;
    /// `None` means the spec names a controller this harness doesn't have.
    pub fn from_name(name: &str) -> Option<Algo> {
        match name {
            "802.11" | "80211" | "plain" | "dcf" => Some(Algo::Plain),
            "EZ-flow" | "ez-flow" | "ezflow" => Some(Algo::EzFlow),
            "EZ-flow (2^10 cap)" | "EZ-flow2^10cap" | "ezflow-testbed" => Some(Algo::EzFlowTestbed),
            _ => None,
        }
    }
}

/// Windowed Jain fairness of `flows` over `[from, to)`: each metric bin
/// yields the flows' per-bin throughputs and a Jain index; the returned
/// pair is the *minimum* (the fairness floor a mean would hide) and the
/// mean across bins. Bins in which no listed flow moved a bit are
/// skipped; with no scored bins both values degenerate to 1.0.
pub fn fairness_windows(net: &Network, flows: &[u32], from: Time, to: Time) -> (f64, f64) {
    let bin = ezflow_net::Metrics::BIN;
    let (mut t, mut min, mut sum, mut n) = (from, f64::INFINITY, 0.0f64, 0u32);
    while t + bin <= to {
        let kb: Vec<f64> = flows
            .iter()
            .map(|f| net.metrics.mean_kbps(*f, t, t + bin))
            .collect();
        if kb.iter().any(|&k| k > 0.0) {
            let fi = ezflow_stats::jain_index(&kb);
            min = min.min(fi);
            sum += fi;
            n += 1;
        }
        t += bin;
    }
    if n == 0 {
        (1.0, 1.0)
    } else {
        (min, sum / n as f64)
    }
}

/// Runs every experiment at `scale`, in index order.
pub fn run_all(scale: Scale) -> Vec<Report> {
    vec![
        fig1::run(scale),
        table1::run(scale),
        fig4::run(scale),
        table2::run(scale),
        scenario1::run(scale),
        scenario2::run(scale),
        analysis_exps::table4(scale),
        analysis_exps::theorem1(scale),
        ablations::run(scale),
        seeds::run(scale),
    ]
}

/// Experiment ids accepted by the CLI, each resolved to its runner without
/// running it — so a command line can be rejected whole (`None`: unknown
/// id) before its first experiment starts.
pub fn by_id(id: &str) -> Option<fn(Scale) -> Vec<Report>> {
    let run: fn(Scale) -> Vec<Report> = match id {
        "fig1" => |scale| vec![fig1::run(scale)],
        "table1" => |scale| vec![table1::run(scale)],
        "fig4" => |scale| vec![fig4::run(scale)],
        "table2" => |scale| vec![table2::run(scale)],
        "fig6" | "fig7" | "fig8" | "scenario1" => |scale| vec![scenario1::run(scale)],
        "fig10" | "fig11" | "table3" | "scenario2" => |scale| vec![scenario2::run(scale)],
        "table4" => |scale| vec![analysis_exps::table4(scale)],
        "theorem1" => |scale| vec![analysis_exps::theorem1(scale)],
        "ablations" => |scale| vec![ablations::run(scale)],
        "seeds" => |scale| vec![seeds::run(scale)],
        "all" => run_all,
        _ => return None,
    };
    Some(run)
}
