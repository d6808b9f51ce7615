//! The four workloads and the spec generator.
//!
//! A workload is a spec *template* (`workloads/<name>.json`, embedded at
//! build time) plus the harness-side switches the spec schema has no
//! field for (which observers to arm). The generator substitutes the
//! benchmark seed into the template; the simulator only ever sees the
//! generated text.

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The spec template, with `{{seed}}` / `{{seed+1}}` placeholders.
    pub template: &'static str,
    /// Arm telemetry (100 ms), the flight recorder (4 096 journeys) and
    /// the audit ledger, and write their JSONL exports with the report.
    pub observers: bool,
    /// Check the paper's Fig. 6 separation: the EZ-flow point's mean
    /// first-relay queue must be below the 802.11 point's.
    pub regime_check: bool,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_chain",
        why: "Paper scenario 1, 802.11 vs EZ-flow, observers off: scheduler + MAC + controller cost per frame; set-up and report under 0.1 % of wall, so set-up or report work must not move it.",
        template: include_str!("../workloads/paper_chain.json"),
        observers: false,
        regime_check: true,
    },
    Workload {
        name: "mesh1k_steady",
        why: "1024-node mesh, 48 mixed flows, 60 s: each frame fans out over a large carrier-sense neighbourhood and the wheel rotates more than it dispatches; the PHY/scheduler-at-scale workload.",
        template: include_str!("../workloads/mesh1k_steady.json"),
        observers: false,
        regime_check: false,
    },
    Workload {
        name: "mesh6k_cold",
        why: "6144-node mesh run for 2 s: compile + build (N^2 channel state, placement, routing) is over half the wall and peak RSS is hundreds of MB; a run-loop gain must not move setup_s here.",
        template: include_str!("../workloads/mesh6k_cold.json"),
        observers: false,
        regime_check: false,
    },
    Workload {
        name: "observed_lossy",
        why: "Scenario-1 topology with PER + Gilbert-Elliott bursts, 2 controllers x 2 seeds, telemetry, flight recorder and audit armed and exported: loss path, observers on, report phases that weigh.",
        template: include_str!("../workloads/observed_lossy.json"),
        observers: true,
        regime_check: false,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The spec text for `seed`: a pure function of `(template, seed)`.
    pub fn spec_text(&self, seed: u64) -> String {
        self.template
            .replace("{{seed+1}}", &seed.wrapping_add(1).to_string())
            .replace("{{seed}}", &seed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_net::ScenarioSpec;

    #[test]
    fn spec_text_is_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            assert_eq!(w.spec_text(42), w.spec_text(42), "{}", w.name);
            assert_ne!(w.spec_text(42), w.spec_text(43), "{}", w.name);
            assert!(!w.spec_text(42).contains("{{"), "{}", w.name);
        }
    }

    #[test]
    fn every_template_parses_and_carries_the_seed() {
        for w in &WORKLOADS {
            let spec = ScenarioSpec::parse(&w.spec_text(1234))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(spec.name, w.name);
            assert_eq!(spec.seed, 1234, "{}", w.name);
        }
        let lossy = ScenarioSpec::parse(&by_name("observed_lossy").unwrap().spec_text(7)).unwrap();
        assert_eq!(lossy.sweep.seeds, vec![7, 8]);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
        assert!(by_name("mesh9k").is_none());
    }
}
