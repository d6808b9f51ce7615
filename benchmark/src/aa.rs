//! A/A comparison: the same build measured as "set A" and "set B",
//! alternating, to show that the benchmark's own run-to-run difference
//! sits well inside the bounds it will later hold changes to.

use ezflow_sim::JsonValue;

use crate::cli::{spawn_pass, Args};
use crate::estimator::median;
use crate::metrics::END_TO_END;
use crate::workload::WORKLOADS;

/// Relative distance between two medians, as a share of the first.
pub fn gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

/// Runs the untraced benchmark `2 * n` times, alternating which set goes
/// first, and prints both medians, their gap and the bound per
/// workload/metric as a Markdown table. `Ok(false)` when any gap exceeds
/// half its bound or any run was incorrect.
pub fn run(args: &Args, n: usize) -> Result<bool, String> {
    // samples[set][workload][metric] -> one value per round
    let mut samples = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut all_correct = true;
    for round in 0..n {
        for set in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let result = spawn_pass(args, workload.name, false, false)?;
                all_correct &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = result
                        .get("metrics")
                        .and_then(|ms| ms.get(metric.name))
                        .and_then(|v| v.get("value"))
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{}/{}: no value", workload.name, metric.name))?;
                    samples[set][w][m].push(value);
                }
                eprintln!(
                    "round {} set {} {} done",
                    round + 1,
                    ["A", "B"][set],
                    workload.name
                );
            }
        }
    }

    println!("| workload/metric | unit | median A | median B | gap | allowed (bound / 2) | |");
    println!("|---|---|---|---|---|---|---|");
    let mut within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&samples[0][w][m]), median(&samples[1][w][m]));
            let allowed = metric.bound.expect("end-to-end metrics carry bounds") / 2.0;
            let g = gap(a, b);
            let ok = g <= allowed;
            within &= ok;
            println!(
                "| {}/{} | {} | {a} | {b} | {:.3} % | {:.1} % | {} |",
                workload.name,
                metric.name,
                metric.unit,
                100.0 * g,
                100.0 * allowed,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    println!();
    println!(
        "{n} round(s) per set, seed {}, {} s per pass: {}{}",
        args.seed,
        args.seconds,
        if within {
            "every gap within half its bound"
        } else {
            "GAPS EXCEED HALF THEIR BOUND"
        },
        if all_correct { "" } else { "; INCORRECT RUNS" }
    );
    Ok(within && all_correct)
}

#[cfg(test)]
mod tests {
    use super::gap;

    #[test]
    fn gap_is_relative_to_the_first_median() {
        assert_eq!(gap(2.0, 2.0), 0.0);
        assert_eq!(gap(0.0, 0.0), 0.0);
        assert!((gap(100.0, 104.0) - 0.04).abs() < 1e-12);
        assert!((gap(100.0, 96.0) - 0.04).abs() < 1e-12);
    }
}
