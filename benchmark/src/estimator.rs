//! The timing estimator: the *stitched minimum*.
//!
//! The simulator is deterministic, so when every repetition of a
//! workload is cut into the same fixed segments, segment `i` does
//! identical work in every repetition and contention from the host can
//! only *add* time to it. The per-segment minimum over the repetitions is
//! therefore the best available reading of that segment's cost, and the
//! sum of those minima — the stitched minimum — a reading of the whole
//! pipeline that one noisy stretch in one repetition cannot move.

/// Per-segment minimum over `reps` (one row per repetition, one column
/// per segment, nanoseconds). Fails when the rows disagree on the segment
/// count: the estimator is only meaningful when segment `i` is the same
/// work in every row.
pub fn stitched_min<R: AsRef<[u64]>>(reps: &[R]) -> Result<Vec<u64>, String> {
    let first = reps.first().ok_or("no repetitions to stitch")?;
    let mut mins = first.as_ref().to_vec();
    for (r, row) in reps.iter().enumerate().skip(1) {
        let row = row.as_ref();
        if row.len() != mins.len() {
            return Err(format!(
                "repetition {r} has {} segments, repetition 0 has {}",
                row.len(),
                mins.len()
            ));
        }
        for (m, &v) in mins.iter_mut().zip(row) {
            *m = (*m).min(v);
        }
    }
    Ok(mins)
}

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    ezflow_stats::percentile(values, 0.5).unwrap_or(f64::NAN)
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stitched_min_takes_each_column_minimum() {
        // Rep 1 is slow in segment 0, rep 0 in segment 2: no single rep
        // is the best everywhere, the stitched row is.
        let reps = vec![vec![10, 20, 90], vec![50, 21, 30], vec![11, 25, 31]];
        let mins = stitched_min(&reps).unwrap();
        assert_eq!(mins, vec![10, 20, 30]);
        let best_whole_rep: u64 = reps.iter().map(|r| r.iter().sum()).min().unwrap();
        assert!(mins.iter().sum::<u64>() < best_whole_rep);
    }

    #[test]
    fn stitched_min_rejects_ragged_reps() {
        let err = stitched_min(&[vec![1, 2, 3], vec![1, 2]]).unwrap_err();
        assert!(err.contains("repetition 1 has 2 segments"), "{err}");
        assert!(stitched_min::<Vec<u64>>(&[]).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
