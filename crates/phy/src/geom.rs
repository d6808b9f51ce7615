//! Planar geometry for node placement.

/// A node position in meters on the plane.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Position {
    /// East-west coordinate, meters.
    pub x: f64,
    /// North-south coordinate, meters.
    pub y: f64,
}

impl Position {
    /// Builds a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`, meters.
    pub fn distance(&self, other: &Position) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance (avoids the sqrt in range tests).
    pub fn distance_sq(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// True iff `other` is within `range` meters (inclusive).
    pub fn within(&self, other: &Position, range: f64) -> bool {
        self.distance_sq(other) <= range * range
    }
}

/// Per node, the other nodes [`Position::within`] `range` meters of it:
/// rows ascending, self excluded, symmetric. Every "who is in range of
/// whom" decision in the workspace (carrier-sense and decode rows of the
/// channel, the scenario compiler's routing graph) is a call to this one
/// all-pairs pass, so a spatial index would replace exactly this body.
///
/// The rows come out in the id width `I` the caller keeps them in
/// (`usize` for the routing graph, `u32` for the channel's hot rows), so
/// nobody re-copies them to narrow them; panics if a node id does not
/// fit `I`.
pub fn neighbors_within<I>(positions: &[Position], range: f64) -> Vec<Vec<I>>
where
    I: Copy + TryFrom<usize>,
{
    let n = positions.len();
    let id = |i| I::try_from(i).unwrap_or_else(|_| panic!("node id {i} overflows the row type"));
    let mut rows = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            if positions[a].within(&positions[b], range) {
                rows[a].push(id(b));
                rows[b].push(id(a));
            }
        }
    }
    rows
}

/// Places `n` nodes on a straight east-west line with constant `spacing`
/// meters between neighbours — the canonical K-hop chain of the paper.
pub fn line_positions(n: usize, spacing: f64) -> Vec<Position> {
    (0..n)
        .map(|i| Position::new(i as f64 * spacing, 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn within_is_inclusive() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(250.0, 0.0);
        assert!(a.within(&b, 250.0));
        assert!(!a.within(&b, 249.999));
    }

    #[test]
    fn neighbors_within_matches_the_full_scan() {
        // Random layout with a lattice-snapped half, so pairs at exactly
        // the range (250 m) occur alongside generic ones.
        let mut rng = ezflow_sim::SimRng::new(17);
        let ps: Vec<Position> = (0..80)
            .map(|i| {
                let (x, y) = (rng.gen_f64() * 1500.0, rng.gen_f64() * 1500.0);
                if i % 2 == 0 {
                    Position::new((x / 50.0).round() * 50.0, (y / 50.0).round() * 50.0)
                } else {
                    Position::new(x, y)
                }
            })
            .collect();
        let rows: Vec<Vec<usize>> = neighbors_within(&ps, 250.0);
        assert_eq!(rows.len(), ps.len());
        let mut on_boundary = 0;
        for (s, row) in rows.iter().enumerate() {
            let scan: Vec<usize> = (0..ps.len())
                .filter(|&r| r != s && ps[s].within(&ps[r], 250.0))
                .collect();
            assert_eq!(row, &scan, "row {s}: ascending, self-free, complete");
            for &r in row {
                assert!(rows[r].contains(&s), "{s} lists {r} but not back");
                on_boundary += usize::from(ps[s].distance_sq(&ps[r]) == 250.0 * 250.0);
            }
        }
        assert!(on_boundary > 0, "layout must exercise the inclusive edge");
        assert!(neighbors_within::<usize>(&[], 250.0).is_empty());
    }

    #[test]
    fn line_positions_spacing() {
        let ps = line_positions(5, 200.0);
        assert_eq!(ps.len(), 5);
        for (i, p) in ps.iter().enumerate() {
            assert!((p.x - 200.0 * i as f64).abs() < 1e-12);
            assert_eq!(p.y, 0.0);
        }
        // Paper geometry: 1- and 2-hop neighbours are sensed (<= 550 m),
        // 3-hop neighbours are hidden (> 550 m).
        assert!(ps[0].within(&ps[2], 550.0));
        assert!(!ps[0].within(&ps[3], 550.0));
        // 1-hop neighbours decode (<= 250 m), 2-hop do not.
        assert!(ps[0].within(&ps[1], 250.0));
        assert!(!ps[0].within(&ps[2], 250.0));
    }
}
