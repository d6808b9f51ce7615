//! Planar geometry for node placement, and the one spatial index of the
//! workspace: [`neighbors_within`], a uniform-grid walk that answers
//! "who is within range r of whom" for a whole layout in time linear in
//! the nodes (at bounded density — [`distance_tests`] counts the work
//! beforehand, and [`MAX_DISTANCE_TESTS`] bounds it), emitting rows in
//! the packed form ([`Neighbors`]) their readers keep them in.

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

/// Per node, its neighbours within some range, packed CSR: one `offsets`
/// array, one `ids` array, no per-row allocation. The relation is the one
/// [`neighbors_within`] builds, and every constructor upholds the same
/// invariant — row `i` lists node ids **ascending**, never `i` itself,
/// and `j` is in row `i` iff `i` is in row `j` — so a reader that depends
/// on visiting order (the gateway BFS tie-break, the loss-model RNG
/// order) may take it from the type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Neighbors {
    /// `offsets[i]..offsets[i + 1]` is row `i` in `ids`; `len() + 1` long.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

/// Top bit of a row entry built by [`neighbors_within_marking`]: the
/// caller's predicate held for that pair. The low 31 bits are the id.
pub const MARK: u32 = 1 << 31;

impl Neighbors {
    /// Number of nodes (rows).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `i`'s row: ascending ids, each possibly carrying [`MARK`].
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Where node `i`'s row starts among all rows' entries: a side table
    /// aligned with the rows keeps entry `k` of row `i` at
    /// `row_start(i) + k`.
    #[inline]
    pub(crate) fn row_start(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Packs hand-written rows, panicking unless they are ascending,
    /// self-free and symmetric — for graphs that do not come from a
    /// layout (tests of the readers, mostly).
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut ids = Vec::new();
        offsets.push(0);
        for (i, row) in rows.iter().enumerate() {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i} not ascending");
            for &j in row {
                assert!(j as usize != i, "row {i} lists itself");
                let back = rows
                    .get(j as usize)
                    .is_some_and(|r| r.contains(&(i as u32)));
                assert!(back, "{i} lists {j} but not back");
            }
            ids.extend_from_slice(row);
            offsets.push(u32::try_from(ids.len()).expect("entries fit the offsets"));
        }
        Neighbors { offsets, ids }
    }

    /// The [`MARK`]ed entries of every row, mark cleared. A symmetric
    /// predicate (any function of the distance) keeps the invariant.
    pub fn marked(&self) -> Neighbors {
        // Counted first so the table is allocated once at its final size;
        // the store is unconditional (one spare slot takes the last miss)
        // because a ~20 % hit rate is a coin the branch predictor loses.
        let marked: usize = self.ids.iter().map(|&e| (e >> 31) as usize).sum();
        let mut ids = vec![0; marked + 1];
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut len = 0;
        offsets.push(0);
        for i in 0..self.len() {
            for &e in self.row(i) {
                ids[len] = e & !MARK;
                len += (e >> 31) as usize;
            }
            offsets.push(len as u32);
        }
        ids.truncate(marked);
        Neighbors { offsets, ids }
    }
}

/// Relative margin by which a grid cell is wider than the range it
/// serves. A pair passes [`Position::within`] when its *rounded* squared
/// distance is at most the rounded `range²`, so it can be a few 1e-16
/// (relative) farther apart than `range` on one axis; and each node's
/// cell coordinate `(x − min_x) / side` carries two roundings, ≤ 2⁻⁵² of
/// a value of at most [`MAX_AXIS_CELLS`], together ≤ 4.7e-10 cells for the
/// pair. With the cell 1e-9 wider than the range, two nodes in range sit
/// at most `1 − 1e-9 + 4.7e-10 < 1` cell coordinates apart, hence in the
/// same or adjacent cells — including the lattice-snapped pairs at
/// exactly 250 m / 550 m, which a cell of exactly `range` can put two
/// cells apart.
const CELL_MARGIN: f64 = 1e-9;

/// Most cells a grid may have, hence also along one axis (which is what
/// [`CELL_MARGIN`]'s rounding bound is proportional to). Only a layout of
/// over a million nodes meets it: cells never outnumber nodes.
const MAX_AXIS_CELLS: f64 = (1u32 << 20) as f64;

/// Most distance tests [`neighbors_within`] will make — the density
/// budget. [`distance_tests`] is both the walk's exact work and an upper
/// bound on the row entries it can emit, so 2²⁷ caps a row table at
/// 512 MB however the nodes are placed. The committed meshes (6.4·10⁻⁵
/// nodes/m²) cost ≈220 tests per node at their 620 m carrier-sense
/// range: 2²¹·⁷ at 16,384 nodes (a 39th of the budget), 2²⁵·⁸ at the
/// 262,144-node spec ceiling (under half of it), while 65,536 nodes
/// inside one 300 m cell ask for 2³². It also bounds a neighbourhood:
/// a node and its `m` neighbours share one 3×3 block, whose cells alone
/// cost `Σ occupancy² ≥ (m + 1)² / 9` tests, so `m < 34,755`. A constant,
/// not a knob: above it a layout is an error, below it nothing changes.
pub const MAX_DISTANCE_TESTS: u64 = 1 << 27;

/// One node in cell-sorted order.
#[derive(Clone, Copy)]
struct Slot {
    at: Position,
    id: u32,
}

/// Nodes bucketed into a uniform grid whose cells are at least
/// `range · (1 + CELL_MARGIN)` on a side, so everything within `range`
/// of a node lies in the 3×3 block of cells around its own.
struct Grid {
    cols: usize,
    rows: usize,
    /// `start[c]..start[c + 1]` are cell `c`'s slots (cells row-major).
    start: Vec<u32>,
    /// The nodes counting-sorted by cell, ascending id within a cell, so
    /// one cell-row of a block is one contiguous run.
    slots: Vec<Slot>,
}

impl Grid {
    fn new(positions: &[Position], range: f64) -> Grid {
        let n = positions.len();
        assert!(n <= MARK as usize, "node ids must fit 31 bits");
        let (mut min, mut max) = (
            Position::new(f64::INFINITY, f64::INFINITY),
            Position::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for p in positions {
            min = Position::new(min.x.min(p.x), min.y.min(p.y));
            max = Position::new(max.x.max(p.x), max.y.max(p.y));
        }
        // `within` squares the range, so its sign is irrelevant there.
        let side = range.abs() * (1.0 + CELL_MARGIN);
        // Never more cells than nodes: two nodes 10⁹ m apart must not
        // allocate 10¹³ empty cells. Widening a cell is always sound, so
        // shrink the cell counts (keeping the aspect) and stretch the
        // cells to cover the extent. `f64::min`/`max` drop a NaN, and a
        // zero-extent axis (a chain) or an empty slice yields one cell.
        let most = (n.max(1) as f64).min(MAX_AXIS_CELLS);
        let along = |extent: f64| ((extent / side).floor() + 1.0).min(most).max(1.0);
        let (mut cols, mut rows) = (along(max.x - min.x), along(max.y - min.y));
        if cols * rows > most {
            let shrink = (most / (cols * rows)).sqrt();
            cols = (cols * shrink).floor().max(1.0);
            rows = (rows * shrink).floor().max(1.0);
        }
        let (side_x, side_y) = (
            ((max.x - min.x) / cols).max(side),
            ((max.y - min.y) / rows).max(side),
        );
        let (cols, rows) = (cols as usize, rows as usize);
        // The float-to-int cast saturates (NaN to 0), and the far edge of
        // a stretched axis lands one past the last cell: clamp both in.
        let cell_of = |p: &Position| {
            let cx = (((p.x - min.x) / side_x) as usize).min(cols - 1);
            let cy = (((p.y - min.y) / side_y) as usize).min(rows - 1);
            cy * cols + cx
        };
        let cells: Vec<u32> = positions.iter().map(|p| cell_of(p) as u32).collect();
        let mut start = vec![0u32; cols * rows + 1];
        for &c in &cells {
            start[c as usize + 1] += 1;
        }
        for c in 0..cols * rows {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut slots = vec![
            Slot {
                at: Position::default(),
                id: 0
            };
            n
        ];
        for (id, (&c, &at)) in cells.iter().zip(positions).enumerate() {
            let id = id as u32;
            slots[next[c as usize] as usize] = Slot { at, id };
            next[c as usize] += 1;
        }
        Grid {
            cols,
            rows,
            start,
            slots,
        }
    }

    /// The slots of the 3×3 block around cell `(cx, cy)`: one contiguous
    /// run per cell-row, clipped at the grid's edges.
    fn block(&self, cx: usize, cy: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let (lo, hi) = (cx.saturating_sub(1), (cx + 1).min(self.cols - 1));
        (cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1)).map(move |row| {
            let row = row * self.cols;
            self.start[row + lo] as usize..self.start[row + hi + 1] as usize
        })
    }

    /// Σ over cells of `occupancy(cell) · occupancy(its 3×3 block)`.
    fn tests(&self) -> u64 {
        let mut total = 0;
        for cy in 0..self.rows {
            for cx in 0..self.cols {
                let c = cy * self.cols + cx;
                let here = u64::from(self.start[c + 1] - self.start[c]);
                let around: usize = self.block(cx, cy).map(|run| run.len()).sum();
                total += here * around as u64;
            }
        }
        total
    }
}

/// How many pairwise distance tests [`neighbors_within`] makes on this
/// layout — its exact work, and an upper bound on the row entries it can
/// emit — counted in O(N + cells) without building a row. The walk
/// panics above [`MAX_DISTANCE_TESTS`]; a caller fed from outside the
/// program checks this first and reports an error instead.
pub fn distance_tests(positions: &[Position], range: f64) -> u64 {
    Grid::new(positions, range).tests()
}

/// Per node, the other nodes [`Position::within`] `range` meters of it.
/// Every "who is in range of whom" decision in the workspace (the
/// channel's carrier-sense and decode rows, the scenario compiler's
/// routing graph) is this one walk.
pub fn neighbors_within(positions: &[Position], range: f64) -> Neighbors {
    neighbors_within_marking(positions, range, |_| false)
}

/// [`neighbors_within`], with [`MARK`] set on the entries whose squared
/// distance satisfies `mark` — a second, inner range decided from the
/// `d²` the walk already holds. `d²` is exactly symmetric, so row `i`
/// marks `j` iff row `j` marks `i`.
///
/// A uniform-grid walk, linear in nodes at bounded density
/// ([`distance_tests`] is its cost):
///
/// 1. counting-sort the nodes into cells at least `range` wide (`Grid`);
/// 2. per node, test the 3×3 block's three contiguous runs with the
///    literal [`Position::within`] arithmetic — which is what makes the
///    relation exactly symmetric — storing every candidate and advancing
///    only on a hit: a block has a ≈35 % hit rate, which a branch
///    mispredicts at ≈7 ns a candidate where the all-pairs scan (1 % hits)
///    never did, and that alone made the obvious grid *slower* than the
///    scan at 1,024 nodes;
/// 3. the rows so gathered are in cell order, not id order; instead of
///    sorting each, transpose: for ascending `a`, append `a` to the row
///    of each of its neighbours. The relation is symmetric, so every row
///    comes out complete and ascending with no comparison made.
///
/// A layout that fits one cell degenerates to the all-pairs scan by
/// itself; nothing selects between the two.
pub fn neighbors_within_marking(
    positions: &[Position],
    range: f64,
    mark: impl Fn(f64) -> bool,
) -> Neighbors {
    let n = positions.len();
    let grid = Grid::new(positions, range);
    let tests = grid.tests();
    assert!(
        tests <= MAX_DISTANCE_TESTS,
        "layout too dense: {tests} distance tests, over the budget of {MAX_DISTANCE_TESTS}"
    );
    let limit = range * range;
    // Gathered rows, back to back in slot order. At uniform density a
    // block's hit rate is π/9; a clustered layout grows the buffer.
    let mut found: Vec<u32> = Vec::with_capacity(tests as usize / 2);
    // One node's candidates (a block holds at most everyone): every test
    // stores, only a hit advances.
    let mut hits = vec![0u32; n];
    // Per node id: where its gathered row sits in `found`.
    let mut gathered = vec![0usize..0; n];
    for cy in 0..grid.rows {
        for cx in 0..grid.cols {
            let c = cy * grid.cols + cx;
            for me in &grid.slots[grid.start[c] as usize..grid.start[c + 1] as usize] {
                let mut len = 0;
                for run in grid.block(cx, cy) {
                    for other in &grid.slots[run] {
                        let d2 = me.at.distance_sq(&other.at);
                        hits[len] = other.id | (u32::from(mark(d2)) << 31);
                        len += usize::from((d2 <= limit) & (other.id != me.id));
                    }
                }
                gathered[me.id as usize] = found.len()..found.len() + len;
                found.extend_from_slice(&hits[..len]);
            }
        }
    }
    let len = found.len();
    let mut offsets = vec![0u32; n + 1];
    for (a, row) in gathered.iter().enumerate() {
        offsets[a + 1] = offsets[a] + row.len() as u32;
    }
    let mut next = offsets.clone();
    let mut ids = vec![0u32; len];
    for (a, row) in gathered.into_iter().enumerate() {
        for &entry in &found[row] {
            let slot = &mut next[(entry & !MARK) as usize];
            ids[*slot as usize] = a as u32 | (entry & MARK);
            *slot += 1;
        }
    }
    debug_assert!(next[..n] == offsets[1..], "the relation must be symmetric");
    Neighbors { offsets, ids }
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
        let rows = neighbors_within(&ps, 250.0);
        assert_eq!(rows.len(), ps.len());
        let mut on_boundary = 0;
        for s in 0..ps.len() {
            let scan: Vec<u32> = (0..ps.len())
                .filter(|&r| r != s && ps[s].within(&ps[r], 250.0))
                .map(|r| r as u32)
                .collect();
            assert_eq!(rows.row(s), scan, "row {s}: ascending, self-free, complete");
            for &r in rows.row(s) {
                let r = r as usize;
                assert!(
                    rows.row(r).contains(&(s as u32)),
                    "{s} lists {r} but not back"
                );
                on_boundary += usize::from(ps[s].distance_sq(&ps[r]) == 250.0 * 250.0);
            }
        }
        assert!(on_boundary > 0, "layout must exercise the inclusive edge");
        assert!(neighbors_within(&[], 250.0).is_empty());
    }

    /// The triangular all-pairs scan the grid walk replaced, kept as its
    /// oracle: rows ascending, self-free, symmetric by construction.
    fn scan_within(positions: &[Position], range: f64) -> Vec<Vec<u32>> {
        let n = positions.len();
        let mut rows = vec![Vec::new(); n];
        for a in 0..n {
            for b in (a + 1)..n {
                if positions[a].within(&positions[b], range) {
                    rows[a].push(b as u32);
                    rows[b].push(a as u32);
                }
            }
        }
        rows
    }

    /// Asserts the walk's rows at `range`, marked at `inner`, equal the
    /// scan's exactly; returns how many entries sit at exactly `range`.
    fn assert_matches_scan(ps: &[Position], range: f64, inner: f64) -> usize {
        let rows = neighbors_within_marking(ps, range, |d2| d2 <= inner * inner);
        let scan = scan_within(ps, range);
        assert_eq!(rows.len(), ps.len());
        let mut on_boundary = 0;
        for (s, want) in scan.iter().enumerate() {
            let got: Vec<u32> = rows.row(s).iter().map(|e| e & !MARK).collect();
            assert_eq!(&got, want, "row {s} of {} at {range} m", ps.len());
            for &e in rows.row(s) {
                let r = (e & !MARK) as usize;
                assert_eq!(
                    e & MARK != 0,
                    ps[s].within(&ps[r], inner),
                    "mark of {s}->{r} at {inner} m"
                );
                on_boundary += usize::from(ps[s].distance_sq(&ps[r]) == range * range);
            }
        }
        // The packed form round-trips through the checked constructor,
        // and the marked sub-relation is the scan at the inner range.
        assert_eq!(Neighbors::from_rows(&scan), neighbors_within(ps, range));
        if inner <= range {
            assert_eq!(rows.marked(), Neighbors::from_rows(&scan_within(ps, inner)));
        }
        let cells = Grid::new(ps, range).start.len() - 1;
        assert!(
            cells <= ps.len().max(1),
            "{cells} cells for {} nodes",
            ps.len()
        );
        on_boundary
    }

    const RANGES: [f64; 4] = [250.0, 550.0, 1e-3, 1e7];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// The grid against the scan on the geometry that breaks grids:
        /// co-located nodes, zero-extent bounding boxes (collinear on
        /// either axis), one node, negative coordinates, two clusters
        /// 10⁹ m apart (the cell cap), generic scatter at four decades of
        /// density, and ranges from a millimetre to 10,000 km.
        #[test]
        fn grid_walk_matches_the_scan(
            layout in proptest::prelude::prop_oneof![
                // Everyone in one spot (possibly a negative one).
                proptest::prelude::Strategy::prop_map(
                    (0usize..40, 0.0f64..2000.0, 0.0f64..2000.0),
                    |(n, x, y)| vec![(x - 1000.0, y - 1000.0); n],
                ),
                // Collinear: a zero-extent axis, either one.
                proptest::prelude::Strategy::prop_map(
                    (proptest::collection::vec(0.0f64..4000.0, 1..40),
                     proptest::prelude::any::<bool>(), 0.0f64..100.0),
                    |(along, vertical, at)| along.into_iter()
                        .map(|t| if vertical { (at, t - 2000.0) } else { (t - 2000.0, at) })
                        .collect(),
                ),
                // Generic scatter around the origin, sparse to dense.
                proptest::prelude::Strategy::prop_map(
                    (proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60), 0u32..4),
                    |(unit, decade)| {
                        let side = 30.0 * 10f64.powi(decade as i32);
                        unit.into_iter().map(|(x, y)| ((x - 0.5) * side, (y - 0.5) * side)).collect()
                    },
                ),
                // Two clusters 10⁹ m apart, on a diagonal.
                proptest::prelude::Strategy::prop_map(
                    proptest::collection::vec(
                        (0.0f64..600.0, 0.0f64..600.0, proptest::prelude::any::<bool>()), 2..30),
                    |pts| pts.into_iter()
                        .map(|(x, y, far)| if far { (x + 1e9, y + 1e9) } else { (x, y) })
                        .collect(),
                ),
            ],
            range in 0usize..4,
            inner in 0usize..4,
        ) {
            let ps: Vec<Position> = layout.iter().map(|&(x, y)| Position::new(x, y)).collect();
            assert_matches_scan(&ps, RANGES[range], RANGES[inner]);
        }

        /// Lattices whose spacing is `range / k`, so pairs at exactly
        /// `range` straddle cell boundaries. One axis starts from a
        /// fine-grained origin, so its coordinates — and with them the
        /// cell coordinates — round; the other stays on whole meters, so
        /// a full line along it holds pairs at exactly `range²`.
        #[test]
        fn grid_walk_keeps_pairs_at_exactly_the_range(
            range in 0usize..2,
            k in 0usize..3,
            side in 3usize..9,
            origin in (0u32..2000, 0u32..20),
            swap in proptest::prelude::any::<bool>(),
            keep in proptest::collection::vec(proptest::prelude::any::<bool>(), 64),
        ) {
            let (range, k) = (RANGES[range], [1.0, 2.0, 5.0][k]);
            let step = range / k;
            let (fine, whole) = (origin.0 as f64 * 0.137, origin.1 as f64 * 50.0 - 500.0);
            let ps: Vec<Position> = (0..side * side)
                .filter(|&i| i % side == 0 || keep[i % 64])
                .map(|i| (fine + (i % side) as f64 * step, whole + (i / side) as f64 * step))
                .map(|(u, v)| if swap { Position::new(v, u) } else { Position::new(u, v) })
                .collect();
            let on_boundary = assert_matches_scan(&ps, range, 250.0);
            proptest::prelude::prop_assert!(side <= k as usize || on_boundary > 0);
        }
    }

    /// Why the cell is wider than the range (`CELL_MARGIN`): three nodes
    /// 250 m apart on a line from x = 20.0137. The middle one's offset
    /// from the origin rounds to just under 250, the last one's to
    /// exactly 500 — two cells of exactly 250 m apart — while their own
    /// distance is exactly 250 m.
    #[test]
    fn a_pair_at_exactly_the_range_is_kept_across_two_roundings() {
        let ps: Vec<Position> = (0..3)
            .map(|i| Position::new(20.0137 + i as f64 * 250.0, 0.0))
            .collect();
        let naive_cell = |p: &Position| ((p.x - ps[0].x) / 250.0).floor();
        assert_eq!((naive_cell(&ps[1]), naive_cell(&ps[2])), (0.0, 2.0));
        assert_eq!(ps[1].distance_sq(&ps[2]), 250.0 * 250.0);
        assert_eq!(assert_matches_scan(&ps, 250.0, 250.0), 2);
    }

    /// Set-up work is linear, as an exact count: at the benchmark meshes'
    /// density the walk's distance tests per node are flat from 2,048 to
    /// 32,768 nodes (the drift is the shrinking share of edge cells),
    /// where the triangular scan's quadruple with every step. The
    /// regression guard for "set-up does not grow with the square of the
    /// network", with no timing in it.
    #[test]
    fn distance_tests_per_node_do_not_grow_with_the_network() {
        const DENSITY: f64 = 6.4e-5; // nodes per m²: mesh1k, mesh6k, mesh16k
        let per_node = |n: usize| {
            let side = (n as f64 / DENSITY).sqrt();
            let mut rng = ezflow_sim::SimRng::new(7);
            let ps: Vec<Position> = (0..n)
                .map(|_| Position::new(rng.gen_f64() * side, rng.gen_f64() * side))
                .collect();
            let tests = distance_tests(&ps, 550.0);
            let rows = neighbors_within(&ps, 550.0);
            let entries: usize = (0..n).map(|i| rows.row(i).len()).sum();
            assert!(tests >= (entries + n) as u64, "the count bounds the rows");
            tests as f64 / n as f64
        };
        let (small, mid, large) = (per_node(2_048), per_node(8_192), per_node(32_768));
        for (n, got) in [(2_048, small), (32_768, large)] {
            assert!(
                (got / mid - 1.0).abs() <= 0.10,
                "{got:.1} tests per node at {n} nodes vs {mid:.1} at 8,192"
            );
        }
        // The scan tests every pair once: (n − 1) / 2 per node.
        assert!(
            large * 90.0 < 32_767.0 / 2.0,
            "{large:.1} per node at 32,768"
        );
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
