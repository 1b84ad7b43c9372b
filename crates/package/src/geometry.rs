//! Parametric geometry of the 28-pad / 12-wire package.
//!
//! Layout (top view, dimensions in meters, z pointing up):
//!
//! ```text
//!   +--------------------------+  ^ y
//!   |  ▭ ▭ ▭ ▭ ▭ ▭ ▭  (North)  |  |
//!   | ▯                      ▯ |  |
//!   | ▯        +------+      ▯ |
//!   | ▯ (West) | chip | (East)▯ |
//!   | ▯        +------+      ▯ |
//!   | ▯                      ▯ |
//!   |  ▭ ▭ ▭ ▭ ▭ ▭ ▭  (South)  |
//!   +--------------------------+ --> x
//! ```
//!
//! Seven pads per side (28 total) extend inward from the package edge; the
//! middle pad of each side is the long variant (4 × 1.261 mm, the paper's
//! "other 4"). Twelve wires connect the chip's top edge to the inner ends
//! of 6 adjacent pad pairs, giving the voltage loop pad → wire → chip →
//! wire → pad driven by ±V_dc on the outer pad ends.

/// Package side, counter-clockwise from the bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// `y = 0` edge.
    South,
    /// `x = width` edge.
    East,
    /// `y = width` edge.
    North,
    /// `x = 0` edge.
    West,
}

impl Side {
    /// All four sides.
    pub const ALL: [Side; 4] = [Side::South, Side::East, Side::North, Side::West];
}

/// One contact pad.
#[derive(Debug, Clone, PartialEq)]
pub struct Pad {
    /// Side the pad belongs to.
    pub side: Side,
    /// Index along the side (0..7).
    pub index: usize,
    /// Axis-aligned box `(lo, hi)` of the pad body.
    pub lo: (f64, f64, f64),
    /// Upper corner of the pad body.
    pub hi: (f64, f64, f64),
    /// Whether this is one of the 4 long pads (1.261 mm).
    pub long: bool,
}

impl Pad {
    /// Nominal wire-bond point: centered on the pad width, at distance `a`
    /// from the inner end, on the pad's top surface (paper Fig. 4a).
    pub fn bond_point(&self, a: f64) -> (f64, f64, f64) {
        let z = self.hi.2;
        match self.side {
            Side::South => (0.5 * (self.lo.0 + self.hi.0), self.hi.1 - a, z),
            Side::North => (0.5 * (self.lo.0 + self.hi.0), self.lo.1 + a, z),
            Side::West => (self.hi.0 - a, 0.5 * (self.lo.1 + self.hi.1), z),
            Side::East => (self.lo.0 + a, 0.5 * (self.lo.1 + self.hi.1), z),
        }
    }

    /// A thin box at the pad's outer end (the externally accessible
    /// contact), used to select PEC nodes.
    pub fn outer_contact_box(&self, depth: f64) -> ((f64, f64, f64), (f64, f64, f64)) {
        match self.side {
            Side::South => (self.lo, (self.hi.0, self.lo.1 + depth, self.hi.2)),
            Side::North => ((self.lo.0, self.hi.1 - depth, self.lo.2), self.hi),
            Side::West => (self.lo, (self.lo.0 + depth, self.hi.1, self.hi.2)),
            Side::East => ((self.hi.0 - depth, self.lo.1, self.lo.2), self.hi),
        }
    }
}

/// A planned wire: which pad it lands on and the two bond points.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlan {
    /// Wire index `0..12`.
    pub wire_id: usize,
    /// Index into [`PackageGeometry::pads`].
    pub pad_index: usize,
    /// Voltage-pair id `0..6`; the two wires of a pair share it.
    pub pair_id: usize,
    /// Bond point on the pad (m).
    pub pad_bond: (f64, f64, f64),
    /// Bond point on the chip edge (m).
    pub chip_bond: (f64, f64, f64),
    /// Direct 3D distance `d` between the bond points (paper Fig. 4a).
    pub direct_distance: f64,
}

/// Parametric package geometry. All lengths in meters.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageGeometry {
    /// Outer mold width (square footprint).
    pub mold_width: f64,
    /// Mold height.
    pub mold_height: f64,
    /// Pad width (0.311 mm, Table in §V-A).
    pub pad_width: f64,
    /// Short pad length (1.01 mm, 24 pads).
    pub pad_length: f64,
    /// Long pad length (1.261 mm, 4 pads).
    pub pad_length_long: f64,
    /// Pad (leadframe) thickness.
    pub pad_thickness: f64,
    /// Bottom z of the pad plane.
    pub pad_z0: f64,
    /// Chip half-width (auto-calibrated by [`PackageGeometry::paper`]).
    pub chip_half_width: f64,
    /// Chip thickness.
    pub chip_thickness: f64,
    /// Bottom z of the chip.
    pub chip_z0: f64,
    /// Nominal bond offset `a` from the pad's inner end (paper Fig. 4a).
    pub bond_offset: f64,
    /// Number of pads per side.
    pub pads_per_side: usize,
}

impl PackageGeometry {
    /// A baseline geometry with the paper's published pad dimensions and
    /// plausible remaining values (see README, "Reproduction choices").
    pub fn baseline() -> Self {
        PackageGeometry {
            mold_width: 6.0e-3,
            mold_height: 0.8e-3,
            pad_width: 0.311e-3,
            pad_length: 1.01e-3,
            pad_length_long: 1.261e-3,
            pad_thickness: 0.15e-3,
            pad_z0: 0.10e-3,
            chip_half_width: 0.8e-3,
            chip_thickness: 0.20e-3,
            chip_z0: 0.10e-3,
            bond_offset: 0.155e-3, // centered: a = pad_width/2
            pads_per_side: 7,
        }
    }

    /// The paper's geometry: [`PackageGeometry::baseline`] with the chip
    /// half-width calibrated (by bisection) so that the *nominal* average
    /// wire length `d̄/(1 − µ_δ)` matches Table II's `L̄ = 1.55 mm` with
    /// `µ_δ = 0.17`.
    pub fn paper() -> Self {
        let mut g = PackageGeometry::baseline();
        let target_mean_d = 1.55e-3 * (1.0 - 0.17);
        let mut lo = 0.3e-3;
        let mut hi = 1.6e-3;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            g.chip_half_width = mid;
            let mean = g.mean_direct_distance();
            // Larger chip → shorter wires.
            if mean > target_mean_d {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        g.chip_half_width = 0.5 * (lo + hi);
        g
    }

    /// Mold box corners.
    pub fn mold_box(&self) -> ((f64, f64, f64), (f64, f64, f64)) {
        (
            (0.0, 0.0, 0.0),
            (self.mold_width, self.mold_width, self.mold_height),
        )
    }

    /// Chip box corners.
    pub fn chip_box(&self) -> ((f64, f64, f64), (f64, f64, f64)) {
        let c = 0.5 * self.mold_width;
        (
            (
                c - self.chip_half_width,
                c - self.chip_half_width,
                self.chip_z0,
            ),
            (
                c + self.chip_half_width,
                c + self.chip_half_width,
                self.chip_z0 + self.chip_thickness,
            ),
        )
    }

    /// All 28 pads, ordered side by side (South, East, North, West), each
    /// side left-to-right along its edge. The middle pad of each side is
    /// the long variant.
    pub fn pads(&self) -> Vec<Pad> {
        let n = self.pads_per_side;
        let w = self.mold_width;
        let pw = self.pad_width;
        // Keep a corner margin so pads of adjacent sides cannot intersect
        // (the perpendicular side's pads reach pad_length_long inward).
        let margin = self.pad_length_long + 0.05e-3;
        let usable = w - 2.0 * margin;
        // Pads evenly spaced within the usable span: n pads, n+1 gaps.
        let gap = (usable - n as f64 * pw) / (n + 1) as f64;
        assert!(
            gap > 0.0,
            "pads do not fit on the package edge (gap = {gap})"
        );
        let z0 = self.pad_z0;
        let z1 = self.pad_z0 + self.pad_thickness;
        let mut pads = Vec::with_capacity(4 * n);
        for &side in &Side::ALL {
            for i in 0..n {
                let long = i == n / 2;
                let len = if long {
                    self.pad_length_long
                } else {
                    self.pad_length
                };
                let c0 = margin + gap + i as f64 * (pw + gap); // start along the edge
                let (lo, hi) = match side {
                    Side::South => ((c0, 0.0, z0), (c0 + pw, len, z1)),
                    Side::North => ((c0, w - len, z0), (c0 + pw, w, z1)),
                    Side::West => ((0.0, c0, z0), (len, c0 + pw, z1)),
                    Side::East => ((w - len, c0, z0), (w, c0 + pw, z1)),
                };
                pads.push(Pad {
                    side,
                    index: i,
                    lo,
                    hi,
                    long,
                });
            }
        }
        pads
    }

    /// Chip-side bond point for a wire from the given pad: the point on the
    /// chip's top-edge closest to the pad bond (projection onto the facing
    /// chip edge, clamped to the edge).
    pub fn chip_bond_for(&self, pad: &Pad) -> (f64, f64, f64) {
        let (clo, chi) = self.chip_box();
        let z = chi.2;
        let pb = pad.bond_point(self.bond_offset);
        match pad.side {
            Side::South => (pb.0.clamp(clo.0, chi.0), clo.1, z),
            Side::North => (pb.0.clamp(clo.0, chi.0), chi.1, z),
            Side::West => (clo.0, pb.1.clamp(clo.1, chi.1), z),
            Side::East => (chi.0, pb.1.clamp(clo.1, chi.1), z),
        }
    }

    /// Minimum spacing between chip-side bonds on the same chip edge (m);
    /// physical bonders keep neighboring balls at least a pad pitch apart,
    /// and coincident bonds would short a wire pair at a single grid node.
    pub const MIN_CHIP_BOND_SEPARATION: f64 = 0.40e-3;

    /// The 12-wire plan: 6 adjacent pad pairs — pads (1,2) on every side
    /// plus pads (4,5) on South and North.
    pub fn wire_plan(&self) -> Vec<WirePlan> {
        let pads = self.pads();
        let n = self.pads_per_side;
        // (side index, pad index) pairs. Deliberately mixed corner/center
        // positions (and pairs touching the long middle pad) so the direct
        // distances vary — the paper's observation that the shortest wires
        // between the closest contacts run hottest needs that spread.
        let pair_slots: [(usize, usize, usize); 6] = [
            (0, 0, 1), // South, near the corner (long wires)
            (0, 3, 4), // South, center (short wires; pad 3 is the long pad)
            (1, 1, 2), // East, off-center
            (2, 2, 3), // North, center
            (2, 5, 6), // North, near the corner
            (3, 2, 3), // West, center
        ];
        let mut plan = Vec::with_capacity(12);
        let mut wire_id = 0;
        for (pair_id, &(s, i0, i1)) in pair_slots.iter().enumerate() {
            for &i in &[i0, i1] {
                let pad_index = s * n + i;
                let pad = &pads[pad_index];
                let pad_bond = pad.bond_point(self.bond_offset);
                let chip_bond = self.chip_bond_for(pad);
                plan.push(WirePlan {
                    wire_id,
                    pad_index,
                    pair_id,
                    pad_bond,
                    chip_bond,
                    direct_distance: 0.0, // set after separation below
                });
                wire_id += 1;
            }
        }
        self.separate_chip_bonds(&mut plan, &pads);
        for w in &mut plan {
            w.direct_distance = dist3(w.pad_bond, w.chip_bond);
        }
        plan
    }

    /// Enforces [`Self::MIN_CHIP_BOND_SEPARATION`] between chip bonds that
    /// share a chip edge: projection-clamped bonds of corner pads would
    /// otherwise coincide at the chip corner (shorting the pair at a single
    /// mesh node and concentrating the heat non-physically).
    fn separate_chip_bonds(&self, plan: &mut [WirePlan], pads: &[Pad]) {
        let (clo, chi) = self.chip_box();
        let sep = Self::MIN_CHIP_BOND_SEPARATION;
        for &side in &Side::ALL {
            // Wires landing on this chip edge, sorted by the coordinate
            // that runs along the edge.
            let mut idxs: Vec<usize> = (0..plan.len())
                .filter(|&i| pads[plan[i].pad_index].side == side)
                .collect();
            let along = |w: &WirePlan| match side {
                Side::South | Side::North => w.chip_bond.0,
                _ => w.chip_bond.1,
            };
            idxs.sort_by(|&a, &b| along(&plan[a]).partial_cmp(&along(&plan[b])).expect("finite"));
            let (lo, hi) = match side {
                Side::South | Side::North => (clo.0, chi.0),
                _ => (clo.1, chi.1),
            };
            // Forward sweep: enforce minimum spacing, then clamp the chain
            // back from the far end if it overran the edge.
            let mut coords: Vec<f64> = idxs.iter().map(|&i| along(&plan[i])).collect();
            for k in 1..coords.len() {
                coords[k] = coords[k].max(coords[k - 1] + sep);
            }
            if let Some(last) = coords.last_mut() {
                *last = last.min(hi);
            }
            for k in (0..coords.len().saturating_sub(1)).rev() {
                coords[k] = coords[k].min(coords[k + 1] - sep);
            }
            for (k, &i) in idxs.iter().enumerate() {
                let c = coords[k].clamp(lo, hi);
                match side {
                    Side::South | Side::North => plan[i].chip_bond.0 = c,
                    _ => plan[i].chip_bond.1 = c,
                }
            }
        }
    }

    /// Mean direct distance `d̄` over the 12 planned wires.
    pub fn mean_direct_distance(&self) -> f64 {
        let plan = self.wire_plan();
        plan.iter().map(|w| w.direct_distance).sum::<f64>() / plan.len() as f64
    }

    /// Total number of pads.
    pub fn n_pads(&self) -> usize {
        4 * self.pads_per_side
    }
}

/// Euclidean distance between two 3D points.
pub(crate) fn dist3(a: (f64, f64, f64), b: (f64, f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2) + (a.2 - b.2).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_counts_and_dimensions() {
        let g = PackageGeometry::baseline();
        let pads = g.pads();
        assert_eq!(pads.len(), 28);
        let long: Vec<_> = pads.iter().filter(|p| p.long).collect();
        assert_eq!(long.len(), 4);
        for p in &pads {
            let dx = p.hi.0 - p.lo.0;
            let dy = p.hi.1 - p.lo.1;
            let (w, l) = match p.side {
                Side::South | Side::North => (dx, dy),
                _ => (dy, dx),
            };
            assert!((w - 0.311e-3).abs() < 1e-12, "width {w}");
            let want_l = if p.long { 1.261e-3 } else { 1.01e-3 };
            assert!((l - want_l).abs() < 1e-12, "length {l}");
            // Pads stay inside the mold.
            assert!(p.lo.0 >= -1e-15 && p.hi.0 <= g.mold_width + 1e-15);
            assert!(p.lo.1 >= -1e-15 && p.hi.1 <= g.mold_width + 1e-15);
        }
    }

    #[test]
    fn pads_do_not_overlap_along_side() {
        let g = PackageGeometry::baseline();
        let pads = g.pads();
        let south: Vec<_> = pads.iter().filter(|p| p.side == Side::South).collect();
        for w in south.windows(2) {
            assert!(w[0].hi.0 < w[1].lo.0, "pads overlap");
        }
    }

    #[test]
    fn wire_plan_structure() {
        let g = PackageGeometry::baseline();
        let plan = g.wire_plan();
        assert_eq!(plan.len(), 12);
        // Pair ids 0..6 each twice.
        let mut pair_counts = [0usize; 6];
        for w in &plan {
            pair_counts[w.pair_id] += 1;
        }
        assert!(pair_counts.iter().all(|&c| c == 2));
        // All pads distinct.
        let mut pads: Vec<_> = plan.iter().map(|w| w.pad_index).collect();
        pads.sort_unstable();
        pads.dedup();
        assert_eq!(pads.len(), 12);
        // Direct distances are positive and vary (asymmetric layout).
        let dmin = plan.iter().map(|w| w.direct_distance).fold(f64::MAX, f64::min);
        let dmax = plan.iter().map(|w| w.direct_distance).fold(0.0, f64::max);
        assert!(dmin > 0.2e-3);
        assert!(dmax > dmin * 1.01, "no variation: {dmin} vs {dmax}");
    }

    #[test]
    fn bond_points_lie_on_pad_and_chip() {
        let g = PackageGeometry::baseline();
        let pads = g.pads();
        for w in g.wire_plan() {
            let pad = &pads[w.pad_index];
            let pb = w.pad_bond;
            assert!(pb.0 >= pad.lo.0 - 1e-15 && pb.0 <= pad.hi.0 + 1e-15);
            assert!(pb.1 >= pad.lo.1 - 1e-15 && pb.1 <= pad.hi.1 + 1e-15);
            assert_eq!(pb.2, pad.hi.2);
            let (clo, chi) = g.chip_box();
            let cb = w.chip_bond;
            assert!(cb.0 >= clo.0 - 1e-15 && cb.0 <= chi.0 + 1e-15);
            assert!(cb.1 >= clo.1 - 1e-15 && cb.1 <= chi.1 + 1e-15);
            assert_eq!(cb.2, chi.2);
        }
    }

    #[test]
    fn paper_calibration_hits_table_ii_mean_length() {
        let g = PackageGeometry::paper();
        let mean_d = g.mean_direct_distance();
        let implied_mean_l = mean_d / (1.0 - 0.17);
        assert!(
            (implied_mean_l - 1.55e-3).abs() < 1e-6,
            "implied mean length {implied_mean_l}"
        );
        // Chip still inside the pad ring.
        let (clo, chi) = g.chip_box();
        assert!(clo.0 > g.pad_length_long);
        assert!(chi.0 < g.mold_width - g.pad_length_long);
    }

    #[test]
    fn outer_contact_boxes_touch_the_edge() {
        let g = PackageGeometry::baseline();
        for p in g.pads() {
            let (lo, hi) = p.outer_contact_box(0.1e-3);
            match p.side {
                Side::South => assert_eq!(lo.1, 0.0),
                Side::North => assert_eq!(hi.1, g.mold_width),
                Side::West => assert_eq!(lo.0, 0.0),
                Side::East => assert_eq!(hi.0, g.mold_width),
            }
        }
    }

    #[test]
    fn dist3_basic() {
        assert_eq!(dist3((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)), 5.0);
    }
}

#[cfg(test)]
mod separation_tests {
    use super::*;

    #[test]
    fn chip_bonds_respect_minimum_separation() {
        let g = PackageGeometry::paper();
        let pads = g.pads();
        let plan = g.wire_plan();
        for &side in &Side::ALL {
            let mut coords: Vec<f64> = plan
                .iter()
                .filter(|w| pads[w.pad_index].side == side)
                .map(|w| match side {
                    Side::South | Side::North => w.chip_bond.0,
                    _ => w.chip_bond.1,
                })
                .collect();
            coords.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for pair in coords.windows(2) {
                assert!(
                    pair[1] - pair[0] >= PackageGeometry::MIN_CHIP_BOND_SEPARATION - 1e-12,
                    "bonds too close on {side:?}: {coords:?}"
                );
            }
        }
    }

    #[test]
    fn chip_bonds_stay_on_chip_edge() {
        let g = PackageGeometry::paper();
        let (clo, chi) = g.chip_box();
        for w in g.wire_plan() {
            let cb = w.chip_bond;
            assert!(cb.0 >= clo.0 - 1e-12 && cb.0 <= chi.0 + 1e-12);
            assert!(cb.1 >= clo.1 - 1e-12 && cb.1 <= chi.1 + 1e-12);
        }
    }

    #[test]
    fn all_chip_bonds_distinct() {
        let g = PackageGeometry::paper();
        let plan = g.wire_plan();
        for i in 0..plan.len() {
            for j in i + 1..plan.len() {
                let d = dist3(plan[i].chip_bond, plan[j].chip_bond);
                assert!(d > 1e-4, "wires {i} and {j} bond {d} m apart");
            }
        }
    }
}
