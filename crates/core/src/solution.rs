//! Result container of a transient run.

use crate::layout::DofLayout;

/// Time histories produced by [`crate::Session::run_transient`].
///
/// Wire temperatures are the paper's representative values
/// `T_bw,j = Xⱼᵀ T` (mean of the two attachment nodes, Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// Sample times, starting at `t = 0` (length `n_steps + 1`).
    pub times: Vec<f64>,
    /// `wire_temperatures[j][i]` = temperature of wire `j` at `times[i]` (K).
    pub wire_temperatures: Vec<Vec<f64>>,
    /// `wire_powers[j][i]` = Joule power dissipated in wire `j` (W).
    pub wire_powers: Vec<Vec<f64>>,
    /// Total field (grid) Joule power per time (W).
    pub field_power: Vec<f64>,
    /// Picard iterations used per step (length `n_steps`).
    pub picard_iterations: Vec<usize>,
    /// Total inner CG iterations over the whole run.
    pub linear_iterations: usize,
    /// Requested full-field snapshots `(time, T_full)`.
    pub snapshots: Vec<(f64, Vec<f64>)>,
}

impl TransientSolution {
    /// An empty history with room for `n_steps` steps of `n_wires` wires.
    pub(crate) fn with_capacity(n_wires: usize, n_steps: usize) -> Self {
        TransientSolution {
            times: Vec::with_capacity(n_steps + 1),
            wire_temperatures: vec![Vec::with_capacity(n_steps + 1); n_wires],
            wire_powers: vec![Vec::with_capacity(n_steps + 1); n_wires],
            field_power: Vec::with_capacity(n_steps + 1),
            picard_iterations: Vec::with_capacity(n_steps),
            linear_iterations: 0,
            snapshots: Vec::new(),
        }
    }

    /// Appends the time point `time`: the wire temperatures of the full
    /// state `state`, the wire powers (zero past the end of `powers`) and
    /// the field power.
    pub(crate) fn record(
        &mut self,
        layout: &DofLayout,
        time: f64,
        state: &[f64],
        powers: &[f64],
        field_power: f64,
    ) {
        self.times.push(time);
        for (j, (temps, pows)) in self
            .wire_temperatures
            .iter_mut()
            .zip(&mut self.wire_powers)
            .enumerate()
        {
            temps.push(layout.topology(j).average_temperature(state));
            pows.push(powers.get(j).copied().unwrap_or(0.0));
        }
        self.field_power.push(field_power);
    }

    /// Number of recorded time points.
    pub fn n_times(&self) -> usize {
        self.times.len()
    }

    /// Number of wires.
    pub fn n_wires(&self) -> usize {
        self.wire_temperatures.len()
    }

    /// Temperature series of wire `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn wire_series(&self, j: usize) -> &[f64] {
        &self.wire_temperatures[j]
    }

    /// Maximum wire temperature at time index `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are no wires or `i` is out of range.
    pub fn max_wire_temperature_at(&self, i: usize) -> f64 {
        self.wire_temperatures
            .iter()
            .map(|s| s[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index and final temperature of the hottest wire (at the last time).
    ///
    /// Returns `None` when the model has no wires.
    pub fn hottest_wire(&self) -> Option<(usize, f64)> {
        let last = self.times.len().checked_sub(1)?;
        self.wire_temperatures
            .iter()
            .enumerate()
            .map(|(j, s)| (j, s[last]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite temperatures"))
    }

    /// Per-time maximum over all wires (`maxⱼ T_bw,j(t)`).
    pub fn max_wire_series(&self) -> Vec<f64> {
        (0..self.times.len())
            .map(|i| self.max_wire_temperature_at(i))
            .collect()
    }

    /// The snapshot nearest to time `t`, if any were recorded.
    pub fn snapshot_near(&self, t: f64) -> Option<&(f64, Vec<f64>)> {
        self.snapshots.iter().min_by(|a, b| {
            (a.0 - t)
                .abs()
                .partial_cmp(&(b.0 - t).abs())
                .expect("finite times")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol() -> TransientSolution {
        TransientSolution {
            times: vec![0.0, 1.0, 2.0],
            wire_temperatures: vec![vec![300.0, 310.0, 315.0], vec![300.0, 320.0, 312.0]],
            wire_powers: vec![vec![0.0; 3]; 2],
            field_power: vec![0.0; 3],
            picard_iterations: vec![2, 2],
            linear_iterations: 10,
            snapshots: vec![(2.0, vec![300.0])],
        }
    }

    #[test]
    fn accessors() {
        let s = sol();
        assert_eq!(s.n_times(), 3);
        assert_eq!(s.n_wires(), 2);
        assert_eq!(s.wire_series(1)[1], 320.0);
        assert_eq!(s.max_wire_temperature_at(1), 320.0);
        assert_eq!(s.max_wire_series(), vec![300.0, 320.0, 315.0]);
        // Hottest at final time is wire 0 (315 > 312).
        assert_eq!(s.hottest_wire(), Some((0, 315.0)));
        assert_eq!(s.snapshot_near(1.7).unwrap().0, 2.0);
    }

    #[test]
    fn empty_wires() {
        let s = TransientSolution {
            times: vec![0.0],
            wire_temperatures: vec![],
            wire_powers: vec![],
            field_power: vec![0.0],
            picard_iterations: vec![],
            linear_iterations: 0,
            snapshots: vec![],
        };
        assert_eq!(s.hottest_wire(), None);
        assert!(s.snapshot_near(0.0).is_none());
    }
}
