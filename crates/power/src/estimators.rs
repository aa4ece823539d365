//! The three power-estimator tiers of the paper's Table 1.

use std::sync::Arc;
use std::time::Duration;

use vcad_core::{EstimateError, EstimationInput, Estimator, EstimatorInfo, Parameter, Value};
use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, Netlist};

use crate::model::{pattern_energy, switched_energy, PowerModel};
use crate::truth::SiliconReference;

fn concat_ports(snapshot: &[LogicVec], ports: &[usize]) -> LogicVec {
    let mut v = LogicVec::zeros(0);
    for &p in ports {
        v = v.concat(&snapshot[p]);
    }
    v
}

fn patterns_from_input(input: &EstimationInput, ports: &[usize]) -> Vec<LogicVec> {
    input
        .snapshots
        .iter()
        .map(|s| concat_ports(&s.ports, ports))
        .collect()
}

/// Tier 1: a pre-characterised constant (datasheet mean power).
///
/// The provider characterises the component once against its silicon
/// reference and ships the single number with the open specification —
/// free, instant, and the least accurate per pattern.
#[derive(Clone, Debug)]
pub struct ConstantPowerEstimator {
    mean_power_w: f64,
}

impl ConstantPowerEstimator {
    /// Characterises the mean per-transition power of `netlist` over a
    /// training sequence measured by `reference`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two training patterns are supplied.
    #[must_use]
    pub fn characterize(
        reference: &SiliconReference,
        netlist: &Netlist,
        training: &[LogicVec],
    ) -> ConstantPowerEstimator {
        let per_pattern = reference.per_pattern_power(netlist, training);
        assert!(
            !per_pattern.is_empty(),
            "characterisation needs at least two training patterns"
        );
        let mean = per_pattern.iter().sum::<f64>() / per_pattern.len() as f64;
        ConstantPowerEstimator { mean_power_w: mean }
    }

    /// The characterised mean power, in watts.
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        self.mean_power_w
    }

    /// The constant prediction for any transition.
    #[must_use]
    pub fn predict_transition(&self) -> f64 {
        self.mean_power_w
    }
}

impl Estimator for ConstantPowerEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/constant".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 25.0,
            cost_per_pattern_cents: 0.0,
            cpu_time_per_pattern: Duration::ZERO,
            remote: false,
        }
    }

    fn estimate(&self, _input: &EstimationInput) -> Result<Value, EstimateError> {
        Ok(Value::F64(self.mean_power_w))
    }
}

/// Tier 2: a linear model over input switching activity.
///
/// `power ≈ a + b · toggles(prev_inputs, next_inputs)`, fitted by least
/// squares on provider-measured training data. Still free and local — the
/// coefficients reveal nothing structural — but tracks pattern-to-pattern
/// variation much better than a constant.
#[derive(Clone, Debug)]
pub struct LinearRegressionPowerEstimator {
    intercept: f64,
    slope: f64,
    input_ports: Vec<usize>,
}

impl LinearRegressionPowerEstimator {
    /// Fits the model on a training sequence measured by `reference`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three training patterns are supplied.
    #[must_use]
    pub fn fit(
        reference: &SiliconReference,
        netlist: &Netlist,
        training: &[LogicVec],
        input_ports: Vec<usize>,
    ) -> LinearRegressionPowerEstimator {
        assert!(
            training.len() >= 3,
            "regression needs at least three training patterns"
        );
        let ys = reference.per_pattern_power(netlist, training);
        let xs: Vec<f64> = training
            .windows(2)
            .map(|w| w[0].distance(&w[1]) as f64)
            .collect();
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
        let sxy: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mean_x) * (y - mean_y))
            .sum();
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let intercept = mean_y - slope * mean_x;
        LinearRegressionPowerEstimator {
            intercept,
            slope,
            input_ports,
        }
    }

    /// The fitted `(intercept, slope)` coefficients.
    #[must_use]
    pub fn coefficients(&self) -> (f64, f64) {
        (self.intercept, self.slope)
    }

    /// Predicted power (watts) for one input transition.
    #[must_use]
    pub fn predict_transition(&self, prev: &LogicVec, next: &LogicVec) -> f64 {
        (self.intercept + self.slope * prev.distance(next) as f64).max(0.0)
    }
}

impl Estimator for LinearRegressionPowerEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/linear-regression".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 20.0,
            cost_per_pattern_cents: 0.0,
            cpu_time_per_pattern: Duration::from_micros(1),
            remote: false,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        let patterns = patterns_from_input(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "regression needs at least two buffered patterns".into(),
            ));
        }
        let total: f64 = patterns
            .windows(2)
            .map(|w| self.predict_transition(&w[0], &w[1]))
            .sum();
        Ok(Value::F64(total / (patterns.len() - 1) as f64))
    }
}

/// Tier 3: full gate-level toggle counting.
///
/// Requires the complete netlist — the provider's protected IP — so in a
/// distributed setting this estimator exists only on the provider's server
/// and the user reaches it through a remote stub. Per the paper's Table 1
/// it is the most accurate tier, the only one with a per-pattern fee, and
/// by far the slowest.
#[derive(Clone, Debug)]
pub struct TogglePowerEstimator {
    netlist: Arc<Netlist>,
    model: PowerModel,
    input_ports: Vec<usize>,
    remote: bool,
    /// Each net's toggle energy, computed once.
    energies: Vec<f64>,
}

impl TogglePowerEstimator {
    /// Creates the estimator over the protected netlist.
    #[must_use]
    pub fn new(
        netlist: Arc<Netlist>,
        model: PowerModel,
        input_ports: Vec<usize>,
        remote: bool,
    ) -> TogglePowerEstimator {
        TogglePowerEstimator {
            energies: model.toggle_energies(&netlist),
            netlist,
            model,
            input_ports,
            remote,
        }
    }

    /// Gate-level power (watts) for one input transition.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the netlist's input
    /// count.
    #[must_use]
    pub fn predict_transition(&self, prev: &LogicVec, next: &LogicVec) -> f64 {
        let eval = Evaluator::new(&self.netlist);
        self.model.energy_to_power(switched_energy(
            &self.energies,
            &eval.eval(prev),
            &eval.eval(next),
        ))
    }

    /// Mean gate-level power (watts) over the transitions of `patterns`,
    /// evaluating each pattern once: the per-transition powers of
    /// [`TogglePowerEstimator::predict_transition`], summed in sequence
    /// order and divided by the transition count. Returns `0.0` for
    /// fewer than two patterns.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the netlist's input
    /// count.
    #[must_use]
    pub fn average_power(&self, patterns: &[LogicVec]) -> f64 {
        if patterns.len() < 2 {
            return 0.0;
        }
        let eval = Evaluator::new(&self.netlist);
        let mut prev = eval.eval(&patterns[0]);
        let total: f64 = patterns[1..]
            .iter()
            .map(|pattern| {
                let next = eval.eval(pattern);
                let energy = switched_energy(&self.energies, &prev, &next);
                prev = next;
                self.model.energy_to_power(energy)
            })
            .sum();
        total / (patterns.len() - 1) as f64
    }
}

impl Estimator for TogglePowerEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/gate-level-toggle".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 10.0,
            cost_per_pattern_cents: 0.1,
            cpu_time_per_pattern: Duration::from_millis(1),
            remote: self.remote,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        let patterns = patterns_from_input(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "toggle counting needs at least two buffered patterns".into(),
            ));
        }
        Ok(Value::F64(self.average_power(&patterns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ErrorStats;
    use vcad_core::PortSnapshot;
    use vcad_core::SimTime;
    use vcad_netlist::generators;

    fn training(n: u64) -> Vec<LogicVec> {
        (0..n)
            .map(|i| LogicVec::from_u64(8, i.wrapping_mul(0x9E37_79B9) % 256))
            .collect()
    }

    fn rig() -> (Arc<Netlist>, SiliconReference, Vec<LogicVec>) {
        let nl = Arc::new(generators::wallace_multiplier(4));
        let reference = SiliconReference::with_default_residual(PowerModel::default(), 11);
        (nl, reference, training(64))
    }

    #[test]
    fn accuracy_ordering_matches_table_1() {
        let (nl, reference, train) = rig();
        let eval: Vec<LogicVec> = (100..180u64)
            .map(|i| LogicVec::from_u64(8, i.wrapping_mul(0x5851_F42D) % 256))
            .collect();
        let truth = reference.per_pattern_power(&nl, &eval);

        let constant = ConstantPowerEstimator::characterize(&reference, &nl, &train);
        let regression = LinearRegressionPowerEstimator::fit(&reference, &nl, &train, vec![0, 1]);
        let toggle =
            TogglePowerEstimator::new(Arc::clone(&nl), PowerModel::default(), vec![0, 1], true);

        let const_preds: Vec<f64> = eval
            .windows(2)
            .map(|_| constant.predict_transition())
            .collect();
        let reg_preds: Vec<f64> = eval
            .windows(2)
            .map(|w| regression.predict_transition(&w[0], &w[1]))
            .collect();
        let tog_preds: Vec<f64> = eval
            .windows(2)
            .map(|w| toggle.predict_transition(&w[0], &w[1]))
            .collect();

        let e_const = ErrorStats::compare(&const_preds, &truth);
        let e_reg = ErrorStats::compare(&reg_preds, &truth);
        let e_tog = ErrorStats::compare(&tog_preds, &truth);

        assert!(
            e_tog.avg_pct < e_reg.avg_pct && e_reg.avg_pct < e_const.avg_pct,
            "toggle {e_tog:?} < regression {e_reg:?} < constant {e_const:?}"
        );
        // The toggle tier differs from "silicon" only by the bounded
        // residual.
        assert!(e_tog.avg_pct <= 10.0 + 1e-9);
    }

    #[test]
    fn estimator_trait_averages_buffer() {
        let (nl, reference, train) = rig();
        let toggle =
            TogglePowerEstimator::new(Arc::clone(&nl), PowerModel::default(), vec![0, 1], false);
        let constant = ConstantPowerEstimator::characterize(&reference, &nl, &train);

        // Build snapshots of a module with ports (a, b, p).
        let snaps: Vec<PortSnapshot> = (0..6u64)
            .map(|i| PortSnapshot {
                time: SimTime::new(i),
                ports: vec![
                    LogicVec::from_u64(4, i % 16),
                    LogicVec::from_u64(4, (i * 7) % 16),
                    LogicVec::zeros(8),
                ],
            })
            .collect();
        let input = EstimationInput::new(snaps);
        let avg = toggle.estimate(&input).unwrap().as_f64().unwrap();
        assert!(avg > 0.0);
        let c = constant.estimate(&input).unwrap().as_f64().unwrap();
        assert!((c - constant.mean_power_w()).abs() < 1e-18);
    }

    /// The reference: both patterns of every window evaluated and the
    /// net loads summed again for every transition.
    fn windows_average(nl: &Netlist, model: &PowerModel, patterns: &[LogicVec]) -> f64 {
        let total: f64 = patterns
            .windows(2)
            .map(|w| {
                let eval = Evaluator::new(nl);
                let before = eval.eval(&w[0]);
                let after = eval.eval(&w[1]);
                let loads = model.net_loads(nl);
                let mut energy = 0.0;
                for (i, load) in loads.iter().enumerate() {
                    if before.as_slice()[i] != after.as_slice()[i] {
                        energy += model.toggle_energy(*load);
                    }
                }
                model.energy_to_power(energy)
            })
            .sum();
        total / (patterns.len() - 1) as f64
    }

    #[test]
    fn sequence_power_is_bit_identical_to_the_windows_formula() {
        use vcad_logic::Logic;
        use vcad_prng::Rng;

        let model = PowerModel::default();
        for (width, seed) in [(4usize, 1u64), (6, 29), (8, 4242)] {
            let nl = Arc::new(generators::wallace_multiplier(width));
            let toggle = TogglePowerEstimator::new(Arc::clone(&nl), model, vec![0], true);
            let mut rng = Rng::seed_from_u64(seed);
            for len in [2usize, 3, 5, 17] {
                let patterns: Vec<LogicVec> = (0..len)
                    .map(|_| {
                        LogicVec::from_bits((0..2 * width).map(|_| match rng.gen_range(0u32..10) {
                            0 => Logic::X,
                            1 => Logic::Z,
                            n => Logic::from(n & 1 == 1),
                        }))
                    })
                    .collect();
                let expect = windows_average(&nl, &model, &patterns).to_bits();
                let context = format!("width {width}, seed {seed}, {len} patterns");
                assert_eq!(
                    toggle.average_power(&patterns).to_bits(),
                    expect,
                    "{context}"
                );
                let input = EstimationInput::new(
                    patterns
                        .iter()
                        .enumerate()
                        .map(|(t, p)| PortSnapshot {
                            time: SimTime::new(t as u64),
                            ports: vec![p.clone()],
                        })
                        .collect(),
                );
                let estimated = toggle.estimate(&input).unwrap().as_f64().unwrap();
                assert_eq!(estimated.to_bits(), expect, "{context}: estimate");
                let one = windows_average(&nl, &model, &patterns[..2]);
                assert_eq!(
                    toggle
                        .predict_transition(&patterns[0], &patterns[1])
                        .to_bits(),
                    one.to_bits(),
                    "{context}: one transition"
                );
            }
        }
    }

    #[test]
    fn estimators_reject_single_pattern_buffers() {
        let (nl, _, _) = rig();
        let toggle = TogglePowerEstimator::new(nl, PowerModel::default(), vec![0, 1], false);
        let input = EstimationInput::new(vec![PortSnapshot {
            time: SimTime::ZERO,
            ports: vec![LogicVec::zeros(4), LogicVec::zeros(4), LogicVec::zeros(8)],
        }]);
        assert!(matches!(
            toggle.estimate(&input),
            Err(EstimateError::InsufficientInput(_))
        ));
    }

    #[test]
    fn regression_learns_activity_dependence() {
        let (nl, reference, train) = rig();
        let regression = LinearRegressionPowerEstimator::fit(&reference, &nl, &train, vec![0, 1]);
        let (_, slope) = regression.coefficients();
        assert!(slope > 0.0, "power should grow with input activity");
        // More toggling inputs predict more power.
        let calm =
            regression.predict_transition(&LogicVec::from_u64(8, 0), &LogicVec::from_u64(8, 1));
        let busy =
            regression.predict_transition(&LogicVec::from_u64(8, 0), &LogicVec::from_u64(8, 0xFF));
        assert!(busy > calm);
    }

    #[test]
    fn metadata_matches_table_1_shape() {
        let (nl, reference, train) = rig();
        let c = ConstantPowerEstimator::characterize(&reference, &nl, &train).info();
        let r = LinearRegressionPowerEstimator::fit(&reference, &nl, &train, vec![0, 1]).info();
        let t = TogglePowerEstimator::new(nl, PowerModel::default(), vec![0, 1], true).info();
        assert!(c.expected_error_pct > r.expected_error_pct);
        assert!(r.expected_error_pct > t.expected_error_pct);
        assert!(t.cost_per_pattern_cents > 0.0);
        assert!(t.remote && !c.remote && !r.remote);
        assert!(t.cpu_time_per_pattern > r.cpu_time_per_pattern);
    }
}

/// Peak-power estimator: the worst single-transition power across the
/// buffered patterns, computed on the provider's gate-level view.
///
/// Completes the paper's parameter list (area, delay, average power,
/// *peak power*, I/O activity).
#[derive(Clone, Debug)]
pub struct PeakPowerEstimator {
    netlist: Arc<Netlist>,
    model: PowerModel,
    input_ports: Vec<usize>,
    remote: bool,
}

impl PeakPowerEstimator {
    /// Creates the estimator over the protected netlist.
    #[must_use]
    pub fn new(
        netlist: Arc<Netlist>,
        model: PowerModel,
        input_ports: Vec<usize>,
        remote: bool,
    ) -> PeakPowerEstimator {
        PeakPowerEstimator {
            netlist,
            model,
            input_ports,
            remote,
        }
    }
}

impl Estimator for PeakPowerEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/gate-level-peak".into(),
            parameter: Parameter::PeakPower,
            expected_error_pct: 10.0,
            cost_per_pattern_cents: 0.1,
            cpu_time_per_pattern: Duration::from_millis(1),
            remote: self.remote,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        let patterns = patterns_from_input(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "peak power needs at least two buffered patterns".into(),
            ));
        }
        let peak = patterns
            .windows(2)
            .map(|w| {
                self.model
                    .energy_to_power(pattern_energy(&self.netlist, &self.model, &w[0], &w[1]))
            })
            .fold(0.0f64, f64::max);
        Ok(Value::F64(peak))
    }
}

#[cfg(test)]
mod peak_tests {
    use super::*;
    use vcad_core::{PortSnapshot, SimTime};
    use vcad_netlist::generators;

    fn input_from(patterns: &[u64], width: usize) -> EstimationInput {
        EstimationInput::new(
            patterns
                .iter()
                .enumerate()
                .map(|(i, &p)| PortSnapshot {
                    time: SimTime::new(i as u64),
                    ports: vec![LogicVec::from_u64(width, p)],
                })
                .collect(),
        )
    }

    #[test]
    fn peak_is_at_least_average() {
        let nl = Arc::new(generators::wallace_multiplier(4));
        let model = PowerModel::default();
        let peak = PeakPowerEstimator::new(Arc::clone(&nl), model, vec![0], false);
        let avg = TogglePowerEstimator::new(nl, model, vec![0], false);
        let input = input_from(&[0x00, 0xFF, 0x0F, 0xF0, 0x55], 8);
        let p = peak.estimate(&input).unwrap().as_f64().unwrap();
        let a = avg.estimate(&input).unwrap().as_f64().unwrap();
        assert!(p >= a, "peak {p} < avg {a}");
        assert!(p > 0.0);
    }

    #[test]
    fn quiet_buffer_has_zero_peak() {
        let nl = Arc::new(generators::half_adder());
        let peak = PeakPowerEstimator::new(nl, PowerModel::default(), vec![0], false);
        let input = input_from(&[0b01, 0b01, 0b01], 2);
        assert_eq!(peak.estimate(&input).unwrap(), Value::F64(0.0));
    }

    #[test]
    fn single_pattern_rejected() {
        let nl = Arc::new(generators::half_adder());
        let peak = PeakPowerEstimator::new(nl, PowerModel::default(), vec![0], false);
        assert!(matches!(
            peak.estimate(&input_from(&[0b11], 2)),
            Err(EstimateError::InsufficientInput(_))
        ));
    }
}
