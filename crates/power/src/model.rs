//! The capacitance-weighted toggle-count power model.

use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, NetValues, Netlist};

/// Electrical parameters of the toggle-count model.
///
/// Dynamic energy per net toggle is `½ · C_load · V_dd²`, where the load is
/// the sum of the driven pins' input capacitances plus a wire contribution
/// per fan-out. Defaults are 1999-flavoured: 3.3 V supply, 10 ns cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Wire capacitance per fan-out branch, in femtofarads.
    pub wire_cap_per_fanout_ff: f64,
    /// Clock period in seconds (converts per-pattern energy to power).
    pub clock_period_s: f64,
}

impl Default for PowerModel {
    fn default() -> PowerModel {
        PowerModel {
            vdd: 3.3,
            wire_cap_per_fanout_ff: 2.0,
            clock_period_s: 10e-9,
        }
    }
}

impl PowerModel {
    /// Energy of one toggle on a net with `load_ff` femtofarads of load,
    /// in joules.
    #[must_use]
    pub fn toggle_energy(&self, load_ff: f64) -> f64 {
        0.5 * load_ff * 1e-15 * self.vdd * self.vdd
    }

    /// The load capacitance of every net, in femtofarads, indexed by
    /// [`NetId::index`](vcad_netlist::NetId::index).
    #[must_use]
    pub fn net_loads(&self, netlist: &Netlist) -> Vec<f64> {
        let mut loads = vec![0.0; netlist.net_count()];
        for (_, gate) in netlist.gates() {
            for &input in gate.inputs() {
                loads[input.index()] += gate.kind().input_capacitance();
            }
        }
        for (id, net) in netlist.nets() {
            loads[id.index()] += self.wire_cap_per_fanout_ff * f64::from(net.fanout());
        }
        loads
    }

    /// The energy of one toggle on every net, in joules, indexed by
    /// [`NetId::index`](vcad_netlist::NetId::index).
    #[must_use]
    pub(crate) fn toggle_energies(&self, netlist: &Netlist) -> Vec<f64> {
        self.net_loads(netlist)
            .into_iter()
            .map(|load| self.toggle_energy(load))
            .collect()
    }

    /// Converts a per-pattern energy (joules) to power (watts) at the
    /// model's clock rate.
    #[must_use]
    pub fn energy_to_power(&self, energy_j: f64) -> f64 {
        energy_j / self.clock_period_s
    }
}

/// The dynamic energy (joules) dissipated by applying `next` after `prev`:
/// every net that changes value contributes one capacitance-weighted
/// toggle.
///
/// This is a zero-delay (functional) toggle count — the glitch activity a
/// delay-accurate simulator would add is exactly what the
/// [`SiliconReference`](crate::SiliconReference) models as residual error.
///
/// # Panics
///
/// Panics if the pattern widths do not match the netlist's input count.
#[must_use]
pub fn pattern_energy(
    netlist: &Netlist,
    model: &PowerModel,
    prev: &LogicVec,
    next: &LogicVec,
) -> f64 {
    let eval = Evaluator::new(netlist);
    switched_energy(
        &model.toggle_energies(netlist),
        &eval.eval(prev),
        &eval.eval(next),
    )
}

/// The energy of the nets whose value differs between `before` and
/// `after`, given each net's toggle energy; summed in net-index order.
pub(crate) fn switched_energy(energies: &[f64], before: &NetValues, after: &NetValues) -> f64 {
    let mut energy = 0.0;
    for (i, toggle) in energies.iter().enumerate() {
        if before.as_slice()[i] != after.as_slice()[i] {
            energy += toggle;
        }
    }
    energy
}

/// Average power (watts) of a pattern sequence applied at the model's
/// clock rate: total transition energy divided by total time.
///
/// Returns `0.0` for sequences shorter than two patterns.
#[must_use]
pub fn sequence_average_power(netlist: &Netlist, model: &PowerModel, patterns: &[LogicVec]) -> f64 {
    if patterns.len() < 2 {
        return 0.0;
    }
    let total: f64 = patterns
        .windows(2)
        .map(|w| pattern_energy(netlist, model, &w[0], &w[1]))
        .sum();
    model.energy_to_power(total / (patterns.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_netlist::generators;

    #[test]
    fn identical_patterns_burn_nothing() {
        let nl = generators::ripple_adder(4);
        let p = LogicVec::from_u64(8, 0xA5);
        assert_eq!(pattern_energy(&nl, &PowerModel::default(), &p, &p), 0.0);
    }

    #[test]
    fn more_toggles_more_energy() {
        let nl = generators::wallace_multiplier(4);
        let model = PowerModel::default();
        let zero = LogicVec::zeros(8);
        let one_bit = LogicVec::from_u64(8, 0x01);
        let all_bits = LogicVec::from_u64(8, 0xFF);
        let small = pattern_energy(&nl, &model, &zero, &one_bit);
        let large = pattern_energy(&nl, &model, &zero, &all_bits);
        assert!(small > 0.0);
        assert!(large > small);
    }

    #[test]
    fn energy_is_symmetric_in_direction() {
        let nl = generators::ripple_adder(4);
        let model = PowerModel::default();
        let a = LogicVec::from_u64(8, 0x3C);
        let b = LogicVec::from_u64(8, 0xC3);
        let ab = pattern_energy(&nl, &model, &a, &b);
        let ba = pattern_energy(&nl, &model, &b, &a);
        assert!((ab - ba).abs() < 1e-24);
    }

    #[test]
    fn loads_count_fanout() {
        let nl = generators::half_adder();
        let model = PowerModel::default();
        let loads = model.net_loads(&nl);
        // Inputs a and b each feed the XOR and the AND: two pins plus two
        // wire branches.
        let a = nl.inputs()[0];
        let expected = 2.5 + 1.5 + 2.0 * model.wire_cap_per_fanout_ff;
        assert!((loads[a.index()] - expected).abs() < 1e-12);
    }

    #[test]
    fn average_power_scales_with_voltage() {
        let nl = generators::wallace_multiplier(4);
        let lo = PowerModel {
            vdd: 1.0,
            ..PowerModel::default()
        };
        let hi = PowerModel {
            vdd: 2.0,
            ..PowerModel::default()
        };
        let pats: Vec<LogicVec> = (0..10u64)
            .map(|i| LogicVec::from_u64(8, i * 37 % 256))
            .collect();
        let p_lo = sequence_average_power(&nl, &lo, &pats);
        let p_hi = sequence_average_power(&nl, &hi, &pats);
        assert!((p_hi / p_lo - 4.0).abs() < 1e-9, "quadratic in vdd");
    }

    #[test]
    fn short_sequences_have_zero_power() {
        let nl = generators::half_adder();
        let model = PowerModel::default();
        assert_eq!(sequence_average_power(&nl, &model, &[]), 0.0);
        assert_eq!(
            sequence_average_power(&nl, &model, &[LogicVec::zeros(2)]),
            0.0
        );
    }
}
