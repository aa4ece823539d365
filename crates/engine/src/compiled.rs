//! The packed evaluator: plan execution, pattern packing and PPSFP
//! force masks.

use std::sync::Arc;

use vcad_logic::{Logic, LogicVec, RailWord};
use vcad_netlist::{ExecPlan, GateId, GateKind, NetId, Netlist, OutputSource};
use vcad_obs::{Collector, Counter};

/// Where a [`Force`] overrides the packed value stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForceSite {
    /// The net itself: every consumer (and, for primary outputs, the
    /// observer) sees the forced value — a *stem* fault.
    Net(NetId),
    /// One gate input pin: only that gate's view of the net is forced,
    /// the net and its other consumers are untouched.
    Pin {
        /// The consuming gate.
        gate: GateId,
        /// The pin position in the gate's input list.
        pin: usize,
    },
}

/// A masked constant override — the engine's fault-injection primitive.
///
/// In the PPSFP layout one fault is active across all pattern lanes
/// (`lanes == u64::MAX` truncated to the pattern count); in the
/// transposed parallel-fault layout each of up to 64 faults claims its
/// own lane (`lanes == 1 << k`), giving 64 independent single-fault
/// experiments per pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Force {
    /// Where the override applies.
    pub site: ForceSite,
    /// `true` forces the lanes to `1` (stuck-at-1), `false` to `0`.
    pub stuck_one: bool,
    /// The lanes the override claims.
    pub lanes: u64,
}

impl Force {
    /// A stem force on `net` over `lanes`.
    #[must_use]
    pub fn net(net: NetId, stuck_one: bool, lanes: u64) -> Force {
        Force {
            site: ForceSite::Net(net),
            stuck_one,
            lanes,
        }
    }

    /// A pin force on `(gate, pin)` over `lanes`.
    #[must_use]
    pub fn pin(gate: GateId, pin: usize, stuck_one: bool, lanes: u64) -> Force {
        Force {
            site: ForceSite::Pin { gate, pin },
            stuck_one,
            lanes,
        }
    }
}

/// A lane-masked constant pending at one net or operand slot.
#[derive(Clone, Copy, Debug, Default)]
struct ForceCell {
    mask: u64,
    ones: u64,
}

impl ForceCell {
    #[inline]
    fn apply(self, w: RailWord) -> RailWord {
        RailWord {
            one: (w.one & !self.mask) | self.ones,
            zero: (w.zero & !self.mask) | (self.mask & !self.ones),
        }
    }
}

/// Up to 64 input patterns packed lane-per-pattern, one [`RailWord`]
/// per primary input. Values are kept raw (`Z` preserved) — the
/// evaluator normalizes at the gate boundary exactly like the scalar
/// path, so primary outputs that alias input nets still reproduce `Z`.
#[derive(Clone, Debug)]
pub struct PackedPatterns {
    lanes: usize,
    raw: Vec<RailWord>,
}

impl PackedPatterns {
    /// Number of packed patterns (occupied lanes).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane mask covering the packed patterns.
    #[must_use]
    pub fn lane_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }
}

/// The packed primary-output image of one evaluator pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedOutputs {
    lanes: usize,
    words: Vec<RailWord>,
}

impl PackedOutputs {
    /// Number of occupied lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn width(&self) -> usize {
        self.words.len()
    }

    /// The packed word of output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn word(&self, index: usize) -> RailWord {
        self.words[index]
    }

    /// The outputs seen by pattern lane `lane`, bit 0 first.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> LogicVec {
        assert!(lane < self.lanes, "lane {lane} beyond packed patterns");
        LogicVec::from_bits(self.words.iter().map(|w| w.lane(lane)))
    }

    /// Lanes on which any primary output differs from `other` as a
    /// four-valued value (`X` vs `0` counts). Use for differential
    /// testing; for fault detection use [`PackedOutputs::detect_mask`].
    ///
    /// # Panics
    ///
    /// Panics if the two images have different shapes.
    #[must_use]
    pub fn diff_mask(&self, other: &PackedOutputs) -> u64 {
        assert_eq!(self.lanes, other.lanes, "lane count mismatch");
        assert_eq!(self.words.len(), other.words.len(), "output width mismatch");
        let mask = lane_mask(self.lanes);
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u64, |acc, (a, b)| acc | a.diff(*b, mask))
    }

    /// Lanes on which some primary output is binary in both images and
    /// carries opposite values — the PPSFP *definite-detection* mask. A
    /// good-`0` vs faulty-`X` disagreement is only a potential
    /// detection and is deliberately excluded, keeping fault coverage
    /// conservative on four-valued patterns.
    ///
    /// # Panics
    ///
    /// Panics if the two images have different shapes.
    #[must_use]
    pub fn detect_mask(&self, other: &PackedOutputs) -> u64 {
        assert_eq!(self.lanes, other.lanes, "lane count mismatch");
        assert_eq!(self.words.len(), other.words.len(), "output width mismatch");
        let mask = lane_mask(self.lanes);
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u64, |acc, (a, b)| acc | a.detect(*b, mask))
    }
}

fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// A [`Netlist`] compiled for the bit-parallel engine.
///
/// Compilation happens once (`engine.compile` span); evaluation reuses
/// the plan through [`CompiledNetlist::evaluator`]. The struct is
/// self-contained — it does not borrow the netlist — so blocks and
/// fault simulators can own one alongside the netlist `Arc` they
/// already hold.
#[derive(Clone, Debug)]
pub struct CompiledNetlist {
    plan: Arc<ExecPlan>,
    obs: Collector,
}

impl CompiledNetlist {
    /// Compiles `netlist` with metrics disabled.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> CompiledNetlist {
        CompiledNetlist::compile_with(netlist, &Collector::disabled())
    }

    /// Compiles `netlist`, recording `engine.compile` spans and
    /// `engine.*` metrics to `obs` (shared by every evaluator derived
    /// from this compilation).
    #[must_use]
    pub fn compile_with(netlist: &Netlist, obs: &Collector) -> CompiledNetlist {
        let _span = obs.span("engine", "engine.compile");
        let plan = Arc::new(ExecPlan::compile(netlist));
        let m = obs.metrics();
        m.counter("engine.plans_compiled").add(1);
        m.counter("engine.plan_ops").add(plan.op_count() as u64);
        CompiledNetlist {
            plan,
            obs: obs.clone(),
        }
    }

    /// The compiled plan.
    #[must_use]
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Number of primary inputs the plan expects.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.plan.input_nets().len()
    }

    /// Packs up to 64 patterns, one lane each. Unoccupied lanes carry
    /// the first pattern so every lane holds a defined experiment.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, longer than 64, or any pattern's
    /// width differs from the input count.
    #[must_use]
    pub fn pack(&self, patterns: &[LogicVec]) -> PackedPatterns {
        assert!(
            !patterns.is_empty() && patterns.len() <= 64,
            "pack takes 1..=64 patterns, got {}",
            patterns.len()
        );
        let inputs = self.input_count();
        let mut raw = vec![RailWord::default(); inputs];
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                pattern.width(),
                inputs,
                "pattern width must match the netlist's input count"
            );
            for (i, word) in raw.iter_mut().enumerate() {
                word.set_lane(lane, pattern.get(i));
            }
        }
        // Fill idle lanes with pattern 0 so force masks spanning the
        // whole word still address defined values.
        for lane in patterns.len()..64 {
            for (i, word) in raw.iter_mut().enumerate() {
                word.set_lane(lane, patterns[0].get(i));
            }
        }
        PackedPatterns {
            lanes: patterns.len(),
            raw,
        }
    }

    /// Packs one pattern into all 64 lanes, each lane a full copy — the
    /// transposed parallel-fault layout, where every lane runs the same
    /// pattern under its own lane-masked fault.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's width differs from the input count.
    #[must_use]
    pub fn broadcast(&self, pattern: &LogicVec) -> PackedPatterns {
        assert_eq!(
            pattern.width(),
            self.input_count(),
            "pattern width must match the netlist's input count"
        );
        PackedPatterns {
            lanes: 64,
            raw: pattern.iter().map(RailWord::splat).collect(),
        }
    }

    /// A reusable evaluator over this plan: the net-value scratch is
    /// sized once here, the force cells on the first forced
    /// [`PackedEvaluator::run`].
    #[must_use]
    pub fn evaluator(&self) -> PackedEvaluator {
        let plan = Arc::clone(&self.plan);
        let m = self.obs.metrics();
        PackedEvaluator {
            values: vec![RailWord::default(); plan.net_count()],
            raw_inputs: vec![RailWord::default(); plan.input_nets().len()],
            net_force: Vec::new(),
            pin_force: Vec::new(),
            touched_nets: Vec::new(),
            touched_pins: Vec::new(),
            plan,
            passes: m.counter("engine.passes"),
            gate_evals: m.counter("engine.gate_evals"),
            patterns: m.counter("engine.patterns"),
        }
    }

    /// Fault-free single-pattern evaluation, the drop-in for
    /// [`Evaluator::outputs`](vcad_netlist::Evaluator::outputs).
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the input count.
    #[must_use]
    pub fn outputs(&self, inputs: &LogicVec) -> LogicVec {
        self.outputs_with(inputs, &[])
    }

    /// Single-pattern evaluation under the given forces. The pattern is
    /// broadcast, so a force's lane mask only matters if it is nonzero
    /// on lane 0.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the input count, or a
    /// force addresses a pin that does not exist.
    #[must_use]
    pub fn outputs_with(&self, inputs: &LogicVec, forces: &[Force]) -> LogicVec {
        // One experiment: every lane holds the pattern, only lane 0 is
        // occupied — what `pack(&[inputs])` builds, without the lane
        // transpose.
        let mut packed = self.broadcast(inputs);
        packed.lanes = 1;
        self.evaluator().run(&packed, forces).lane(0)
    }
}

/// Executes a compiled plan over packed patterns; owns the per-run
/// scratch (net values, force cells), so reuse one evaluator across
/// many [`PackedEvaluator::run`] calls to amortize the allocations.
///
/// A pass without forces runs the unforced instantiation of the level
/// sweep, which tests no force cell at all; the force cells themselves
/// are only allocated by the first forced pass. A gate-level block on
/// the compiled engine keeps one evaluator per scheduler in that
/// scheduler's state store, so a simulation pays one sweep per
/// evaluation and concurrent runs never share scratch.
#[derive(Clone, Debug)]
pub struct PackedEvaluator {
    plan: Arc<ExecPlan>,
    values: Vec<RailWord>,
    raw_inputs: Vec<RailWord>,
    net_force: Vec<ForceCell>,
    pin_force: Vec<ForceCell>,
    touched_nets: Vec<u32>,
    touched_pins: Vec<u32>,
    passes: Counter,
    gate_evals: Counter,
    patterns: Counter,
}

impl PackedEvaluator {
    /// Evaluates every lane of `patterns` under `forces` and returns
    /// the packed primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if a pin force addresses a pin that does not exist in the
    /// plan.
    #[must_use]
    pub fn run(&mut self, patterns: &PackedPatterns, forces: &[Force]) -> PackedOutputs {
        debug_assert_eq!(patterns.raw.len(), self.raw_inputs.len());
        self.clear_forces();
        for force in forces {
            self.set_force(force);
        }
        if self.touched_nets.is_empty() && self.touched_pins.is_empty() {
            self.sweep::<false>(patterns);
        } else {
            self.sweep::<true>(patterns);
        }

        let words = self
            .plan
            .outputs()
            .iter()
            .map(|src| match *src {
                OutputSource::Net(net) => self.values[net],
                OutputSource::Input(i) => self.raw_inputs[i],
            })
            .collect();

        self.passes.add(1);
        self.gate_evals.add(self.plan.op_count() as u64);
        self.patterns.add(patterns.lanes as u64);

        PackedOutputs {
            lanes: patterns.lanes,
            words,
        }
    }

    /// Loads the primary inputs and sweeps the plan level by level.
    /// `FORCED` compiles the force-cell tests in; the unforced
    /// instantiation has none, so it reads only the net values.
    fn sweep<const FORCED: bool>(&mut self, patterns: &PackedPatterns) {
        let nets_active = FORCED && !self.touched_nets.is_empty();
        let pins_active = FORCED && !self.touched_pins.is_empty();

        // Load primary inputs: stem forces first (they replace the raw
        // value, matching the event-driven fault path), then the `Z`→`X`
        // normalization every gate input sees. The forced raw value is
        // kept for primary outputs that alias input nets.
        for (i, &net) in self.plan.input_nets().iter().enumerate() {
            let mut w = patterns.raw[i];
            if nets_active {
                let cell = self.net_force[net as usize];
                if cell.mask != 0 {
                    w = cell.apply(w);
                }
            }
            self.raw_inputs[i] = w;
            self.values[net as usize] = w.driven();
        }

        // One pass per level; within a level every op reads only nets
        // settled by earlier levels, which is what lets a sharded host
        // hand one compiled plan to each shard.
        let operands = self.plan.operands();
        for level in 0..self.plan.level_count() {
            for op in &self.plan.ops()[self.plan.level(level)] {
                let range = op.operand_range();
                let read = |slot: usize| -> RailWord {
                    let v = self.values[operands[slot] as usize];
                    if pins_active {
                        let cell = self.pin_force[slot];
                        if cell.mask != 0 {
                            return cell.apply(v);
                        }
                    }
                    v
                };
                let mut out = match op.kind() {
                    GateKind::Const0 => RailWord::splat(Logic::Zero),
                    GateKind::Const1 => RailWord::splat(Logic::One),
                    GateKind::Buf => read(range.start),
                    GateKind::Not => RailWord::invert(read(range.start)),
                    GateKind::And | GateKind::Nand => {
                        let mut acc = read(range.start);
                        for slot in range.start + 1..range.end {
                            acc = RailWord::and(acc, read(slot));
                        }
                        if op.kind() == GateKind::Nand {
                            acc = RailWord::invert(acc);
                        }
                        acc
                    }
                    GateKind::Or | GateKind::Nor => {
                        let mut acc = read(range.start);
                        for slot in range.start + 1..range.end {
                            acc = RailWord::or(acc, read(slot));
                        }
                        if op.kind() == GateKind::Nor {
                            acc = RailWord::invert(acc);
                        }
                        acc
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        let mut acc = read(range.start);
                        for slot in range.start + 1..range.end {
                            acc = RailWord::xor(acc, read(slot));
                        }
                        if op.kind() == GateKind::Xnor {
                            acc = RailWord::invert(acc);
                        }
                        acc
                    }
                    GateKind::Mux2 => RailWord::mux(
                        read(range.start),
                        read(range.start + 1),
                        read(range.start + 2),
                    ),
                };
                if nets_active {
                    let cell = self.net_force[op.output()];
                    if cell.mask != 0 {
                        out = cell.apply(out);
                    }
                }
                self.values[op.output()] = out;
            }
        }
    }

    fn clear_forces(&mut self) {
        for net in self.touched_nets.drain(..) {
            self.net_force[net as usize] = ForceCell::default();
        }
        for slot in self.touched_pins.drain(..) {
            self.pin_force[slot as usize] = ForceCell::default();
        }
    }

    fn set_force(&mut self, force: &Force) {
        if self.net_force.is_empty() {
            self.net_force = vec![ForceCell::default(); self.plan.net_count()];
            self.pin_force = vec![ForceCell::default(); self.plan.operands().len()];
        }
        let cell = match force.site {
            ForceSite::Net(net) => {
                self.touched_nets.push(net.index() as u32);
                &mut self.net_force[net.index()]
            }
            ForceSite::Pin { gate, pin } => {
                let slot = self
                    .plan
                    .operand_slot(gate, pin)
                    .unwrap_or_else(|| panic!("force addresses missing pin {pin} of {gate}"));
                self.touched_pins.push(slot as u32);
                &mut self.pin_force[slot]
            }
        };
        cell.mask |= force.lanes;
        if force.stuck_one {
            cell.ones |= force.lanes;
        } else {
            cell.ones &= !force.lanes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_netlist::{generators, Evaluator, NetlistBuilder};

    #[test]
    fn matches_scalar_evaluator_on_c17() {
        let nl = generators::c17();
        let compiled = CompiledNetlist::compile(&nl);
        let eval = Evaluator::new(&nl);
        // All 32 binary patterns in one packed pass.
        let patterns: Vec<LogicVec> = (0..32).map(|p| LogicVec::from_u64(5, p)).collect();
        let packed = compiled.pack(&patterns);
        let out = compiled.evaluator().run(&packed, &[]);
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(out.lane(lane), eval.outputs(pattern), "pattern {lane}");
        }
    }

    #[test]
    fn z_survives_on_output_aliasing_an_input() {
        let mut b = NetlistBuilder::new("alias");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And, &[a, c]);
        b.output("pass", c);
        b.output("y", y);
        let nl = b.build().unwrap();
        let compiled = CompiledNetlist::compile(&nl);
        let eval = Evaluator::new(&nl);

        let mut inp = LogicVec::from_u64(2, 0b01);
        inp.set(1, Logic::Z);
        let scalar = eval.outputs(&inp);
        assert_eq!(scalar.get(0), Logic::Z, "scalar path preserves Z");
        assert_eq!(compiled.outputs(&inp), scalar);
    }

    #[test]
    fn stem_force_overrides_every_consumer_and_the_tap() {
        let mut b = NetlistBuilder::new("stem");
        let a = b.input("a");
        let c = b.input("b");
        let and = b.gate(GateKind::And, &[a, c]);
        b.output("and", and);
        b.output("a", a);
        let nl = b.build().unwrap();
        let compiled = CompiledNetlist::compile(&nl);

        let inp = LogicVec::from_u64(2, 0b11);
        let good = compiled.outputs(&inp);
        assert_eq!(good.to_string(), "11");
        let faulty = compiled.outputs_with(&inp, &[Force::net(a, false, u64::MAX)]);
        // a/sa0 kills both the AND and the aliased output tap.
        assert_eq!(faulty.to_string(), "00");
    }

    #[test]
    fn pin_force_only_changes_that_gates_view() {
        let mut b = NetlistBuilder::new("pin");
        let a = b.input("a");
        let c = b.input("b");
        let and = b.gate(GateKind::And, &[a, c]);
        let or = b.gate(GateKind::Or, &[a, c]);
        b.output("and", and);
        b.output("or", or);
        let nl = b.build().unwrap();
        let and_gate = nl.net(and).driver().unwrap();
        let compiled = CompiledNetlist::compile(&nl);

        let inp = LogicVec::from_u64(2, 0b01); // a=1, b=0
        let good = compiled.outputs(&inp);
        let faulty = compiled.outputs_with(&inp, &[Force::pin(and_gate, 1, true, u64::MAX)]);
        // AND sees b stuck-at-1 → flips; OR still sees the real b.
        assert_eq!(good.get(0), Logic::Zero);
        assert_eq!(faulty.get(0), Logic::One);
        assert_eq!(faulty.get(1), good.get(1));
    }

    #[test]
    fn per_lane_forces_run_independent_experiments() {
        // One pattern replicated, two faults in separate lanes — the
        // parallel-fault transpose used by detection-table builds.
        let nl = generators::half_adder();
        let compiled = CompiledNetlist::compile(&nl);
        let a = nl.inputs()[0];
        let b = nl.inputs()[1];

        let pattern = LogicVec::from_u64(2, 0b01); // a=1, b=0
        let packed = compiled.pack(std::slice::from_ref(&pattern));
        let mut eval = compiled.evaluator();
        let good = eval.run(&packed, &[]);
        let faulty = eval.run(
            &packed,
            &[Force::net(a, false, 1 << 1), Force::net(b, true, 1 << 2)],
        );
        // Lane 0 untouched, lanes 1 and 2 each carry their own fault.
        assert_eq!(faulty.lane(0), good.lane(0));
        assert_eq!(faulty.word(0).lane(1), Logic::Zero, "lane 1: a/sa0 → sum 0");
        assert_eq!(
            faulty.word(1).lane(2),
            Logic::One,
            "lane 2: b/sa1 → carry 1"
        );
    }

    #[test]
    fn broadcast_equals_packing_64_copies() {
        let mut b = NetlistBuilder::new("alias");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Xor, &[a, c]);
        b.output("pass", c);
        b.output("y", y);
        let nl = b.build().unwrap();
        let compiled = CompiledNetlist::compile(&nl);
        let mut inp = LogicVec::from_u64(2, 0b01);
        inp.set(1, Logic::Z);
        let broadcast = compiled.broadcast(&inp);
        let copies = compiled.pack(&vec![inp.clone(); 64]);
        assert_eq!(broadcast.lanes(), 64);
        let mut eval = compiled.evaluator();
        assert_eq!(eval.run(&broadcast, &[]), eval.run(&copies, &[]));
    }

    #[test]
    fn diff_mask_reports_detecting_lanes() {
        let nl = generators::c17();
        let compiled = CompiledNetlist::compile(&nl);
        let patterns: Vec<LogicVec> = (0..32).map(|p| LogicVec::from_u64(5, p)).collect();
        let packed = compiled.pack(&patterns);
        let mut eval = compiled.evaluator();
        let good = eval.run(&packed, &[]);
        let target = nl.inputs()[0];
        let faulty = eval.run(&packed, &[Force::net(target, true, u64::MAX)]);
        let mask = good.diff_mask(&faulty);
        // Cross-check every lane against single-pattern evaluation.
        for (lane, pattern) in patterns.iter().enumerate() {
            let scalar_good = compiled.outputs(pattern);
            let scalar_faulty =
                compiled.outputs_with(pattern, &[Force::net(target, true, u64::MAX)]);
            assert_eq!(
                mask >> lane & 1 == 1,
                scalar_good != scalar_faulty,
                "lane {lane}"
            );
        }
        assert_ne!(mask, 0, "an input stuck-at-1 must be detectable on c17");
    }

    #[test]
    fn compile_with_records_engine_metrics() {
        let obs = Collector::with_capacity(1 << 12);
        let nl = generators::ripple_adder(4);
        let compiled = CompiledNetlist::compile_with(&nl, &obs);
        let _ = compiled.outputs(&LogicVec::from_u64(8, 0x5A));
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("engine.plans_compiled"), 1);
        assert_eq!(snap.counter("engine.plan_ops"), nl.gate_count() as u64);
        assert_eq!(snap.counter("engine.passes"), 1);
        assert_eq!(snap.counter("engine.gate_evals"), nl.gate_count() as u64);
        assert_eq!(snap.counter("engine.patterns"), 1);
    }

    #[test]
    #[should_panic(expected = "1..=64 patterns")]
    fn pack_rejects_too_many_patterns() {
        let nl = generators::half_adder();
        let compiled = CompiledNetlist::compile(&nl);
        let patterns = vec![LogicVec::zeros(2); 65];
        let _ = compiled.pack(&patterns);
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn pack_rejects_width_mismatch() {
        let nl = generators::half_adder();
        let compiled = CompiledNetlist::compile(&nl);
        let _ = compiled.pack(&[LogicVec::zeros(3)]);
    }
}
