//! Gate-level netlist blocks: mixing gate level into an RTL design.

use std::sync::Arc;

use vcad_engine::{CompiledNetlist, EngineKind, PackedEvaluator, PackedOutputs};
use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, Netlist};

use crate::module::{Module, ModuleCtx, PortSpec};

/// Wraps a combinational [`Netlist`] as a module with one single-bit port
/// per netlist primary input and output.
///
/// Ports are ordered netlist inputs first (named after their nets), then
/// netlist outputs. Whenever an input changes, the whole netlist is
/// re-evaluated and any changed outputs are emitted — a functional
/// zero-delay gate-level model. [`NetlistBlock::with_engine`] swaps the
/// per-evaluation scalar walk for the compiled levelized plan; results
/// are bit-identical either way.
#[derive(Debug)]
pub struct NetlistBlock(GateBlock);

impl NetlistBlock {
    /// Creates a block over `netlist`.
    #[must_use]
    pub fn new(name: impl Into<String>, netlist: Arc<Netlist>) -> NetlistBlock {
        let mut ports = Vec::with_capacity(netlist.input_count() + netlist.output_count());
        for &net in netlist.inputs() {
            ports.push(PortSpec::input(netlist.net(net).name(), 1));
        }
        for (out_name, _) in netlist.outputs() {
            ports.push(PortSpec::output(out_name.clone(), 1));
        }
        let input_ports = netlist.input_count();
        NetlistBlock(GateBlock::new(name.into(), netlist, ports, input_ports))
    }

    /// Selects the gate-evaluation backend. `Compiled` compiles the
    /// netlist once, up front; each scheduler that runs the block then
    /// keeps one [`PackedEvaluator`] in its state store, created on the
    /// block's first evaluation and reused for every later one, so an
    /// evaluation is one broadcast load plus one unforced plan sweep.
    #[must_use]
    pub fn with_engine(self, engine: EngineKind) -> NetlistBlock {
        NetlistBlock(self.0.with_engine(engine))
    }

    /// The backend this block evaluates on.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.0.engine()
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.0.netlist
    }
}

impl Module for NetlistBlock {
    fn name(&self) -> &str {
        &self.0.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.0.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        self.0.evaluate(ctx);
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        Some(Arc::new(NetlistBlock(self.0.compiled_twin()?)))
    }
}

/// Wraps a combinational [`Netlist`] behind *bus* ports.
///
/// The netlist's primary inputs, in declaration order, are split across the
/// declared input buses; likewise for outputs. This is how a gate-level
/// multiplier (`a[16]`, `b[16]` → `p[32]`) plugs into a word-level design —
/// the paper's mixed-level support.
#[derive(Debug)]
pub struct NetlistBusBlock(GateBlock);

impl NetlistBusBlock {
    /// Creates a bus block, partitioning netlist inputs/outputs over the
    /// named buses.
    ///
    /// # Panics
    ///
    /// Panics if the bus widths do not sum to the netlist's input and
    /// output counts.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        netlist: Arc<Netlist>,
        input_buses: &[(&str, usize)],
        output_buses: &[(&str, usize)],
    ) -> NetlistBusBlock {
        let in_total: usize = input_buses.iter().map(|(_, w)| w).sum();
        let out_total: usize = output_buses.iter().map(|(_, w)| w).sum();
        assert_eq!(
            in_total,
            netlist.input_count(),
            "input buses must cover all netlist inputs"
        );
        assert_eq!(
            out_total,
            netlist.output_count(),
            "output buses must cover all netlist outputs"
        );
        let mut ports = Vec::new();
        for (n, w) in input_buses {
            ports.push(PortSpec::input(*n, *w));
        }
        for (n, w) in output_buses {
            ports.push(PortSpec::output(*n, *w));
        }
        NetlistBusBlock(GateBlock::new(
            name.into(),
            netlist,
            ports,
            input_buses.len(),
        ))
    }

    /// Selects the gate-evaluation backend. `Compiled` compiles the
    /// netlist once, up front; each scheduler that runs the block then
    /// keeps one [`PackedEvaluator`] in its state store, created on the
    /// block's first evaluation and reused for every later one, so an
    /// evaluation is one broadcast load plus one unforced plan sweep.
    #[must_use]
    pub fn with_engine(self, engine: EngineKind) -> NetlistBusBlock {
        NetlistBusBlock(self.0.with_engine(engine))
    }

    /// The backend this block evaluates on.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.0.engine()
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.0.netlist
    }
}

impl Module for NetlistBusBlock {
    fn name(&self) -> &str {
        &self.0.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.0.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        self.0.evaluate(ctx);
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        Some(Arc::new(NetlistBusBlock(self.0.compiled_twin()?)))
    }
}

/// The body both block flavours share: the netlist's primary inputs,
/// in order, split over the first `input_ports` ports, its outputs over
/// the rest.
#[derive(Debug)]
struct GateBlock {
    name: String,
    netlist: Arc<Netlist>,
    ports: Vec<PortSpec>,
    input_ports: usize,
    compiled: Option<CompiledNetlist>,
}

impl GateBlock {
    fn new(
        name: String,
        netlist: Arc<Netlist>,
        ports: Vec<PortSpec>,
        input_ports: usize,
    ) -> GateBlock {
        GateBlock {
            name,
            netlist,
            ports,
            input_ports,
            compiled: None,
        }
    }

    fn with_engine(mut self, engine: EngineKind) -> GateBlock {
        self.compiled = match engine {
            EngineKind::Event => None,
            EngineKind::Compiled => Some(CompiledNetlist::compile(&self.netlist)),
        };
        self
    }

    fn engine(&self) -> EngineKind {
        if self.compiled.is_some() {
            EngineKind::Compiled
        } else {
            EngineKind::Event
        }
    }

    /// A compiled copy, or `None` when this block is already compiled.
    fn compiled_twin(&self) -> Option<GateBlock> {
        if self.compiled.is_some() {
            return None;
        }
        let twin = GateBlock::new(
            self.name.clone(),
            Arc::clone(&self.netlist),
            self.ports.clone(),
            self.input_ports,
        );
        Some(twin.with_engine(EngineKind::Compiled))
    }

    /// Re-evaluates the netlist on the latched inputs and emits every
    /// output port whose value changed.
    fn evaluate(&self, ctx: &mut ModuleCtx<'_>) {
        let inputs =
            LogicVec::from_bits((0..self.input_ports).flat_map(|i| ctx.port_value(i).iter()));
        let outputs = match &self.compiled {
            Some(c) => {
                // Every lane carries the same pattern; lane 0 is read.
                let packed = c.broadcast(&inputs);
                let eval = ctx
                    .state::<Option<PackedEvaluator>>()
                    .get_or_insert_with(|| c.evaluator());
                Outputs::Packed(eval.run(&packed, &[]))
            }
            None => Outputs::Scalar(Evaluator::new(&self.netlist).outputs(&inputs)),
        };
        let mut offset = 0;
        for (i, spec) in self.ports.iter().enumerate().skip(self.input_ports) {
            let value = outputs.slice(offset, spec.width());
            offset += spec.width();
            if *ctx.port_value(i) != value {
                ctx.emit(i, value);
            }
        }
    }
}

/// One evaluation's primary outputs on either backend.
enum Outputs {
    Scalar(LogicVec),
    Packed(PackedOutputs),
}

impl Outputs {
    /// Outputs `lsb..lsb + width`.
    fn slice(&self, lsb: usize, width: usize) -> LogicVec {
        match self {
            Outputs::Scalar(v) => v.slice(lsb, width),
            Outputs::Packed(p) => {
                LogicVec::from_bits((lsb..lsb + width).map(|k| p.word(k).lane(0)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, DesignBuilder, ModuleId};
    use crate::stdlib::{CaptureState, PrimaryOutput, VectorInput};
    use crate::{SimRun, SimulationController};
    use vcad_logic::Logic;
    use vcad_netlist::generators;

    #[test]
    fn bit_block_computes_half_adder() {
        let ha = Arc::new(generators::half_adder());
        let block = NetlistBlock::new("HA", Arc::clone(&ha));
        assert_eq!(block.ports().len(), 4);
        assert_eq!(block.ports()[0].name(), "a");
        assert_eq!(block.ports()[2].name(), "sum");

        let mut b = DesignBuilder::new("t");
        let pat_a = b.add_module(Arc::new(VectorInput::new(
            "A",
            vec!["1".parse().unwrap(), "1".parse().unwrap()],
        )));
        let pat_b = b.add_module(Arc::new(VectorInput::new(
            "B",
            vec!["0".parse().unwrap(), "1".parse().unwrap()],
        )));
        let haid = b.add_module(Arc::new(block));
        let sum = b.add_module(Arc::new(PrimaryOutput::new("SUM", 1)));
        let carry = b.add_module(Arc::new(PrimaryOutput::new("CARRY", 1)));
        b.connect(pat_a, "out", haid, "a").unwrap();
        b.connect(pat_b, "out", haid, "b").unwrap();
        b.connect(haid, "sum", sum, "in").unwrap();
        b.connect(haid, "carry", carry, "in").unwrap();
        let d = Arc::new(b.build().unwrap());
        let run = SimulationController::new(d).run().unwrap();
        // t0: a=1,b=0 -> sum=1 carry=0; t1: a=1,b=1 -> sum=0 carry=1.
        // Output latches start at X, so the first defined value (carry=0)
        // is itself a change and is emitted.
        let sums = run.module_state::<CaptureState>(sum).unwrap().words();
        let carries = run.module_state::<CaptureState>(carry).unwrap().words();
        assert_eq!(sums, vec![1, 0]);
        assert_eq!(carries, vec![0, 1]);
    }

    #[test]
    fn bus_block_computes_multiplication() {
        let mul = Arc::new(generators::wallace_multiplier(4));
        let block = NetlistBusBlock::new("MUL", mul, &[("a", 4), ("b", 4)], &[("p", 8)]);

        let mut b = DesignBuilder::new("t");
        let ia = b.add_module(Arc::new(VectorInput::new(
            "A",
            vec![LogicVec::from_u64(4, 7), LogicVec::from_u64(4, 12)],
        )));
        let ib = b.add_module(Arc::new(VectorInput::new(
            "B",
            vec![LogicVec::from_u64(4, 5), LogicVec::from_u64(4, 13)],
        )));
        let m = b.add_module(Arc::new(block));
        let o = b.add_module(Arc::new(PrimaryOutput::new("P", 8)));
        b.connect(ia, "out", m, "a").unwrap();
        b.connect(ib, "out", m, "b").unwrap();
        b.connect(m, "p", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());
        let run = SimulationController::new(d).run().unwrap();
        let products = run.module_state::<CaptureState>(o).unwrap().words();
        // At t1 the new `a` arrives before the new `b` within the same
        // instant, so the block transiently evaluates 12 × 5 = 60 — genuine
        // event-driven (glitching) behaviour.
        assert_eq!(products, vec![35, 60, 156]);
    }

    #[test]
    #[should_panic(expected = "input buses must cover")]
    fn bus_block_validates_widths() {
        let mul = Arc::new(generators::wallace_multiplier(4));
        let _ = NetlistBusBlock::new("MUL", mul, &[("a", 4)], &[("p", 8)]);
    }

    /// Stimulus for one `width`-bit port: mostly binary, with `X` and
    /// `Z` bits mixed in when `four_valued`.
    fn stimulus(width: usize, salt: u64, four_valued: bool) -> Vec<LogicVec> {
        (0..12u64)
            .map(|t| {
                LogicVec::from_bits((0..width as u64).map(|i| {
                    match (t * 7 + i * 3 + salt * 5) % 9 {
                        0 if four_valued => Logic::X,
                        1 if four_valued => Logic::Z,
                        n => Logic::from((t * 11 + i + salt + n).is_multiple_of(3)),
                    }
                }))
            })
            .collect()
    }

    /// A design of `block` with a vector source on every input port and
    /// a capture on every output port; returns the block and the captures.
    fn harness(
        block: Arc<dyn Module>,
        four_valued: bool,
    ) -> (Arc<Design>, ModuleId, Vec<ModuleId>) {
        let ports = block.ports().to_vec();
        let mut b = DesignBuilder::new("t");
        let m = b.add_module(block);
        let mut outs = Vec::new();
        for (k, spec) in ports.iter().enumerate() {
            if spec.direction().accepts_input() {
                let src = b.add_module(Arc::new(VectorInput::new(
                    format!("IN{k}"),
                    stimulus(spec.width(), k as u64, four_valued),
                )));
                b.connect(src, "out", m, spec.name()).unwrap();
            } else {
                let o = b.add_module(Arc::new(PrimaryOutput::new(format!("O{k}"), spec.width())));
                b.connect(m, spec.name(), o, "in").unwrap();
                outs.push(o);
            }
        }
        (Arc::new(b.build().unwrap()), m, outs)
    }

    fn wallace_bus_block() -> NetlistBusBlock {
        let mul = Arc::new(generators::wallace_multiplier(4));
        NetlistBusBlock::new("MUL", mul, &[("a", 4), ("b", 4)], &[("p", 8)])
    }

    fn c17_block() -> NetlistBlock {
        NetlistBlock::new("C17", Arc::new(generators::c17()))
    }

    /// Event log, event count and every capture history must match.
    fn assert_runs_identical(a: &SimRun, b: &SimRun, outs: &[ModuleId], context: &str) {
        assert!(
            a.event_log().is_some_and(|log| !log.is_empty()),
            "{context}"
        );
        assert_eq!(a.event_log(), b.event_log(), "{context}");
        assert_eq!(a.events_processed(), b.events_processed(), "{context}");
        for &o in outs {
            assert_eq!(
                a.module_state::<CaptureState>(o).unwrap().history(),
                b.module_state::<CaptureState>(o).unwrap().history(),
                "{context}: capture {o}"
            );
        }
    }

    #[test]
    fn compiled_engine_runs_are_bit_identical() {
        let bus = wallace_bus_block();
        let bit = c17_block();
        for block in [&bus as &dyn Module, &bit] {
            assert!(block.compiled_twin().is_some());
            assert!(block
                .compiled_twin()
                .and_then(|t| t.compiled_twin())
                .is_none());
        }
        assert_eq!(bus.engine(), EngineKind::Event);
        assert_eq!(bit.engine(), EngineKind::Event);

        let blocks: [(&str, Arc<dyn Module>); 2] = [("bus", Arc::new(bus)), ("bit", Arc::new(bit))];
        for (label, block) in blocks {
            for four_valued in [false, true] {
                let (d, _, outs) = harness(Arc::clone(&block), four_valued);
                let event = SimulationController::new(Arc::clone(&d))
                    .record_events()
                    .run()
                    .unwrap();
                let compiled = SimulationController::new(d)
                    .with_engine(EngineKind::Compiled)
                    .record_events()
                    .run()
                    .unwrap();
                let context = format!("{label} block, four-valued {four_valued}");
                assert_runs_identical(&event, &compiled, &outs, &context);
            }
        }
    }

    #[test]
    fn concurrent_compiled_runs_keep_one_evaluator_per_scheduler() {
        let block = |label: &str, engine: EngineKind| -> Arc<dyn Module> {
            match label {
                "bus" => Arc::new(wallace_bus_block().with_engine(engine)),
                _ => Arc::new(c17_block().with_engine(engine)),
            }
        };
        for label in ["bus", "bit"] {
            let (d, _, outs) = harness(block(label, EngineKind::Event), true);
            let event = SimulationController::new(d).record_events().run().unwrap();
            // Four schedulers share one compiled block.
            let (d, id, _) = harness(block(label, EngineKind::Compiled), true);
            let runs = SimulationController::new(d)
                .record_events()
                .run_concurrent(4)
                .unwrap();
            assert_eq!(runs.len(), 4);
            for (k, run) in runs.iter().enumerate() {
                assert_runs_identical(&event, run, &outs, &format!("{label} block, run {k}"));
                assert!(
                    run.module_state::<Option<PackedEvaluator>>(id)
                        .is_some_and(Option::is_some),
                    "{label} block, run {k}: the evaluator lives in the run's state store"
                );
            }
        }
    }
}
