//! `gate_local`: eight independent 16-bit pipelines, each two registered
//! operands feeding a gate-level Wallace multiplier, scheduled on two
//! shards with the compiled engine. No provider: all the time goes to
//! scheduler dispatch and gate evaluation, none to RMI.

use std::sync::Arc;
use std::time::Instant;

use vcad_core::stdlib::{CaptureState, NetlistBusBlock, PrimaryOutput, Register};
use vcad_core::{
    DesignBuilder, EngineKind, Module, ModuleId, ShardPolicy, SimEngine, SimulationController,
};
use vcad_netlist::generators;
use vcad_obs::Collector;

use crate::common::{
    cpu_seconds, operand_pairs, operand_sources, product_failures, round_rng, STREAM_SETUP,
    STREAM_TRACED,
};
use crate::probe::{CallProbe, TimedModule};
use crate::trace::Tracer;
use crate::{Round, Workload};

const WIDTH: usize = 16;
const PIPELINES: usize = 8;
/// Patterns per pipeline per round.
const PATTERNS: usize = 1500;
/// Scheduler shards: the 2-core host the figures were taken on.
const SHARDS: usize = 2;

struct RoundDesign {
    controller: SimulationController,
    outs: Vec<ModuleId>,
    operands: Vec<Vec<(u64, u64)>>,
}

pub struct GateLocal {
    seed: u64,
    /// One timed multiplier per pipeline, each with its own probe so the
    /// two shard threads never share a sample buffer.
    mults: Vec<Arc<dyn Module>>,
    probes: Vec<Arc<CallProbe>>,
}

impl GateLocal {
    pub fn setup(seed: u64) -> GateLocal {
        let netlist = Arc::new(generators::wallace_multiplier(WIDTH));
        let probes: Vec<Arc<CallProbe>> = (0..PIPELINES).map(|_| CallProbe::new()).collect();
        let mults = probes
            .iter()
            .enumerate()
            .map(|(k, probe)| {
                let block: Arc<dyn Module> = Arc::new(NetlistBusBlock::new(
                    format!("MULT{k}"),
                    Arc::clone(&netlist),
                    &[("a", WIDTH), ("b", WIDTH)],
                    &[("p", 2 * WIDTH)],
                ));
                TimedModule::new(block, Arc::clone(probe)) as Arc<dyn Module>
            })
            .collect();
        let w = GateLocal {
            seed,
            mults,
            probes,
        };
        // Elaborate and compile once, so set-up covers both.
        let round = w.controller(STREAM_SETUP, 0);
        drop(round.controller.design().compiled_overrides());
        w
    }

    /// The round's design and controller, with each pipeline's output and
    /// operands.
    fn controller(&self, stream: u64, index: u64) -> RoundDesign {
        let mut rng = round_rng(self.seed, "gate_local", stream, index);
        let mut b = DesignBuilder::new("gate-local");
        let mut outs = Vec::with_capacity(PIPELINES);
        let mut operands = Vec::with_capacity(PIPELINES);
        for (k, m) in self.mults.iter().enumerate() {
            let pairs = operand_pairs(&mut rng, WIDTH, PATTERNS, true);
            let (ina, inb) = operand_sources(&format!("IN{k}"), WIDTH, &pairs);
            let ina = b.add_module(ina);
            let inb = b.add_module(inb);
            let rega = b.add_module(Arc::new(Register::new(format!("REGA{k}"), WIDTH)));
            let regb = b.add_module(Arc::new(Register::new(format!("REGB{k}"), WIDTH)));
            let mult = b.add_module(Arc::clone(m));
            let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{k}"), 2 * WIDTH)));
            b.connect(ina, "out", rega, "d").expect("wire INA");
            b.connect(inb, "out", regb, "d").expect("wire INB");
            b.connect(rega, "q", mult, "a").expect("wire REGA");
            b.connect(regb, "q", mult, "b").expect("wire REGB");
            b.connect(mult, "p", out, "in").expect("wire OUT");
            outs.push(out);
            operands.push(pairs);
        }
        let design = Arc::new(b.build().expect("gate-local design is valid"));
        let controller = SimulationController::new(design)
            .with_engine(EngineKind::Compiled)
            .with_shards(ShardPolicy::Auto(SHARDS));
        RoundDesign {
            controller,
            outs,
            operands,
        }
    }

    /// Events per shard, max over mean, for the exact-count round, read
    /// from the scheduler's own `sched.shard.*` counters.
    ///
    /// `SimulationController::run` absorbs its run collector before the
    /// sharded scheduler flushes those counters into it, so they never
    /// reach the caller; this replays the round on `SimEngine` directly,
    /// the way the controller drives it, and reads them there.
    fn shard_imbalance(&self) -> Option<f64> {
        let design = Arc::clone(self.controller(STREAM_TRACED, 0).controller.design());
        let counters = Collector::disabled();
        let mut engine = SimEngine::new(Arc::clone(&design), &ShardPolicy::Auto(SHARDS)).ok()?;
        for (id, twin) in design.compiled_overrides() {
            engine.override_module(id, twin);
        }
        engine.set_collector(&counters);
        engine.init();
        engine.run(None).ok()?;
        drop(engine.into_state_store());
        let gauges = counters.metrics().snapshot().gauges;
        let load = |n: &str| gauges.get(n).map(|g| g.value as f64);
        let max = load("sched.shard.load.max_events")?;
        let min = load("sched.shard.load.min_events")?;
        // Two shards: their mean is the mean of the max and the min.
        Some(2.0 * max / (max + min))
    }

    fn evals(&self) -> u64 {
        self.probes.iter().map(|p| p.calls()).sum()
    }
}

impl Workload for GateLocal {
    fn round(&mut self, stream: u64, index: u64, tracer: Option<&Tracer>) -> Round {
        let RoundDesign {
            controller,
            outs,
            operands,
        } = self.controller(stream, index);
        let evals_before = self.evals();

        let span = tracer.map(|t| t.span("core", "core.run"));
        if let (Some(t), Some(s)) = (tracer, &span) {
            t.set_fallback_parent(s.id());
        }
        let cpu = cpu_seconds();
        let started = Instant::now();
        let run = controller.run();
        let elapsed = started.elapsed();
        let cpu = cpu_seconds() - cpu;
        drop(span);

        let evals = self.evals() - evals_before;
        let patterns = (PIPELINES * PATTERNS) as u64;
        let Ok(run) = run else {
            return Round {
                patterns: 0,
                elapsed,
                cpu,
                events: 0,
                checks: 1,
                failures: 1,
                exact: Vec::new(),
            };
        };
        let failures = outs
            .iter()
            .zip(&operands)
            .map(|(&out, pairs)| product_failures(run.module_state::<CaptureState>(out), pairs))
            .sum();
        Round {
            patterns,
            elapsed,
            cpu,
            events: run.events_processed(),
            checks: patterns,
            failures,
            exact: vec![
                ("core.events", run.events_processed() as f64),
                ("engine.evals", evals as f64),
            ],
        }
    }

    fn take_call_samples(&mut self) -> Vec<u64> {
        self.probes.iter().flat_map(|p| p.take_samples()).collect()
    }

    fn calls(&self) -> (u64, u64) {
        (0, self.probes.iter().map(|p| p.errors()).sum())
    }

    fn start_trace(&mut self, tracer: &Arc<Tracer>) {
        for p in &self.probes {
            p.set_tracer(Some(Arc::clone(tracer)));
        }
    }

    fn finish_trace(&mut self, _tracer: &Tracer) -> (Vec<(&'static str, f64)>, u64, u64) {
        for p in &self.probes {
            p.set_tracer(None);
        }
        match self.shard_imbalance() {
            Some(imbalance) => (vec![("core.shard_imbalance", imbalance)], 1, 0),
            None => (Vec::new(), 1, 1),
        }
    }
}
