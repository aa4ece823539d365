//! `mr_tcp`: the paper's Figure 2 circuit in the "Multiplier remote"
//! set-up, over TCP loopback.
//!
//! Two registered 16-bit operands feed a multiplier that lives entirely on
//! the provider: every event is a `functional_eval` round trip, and the
//! gate-level toggle power estimate is a remote call every 5 patterns. The
//! run is almost all RMI: mux server, frame codec, admission and ledger,
//! with next to no gate evaluation.

use std::sync::Arc;
use std::time::Instant;

use vcad_core::stdlib::{CaptureState, PrimaryOutput, Register};
use vcad_core::{
    DesignBuilder, Module, ModuleId, Parameter, SetupController, SetupCriterion,
    SimulationController,
};
use vcad_ip::ComponentOffering;
use vcad_rmi::Transport;

use crate::common::{cpu_seconds, operand_pairs, operand_sources, product_failures, round_rng};
use crate::probe::Exchange;
use crate::remote::{RemoteRig, TENANT};
use crate::trace::Tracer;
use crate::{Round, Workload};

const WIDTH: usize = 16;
/// Patterns per round.
const PATTERNS: usize = 250;
/// The estimation pattern buffer (the paper's 5).
const BUFFER: usize = 5;

pub struct MrTcp {
    seed: u64,
    rig: RemoteRig,
    mult: Arc<dyn Module>,
    /// Published fees, cents: per toggle-power pattern (from the catalog)
    /// and per functional evaluation (the offering's price list).
    toggle_fee: f64,
    eval_fee: f64,
    /// The first traced round's exchanges, kept for the replays.
    first_traced: Option<Vec<Exchange>>,
    tracing: bool,
}

/// Exact equality for fee sums built from the same decimal fees.
fn same_cents(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl MrTcp {
    pub fn setup(seed: u64) -> MrTcp {
        let rig = RemoteRig::start();
        let toggle_fee = rig
            .session
            .catalog()
            .expect("fetch the provider catalog")
            .into_iter()
            .find(|o| o.name == "MultFastLowPower")
            .expect("the provider offers MultFastLowPower")
            .toggle_fee_cents;
        let eval_fee = ComponentOffering::fast_low_power_multiplier()
            .prices()
            .functional_eval;
        let component = rig
            .session
            .instantiate("MultFastLowPower", WIDTH)
            .expect("instantiate the remote multiplier");
        let mult = component
            .fully_remote_module("MULT")
            .expect("build the fully remote module");
        let w = MrTcp {
            seed,
            rig,
            mult,
            toggle_fee,
            eval_fee,
            first_traced: None,
            tracing: false,
        };
        // Elaborate once, so set-up covers design build and binding.
        let pairs = operand_pairs(
            &mut round_rng(seed, "mr_tcp", crate::common::STREAM_SETUP, 0),
            WIDTH,
            PATTERNS,
            true,
        );
        drop(w.controller(&pairs));
        w.rig.probe.reset();
        w
    }

    fn controller(&self, pairs: &[(u64, u64)]) -> (SimulationController, ModuleId) {
        let (ina, inb) = operand_sources("IN", WIDTH, pairs);
        let mut b = DesignBuilder::new("fig2-multiplier-remote");
        let ina = b.add_module(ina);
        let inb = b.add_module(inb);
        let rega = b.add_module(Arc::new(Register::new("REGA", WIDTH)));
        let regb = b.add_module(Arc::new(Register::new("REGB", WIDTH)));
        let mult = b.add_module(Arc::clone(&self.mult));
        let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * WIDTH)));
        b.connect(ina, "out", rega, "d").expect("wire INA");
        b.connect(inb, "out", regb, "d").expect("wire INB");
        b.connect(rega, "q", mult, "a").expect("wire REGA");
        b.connect(regb, "q", mult, "b").expect("wire REGB");
        b.connect(mult, "p", out, "in").expect("wire OUT");
        let design = Arc::new(b.build().expect("figure 2 design is valid"));
        let mut setup = SetupController::new();
        setup.set(
            Parameter::AvgPower,
            SetupCriterion::Named("power/gate-level-toggle".into()),
        );
        setup.set_buffer_size(BUFFER);
        let binding = setup.apply_to(&design, "MULT");
        (SimulationController::new(design).with_setup(binding), out)
    }
}

impl Workload for MrTcp {
    fn round(&mut self, stream: u64, index: u64, tracer: Option<&Tracer>) -> Round {
        let pairs = operand_pairs(
            &mut round_rng(self.seed, "mr_tcp", stream, index),
            WIDTH,
            PATTERNS,
            true,
        );
        let (controller, out) = self.controller(&pairs);
        let calls_before = self.rig.probe.calls();
        let wire_before = self.rig.transport.stats();
        let ledger_before = self.rig.server.ledger().tenant_total_cents(TENANT);

        let span = tracer.map(|t| t.span("core", "core.run"));
        let cpu = cpu_seconds();
        let started = Instant::now();
        let run = controller.run();
        let elapsed = started.elapsed();
        let cpu = cpu_seconds() - cpu;
        drop(span);

        let calls = self.rig.probe.calls() - calls_before;
        let wire = self.rig.transport.stats();
        let bytes = wire.bytes_sent + wire.bytes_received
            - wire_before.bytes_sent
            - wire_before.bytes_received;
        if self.tracing && self.first_traced.is_none() {
            self.first_traced = Some(self.rig.transport.take_capture());
        }
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
        let mut failures = product_failures(run.module_state::<CaptureState>(out), &pairs);
        // Fees: the user pays the published toggle fee once per pattern,
        // and the provider's ledger holds exactly that plus the published
        // fee for each functional evaluation.
        let estimates = run.estimates();
        let client_fees = estimates.total_fees_cents();
        if !same_cents(client_fees, PATTERNS as f64 * self.toggle_fee) {
            failures += 1;
        }
        let evals = calls - estimates.records().len() as u64;
        let ledger = self.rig.server.ledger().tenant_total_cents(TENANT) - ledger_before;
        if !same_cents(ledger, client_fees + evals as f64 * self.eval_fee) {
            failures += 1;
        }
        Round {
            patterns: PATTERNS as u64,
            elapsed,
            cpu,
            events: run.events_processed(),
            checks: PATTERNS as u64 + 2,
            failures,
            exact: vec![
                ("rmi.calls_per_pattern", calls as f64 / PATTERNS as f64),
                ("rmi.bytes_per_call", bytes as f64 / calls.max(1) as f64),
                ("core.events", run.events_processed() as f64),
            ],
        }
    }

    fn take_call_samples(&mut self) -> Vec<u64> {
        self.rig.probe.take_samples()
    }

    fn calls(&self) -> (u64, u64) {
        self.rig.calls()
    }

    fn start_trace(&mut self, tracer: &Arc<Tracer>) {
        self.rig.start_trace(tracer);
        self.tracing = true;
    }

    fn finish_trace(&mut self, tracer: &Tracer) -> (Vec<(&'static str, f64)>, u64, u64) {
        self.tracing = false;
        let mut metrics = self.rig.stop_trace();
        let exchanges = self.first_traced.take().unwrap_or_default();
        let (replayed, checks, failures) = self.rig.replay(&exchanges, tracer);
        metrics.extend(replayed);
        (metrics, checks, failures)
    }
}
