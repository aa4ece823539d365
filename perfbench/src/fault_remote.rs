//! `fault_remote`: the paper's Figure 5 virtual fault simulation of an
//! 8-bit `MultFastLowPower` whose detection tables come from the provider
//! over the same TCP and mux path as `mr_tcp`.
//!
//! The user design drives the IP block's public functional model and
//! observes its product through a gate-level AND mask of the user's own,
//! so some erroneous products are masked and coverage depends on the
//! stimulus. The user side runs the compiled engine with one injection
//! thread. Few, large replies (one table per pattern) instead of
//! `mr_tcp`'s many tiny ones.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_core::stdlib::{NetlistBusBlock, PrimaryOutput, VectorInput};
use vcad_core::{Design, DesignBuilder, EngineKind, ModuleId};
use vcad_faults::{
    CoverageReport, DetectionTableSource, IpBlockBinding, NetlistDetectionSource, VirtualFaultSim,
};
use vcad_ip::{ComponentOffering, PublicPart};
use vcad_logic::LogicVec;
use vcad_netlist::{GateKind, Netlist, NetlistBuilder};
use vcad_rmi::Frame;

use crate::common::{cpu_seconds, operand_pairs, round_rng, STREAM_SETUP};
use crate::probe::{CallProbe, Exchange, TimedSource};
use crate::remote::RemoteRig;
use crate::trace::Tracer;
use crate::{Round, Workload};

/// Exchanges over TCP, and detection-table inputs with their latencies.
type Capture = (Vec<Exchange>, Vec<(LogicVec, Duration)>);

const WIDTH: usize = 8;
/// Patterns per round.
const PATTERNS: usize = 100;

pub struct FaultRemote {
    seed: u64,
    rig: RemoteRig,
    public: PublicPart,
    mask: Arc<Netlist>,
    table_probe: Arc<CallProbe>,
    source: Arc<TimedSource>,
    /// The provider's netlist, known to the benchmark only: the reference
    /// detected set, and the provider-side table replay, are computed on it.
    provider_netlist: Arc<Netlist>,
    reference: Arc<NetlistDetectionSource>,
    tracing: bool,
    /// The first traced round's exchanges and table requests, kept for
    /// the replays.
    first_traced: Option<Capture>,
}

/// The user's observation logic: `o = p AND m`, bit by bit.
fn and_mask(width: usize) -> Arc<Netlist> {
    let mut nb = NetlistBuilder::new("and-mask");
    let p = nb.input_bus("p", width);
    let m = nb.input_bus("m", width);
    let o: Vec<_> = p
        .iter()
        .zip(&m)
        .map(|(&x, &y)| nb.gate(GateKind::And, &[x, y]))
        .collect();
    nb.output_bus("o", &o);
    Arc::new(nb.build().expect("the mask netlist is well formed"))
}

impl FaultRemote {
    pub fn setup(seed: u64) -> FaultRemote {
        let rig = RemoteRig::start();
        let component = rig
            .session
            .instantiate("MultFastLowPower", WIDTH)
            .expect("instantiate the remote multiplier");
        let table_probe = CallProbe::new();
        let source = TimedSource::new(component.detection_source(), Arc::clone(&table_probe));
        let provider_netlist = ComponentOffering::fast_low_power_multiplier().instantiate(WIDTH);
        let reference = Arc::new(
            NetlistDetectionSource::new(Arc::clone(&provider_netlist))
                .with_engine(EngineKind::Compiled),
        );
        let w = FaultRemote {
            seed,
            public: component.public_part().clone(),
            rig,
            mask: and_mask(2 * WIDTH),
            table_probe,
            source,
            provider_netlist,
            reference,
            tracing: false,
            first_traced: None,
        };
        // Elaborate once, so set-up covers design build and compilation.
        let (design, _, _) = w.design(STREAM_SETUP, 0);
        drop(design.compiled_overrides());
        w.rig.probe.reset();
        w
    }

    /// The round's design: operands and mask replayed one pattern per
    /// tick, returning the design, the IP block and the observed output.
    fn design(&self, stream: u64, index: u64) -> (Arc<Design>, ModuleId, ModuleId) {
        let mut rng = round_rng(self.seed, "fault_remote", stream, index);
        let pairs = operand_pairs(&mut rng, WIDTH, PATTERNS, true);
        let masks = operand_pairs(&mut rng, 2 * WIDTH, PATTERNS, false);
        let vectors = |f: &dyn Fn(usize) -> u64, width: usize| {
            (0..PATTERNS)
                .map(|i| LogicVec::from_u64(width, f(i)))
                .collect::<Vec<_>>()
        };
        let mut b = DesignBuilder::new("figure5-fault-remote");
        let a = b.add_module(Arc::new(VectorInput::new(
            "A",
            vectors(&|i| pairs[i].0, WIDTH),
        )));
        let bb = b.add_module(Arc::new(VectorInput::new(
            "B",
            vectors(&|i| pairs[i].1, WIDTH),
        )));
        let m = b.add_module(Arc::new(VectorInput::new(
            "M",
            vectors(&|i| masks[i].0, 2 * WIDTH),
        )));
        let ip = b.add_module(
            self.public
                .instantiate("MULT")
                .expect("instantiate the public functional model"),
        );
        let mask = b.add_module(Arc::new(NetlistBusBlock::new(
            "MASK",
            Arc::clone(&self.mask),
            &[("p", 2 * WIDTH), ("m", 2 * WIDTH)],
            &[("o", 2 * WIDTH)],
        )));
        let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * WIDTH)));
        b.connect(a, "out", ip, "a").expect("wire A");
        b.connect(bb, "out", ip, "b").expect("wire B");
        b.connect(ip, "p", mask, "p").expect("wire P");
        b.connect(m, "out", mask, "m").expect("wire M");
        b.connect(mask, "o", out, "in").expect("wire OUT");
        (
            Arc::new(b.build().expect("figure 5 design is valid")),
            ip,
            out,
        )
    }

    fn simulate(
        design: &Arc<Design>,
        ip: ModuleId,
        out: ModuleId,
        source: Arc<dyn DetectionTableSource>,
    ) -> Option<CoverageReport> {
        VirtualFaultSim::new(
            Arc::clone(design),
            vec![IpBlockBinding { module: ip, source }],
            vec![out],
        )
        .ok()?
        .with_engine(EngineKind::Compiled)
        .run()
        .ok()
    }
}

impl Workload for FaultRemote {
    fn round(&mut self, stream: u64, index: u64, tracer: Option<&Tracer>) -> Round {
        let (design, ip, out) = self.design(stream, index);
        let source = Arc::clone(&self.source) as Arc<dyn DetectionTableSource>;

        let span = tracer.map(|t| t.span("faults", "faults.run"));
        let cpu = cpu_seconds();
        let started = Instant::now();
        let report = Self::simulate(&design, ip, out, source);
        let elapsed = started.elapsed();
        let cpu = cpu_seconds() - cpu;
        drop(span);

        if self.tracing && self.first_traced.is_none() {
            self.first_traced = Some((
                self.rig.transport.take_capture(),
                self.source.take_capture(),
            ));
        }
        let checks = PATTERNS as u64 + 1;
        let Some(report) = report else {
            return Round {
                patterns: 0,
                elapsed,
                cpu,
                events: 0,
                checks,
                failures: checks,
                exact: Vec::new(),
            };
        };
        // The detected set, in detection order, and the coverage after
        // every pattern must equal a local run on the provider's netlist.
        let reference = Self::simulate(&design, ip, out, Arc::clone(&self.reference) as _);
        let failures = match &reference {
            Some(r) => {
                let (got, want) = (&report.blocks[0], &r.blocks[0]);
                let mismatched = (0..PATTERNS)
                    .filter(|&i| got.history.get(i) != want.history.get(i))
                    .count() as u64;
                mismatched + u64::from(got.detected != want.detected)
            }
            None => checks,
        };
        Round {
            patterns: report.patterns as u64,
            elapsed,
            cpu,
            events: 0,
            checks,
            failures,
            exact: vec![
                ("faults.tables_requested", report.tables_requested as f64),
                ("faults.injections", report.injections as f64),
            ],
        }
    }

    fn take_call_samples(&mut self) -> Vec<u64> {
        self.rig.probe.take_samples()
    }

    fn calls(&self) -> (u64, u64) {
        let (attempted, failed) = self.rig.calls();
        (attempted, failed + self.table_probe.errors())
    }

    fn start_trace(&mut self, tracer: &Arc<Tracer>) {
        self.rig.start_trace(tracer);
        self.table_probe.set_tracer(Some(Arc::clone(tracer)));
        self.source.start_capture();
        self.tracing = true;
    }

    fn finish_trace(&mut self, tracer: &Tracer) -> (Vec<(&'static str, f64)>, u64, u64) {
        self.tracing = false;
        self.table_probe.set_tracer(None);
        let mut metrics = self.rig.stop_trace();
        let (exchanges, tables) = self.first_traced.take().unwrap_or_default();
        let (replayed, mut checks, mut failures) = self.rig.replay(&exchanges, tracer);
        metrics.extend(replayed);

        // The calls and bytes of the exact-count round.
        let mut table_bytes = 0;
        let mut table_calls = 0;
        for e in &exchanges {
            if let Ok(Frame::Call(call)) = Frame::decode(&e.request) {
                if call.method == "detection_table" {
                    table_bytes += e.response.len();
                    table_calls += 1;
                }
            }
        }
        let wire = exchanges
            .iter()
            .map(|e| e.request.len() + e.response.len())
            .sum::<usize>();
        metrics.push((
            "rmi.calls_per_pattern",
            exchanges.len() as f64 / PATTERNS as f64,
        ));
        metrics.push((
            "rmi.bytes_per_call",
            wire as f64 / exchanges.len().max(1) as f64,
        ));
        metrics.push((
            "rmi.bytes_per_table",
            table_bytes as f64 / f64::from(table_calls.max(1)),
        ));

        // The same inputs through the provider's own table engine, locally.
        let provider = NetlistDetectionSource::new(Arc::clone(&self.provider_netlist));
        let mut provider_time = Duration::ZERO;
        {
            let _replay = tracer.span("perfbench", "replay");
            for (inputs, _) in &tables {
                let span = tracer.span("faults", "faults.provider_table");
                let started = Instant::now();
                let table = provider.detection_table(inputs);
                provider_time += started.elapsed();
                drop(span);
                checks += 1;
                if table.is_err() {
                    failures += 1;
                }
            }
        }
        let n = tables.len().max(1) as f64;
        let client: Duration = tables.iter().map(|(_, d)| *d).sum();
        let table_ms = client.as_secs_f64() * 1e3 / n;
        let provider_ms = provider_time.as_secs_f64() * 1e3 / n;
        metrics.push(("faults.table_ms", table_ms));
        metrics.push(("faults.provider_table_ms", provider_ms));
        metrics.push(("rmi.table_wire_ms", table_ms - provider_ms));
        (metrics, checks, failures)
    }
}
