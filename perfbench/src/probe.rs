//! Benchmark-owned wrappers around the program's public traits.
//!
//! Every per-layer number comes from outside the program: these wrappers
//! time the calls that cross a trait boundary (`Transport`, `Module`,
//! `DetectionTableSource`), and in a traced phase also record one vcad-obs
//! span per call into the benchmark's own collector. The program's
//! collectors stay disabled throughout.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vcad_core::{Module, ModuleCtx, PortSpec};
use vcad_faults::{DetectionTable, DetectionTableSource, SymbolicFault, VirtualSimError};
use vcad_logic::LogicVec;
use vcad_rmi::{RmiError, Transport, TransportStats, Value};

use crate::trace::{Span, Tracer};

/// Latency samples and counts for one kind of call.
///
/// Samples are kept raw (nanoseconds), so quantiles are exact order
/// statistics rather than histogram bucket floors.
#[derive(Default)]
pub struct CallProbe {
    samples: Mutex<Vec<u64>>,
    calls: AtomicU64,
    errors: AtomicU64,
    /// Set during a traced phase: one span per call goes here.
    tracer: Mutex<Option<Arc<Tracer>>>,
}

impl CallProbe {
    pub fn new() -> Arc<CallProbe> {
        Arc::new(CallProbe::default())
    }

    /// Records one span per call into `tracer` (or stops, with `None`).
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.lock().expect("probe tracer lock") = tracer;
    }

    fn span(&self, category: &'static str, name: &'static str) -> Option<Span> {
        let tracer = self.tracer.lock().expect("probe tracer lock").clone();
        tracer.map(|t| t.span(category, name))
    }

    fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.samples.lock().expect("probe samples lock").push(ns);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls whose inner implementation returned an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Removes and returns every sample recorded so far.
    pub fn take_samples(&self) -> Vec<u64> {
        std::mem::take(&mut *self.samples.lock().expect("probe samples lock"))
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        self.take_samples();
        self.calls.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
    }
}

/// One captured round trip: request bytes, response bytes, client-observed
/// latency.
pub struct Exchange {
    pub request: Vec<u8>,
    pub response: Vec<u8>,
    pub latency: Duration,
}

/// Times every [`Transport::call`] of the wrapped transport; with
/// capture on, keeps each request/response pair for replay.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    probe: Arc<CallProbe>,
    capture: Mutex<Option<Vec<Exchange>>>,
}

impl TimedTransport {
    pub fn new(inner: Arc<dyn Transport>, probe: Arc<CallProbe>) -> Arc<TimedTransport> {
        Arc::new(TimedTransport {
            inner,
            probe,
            capture: Mutex::new(None),
        })
    }

    /// Starts keeping every exchange (dropping any kept before).
    pub fn start_capture(&self) {
        *self.capture.lock().expect("capture lock") = Some(Vec::new());
    }

    /// Stops capturing and returns what was kept.
    pub fn take_capture(&self) -> Vec<Exchange> {
        self.capture
            .lock()
            .expect("capture lock")
            .take()
            .unwrap_or_default()
    }
}

impl Transport for TimedTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let span = self.probe.span("rmi", "rmi.call");
        let started = Instant::now();
        let result = self.inner.call(request);
        let latency = started.elapsed();
        drop(span);
        self.probe.record(latency);
        match &result {
            Ok(response) => {
                if let Some(kept) = self.capture.lock().expect("capture lock").as_mut() {
                    kept.push(Exchange {
                        request: request.to_vec(),
                        response: response.clone(),
                        latency,
                    });
                }
            }
            Err(_) => {
                self.probe.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Times every [`Module::on_signal`] of the wrapped module. The compiled
/// twin is wrapped too, sharing the probe, so an `EngineKind::Compiled`
/// run is measured exactly like an event-mode one.
pub struct TimedModule {
    inner: Arc<dyn Module>,
    probe: Arc<CallProbe>,
}

impl TimedModule {
    pub fn new(inner: Arc<dyn Module>, probe: Arc<CallProbe>) -> Arc<TimedModule> {
        Arc::new(TimedModule { inner, probe })
    }
}

impl Module for TimedModule {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ports(&self) -> &[PortSpec] {
        self.inner.ports()
    }

    fn init(&self, ctx: &mut ModuleCtx<'_>) {
        self.inner.init(ctx);
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, port: usize, value: &LogicVec) {
        let span = self.probe.span("engine", "engine.eval");
        let started = Instant::now();
        self.inner.on_signal(ctx, port, value);
        let elapsed = started.elapsed();
        drop(span);
        self.probe.record(elapsed);
    }

    fn on_self_trigger(&self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        self.inner.on_self_trigger(ctx, tag);
    }

    fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
        self.inner.on_control(ctx, message);
    }

    fn estimators(&self) -> Vec<Arc<dyn vcad_core::Estimator>> {
        self.inner.estimators()
    }

    fn combinational_deps(&self) -> Vec<(usize, usize)> {
        self.inner.combinational_deps()
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        let twin = self.inner.compiled_twin()?;
        Some(TimedModule::new(twin, Arc::clone(&self.probe)))
    }
}

/// Times every [`DetectionTableSource::detection_table`] call; with
/// capture on, keeps each requested input configuration and its latency
/// for the provider-side replay.
pub struct TimedSource {
    inner: Arc<dyn DetectionTableSource>,
    probe: Arc<CallProbe>,
    inputs: Mutex<Option<Vec<(LogicVec, Duration)>>>,
}

impl TimedSource {
    pub fn new(inner: Arc<dyn DetectionTableSource>, probe: Arc<CallProbe>) -> Arc<TimedSource> {
        Arc::new(TimedSource {
            inner,
            probe,
            inputs: Mutex::new(None),
        })
    }

    /// Starts keeping every requested input configuration.
    pub fn start_capture(&self) {
        *self.inputs.lock().expect("inputs lock") = Some(Vec::new());
    }

    /// Stops capturing and returns the kept inputs with their latencies,
    /// in request order.
    pub fn take_capture(&self) -> Vec<(LogicVec, Duration)> {
        self.inputs
            .lock()
            .expect("inputs lock")
            .take()
            .unwrap_or_default()
    }
}

impl DetectionTableSource for TimedSource {
    fn fault_list(&self) -> Vec<SymbolicFault> {
        self.inner.fault_list()
    }

    fn detection_table(&self, inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError> {
        let span = self.probe.span("faults", "faults.detection_table");
        let started = Instant::now();
        let table = self.inner.detection_table(inputs);
        let elapsed = started.elapsed();
        drop(span);
        self.probe.record(elapsed);
        if table.is_err() {
            self.probe.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(kept) = self.inputs.lock().expect("inputs lock").as_mut() {
            kept.push((inputs.clone(), elapsed));
        }
        table
    }

    fn untestable_count(&self) -> usize {
        self.inner.untestable_count()
    }
}
