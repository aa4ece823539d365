//! The simulation controller: drives schedulers and dynamic estimation.

use std::collections::HashMap;
use std::sync::Arc;

use vcad_obs::Collector;

use crate::design::{Design, ModuleId};
use crate::estimate::{EstimateError, EstimationInput, Parameter, PortSnapshot};
use crate::scheduler::{LoggedEvent, SimulationError, StateStore};
use crate::setup::{Degradation, EstimateLog, EstimateRecord, SetupBinding};
use crate::shard::{ShardPolicy, SimEngine};
use crate::time::SimTime;

/// Launches and coordinates schedulers over a design — JavaCAD's
/// `SimulationController`.
///
/// A controller owns the run policy (time limit, event limit, setup for
/// dynamic estimation); each [`SimulationController::run`] creates a fresh
/// [`Scheduler`](crate::Scheduler) with its own isolated state, so the same controller — or
/// several controllers over the same shared design — can run any number of
/// times, serially or concurrently.
///
/// See the [crate example](crate#examples).
#[derive(Clone)]
pub struct SimulationController {
    design: Arc<Design>,
    setup: Option<SetupBinding>,
    until: Option<SimTime>,
    event_limit: Option<u64>,
    obs: Option<Collector>,
    shards: ShardPolicy,
    record_events: bool,
    engine: vcad_engine::EngineKind,
}

impl SimulationController {
    /// Creates a controller over `design` with no setup and no time limit.
    #[must_use]
    pub fn new(design: Arc<Design>) -> SimulationController {
        SimulationController {
            design,
            setup: None,
            until: None,
            event_limit: None,
            obs: None,
            shards: ShardPolicy::Sequential,
            record_events: false,
            engine: vcad_engine::EngineKind::default(),
        }
    }

    /// Selects the gate-evaluation backend for every run this controller
    /// launches. `Compiled` replaces each module offering a
    /// [`Module::compiled_twin`](crate::Module::compiled_twin) (the
    /// stdlib netlist blocks do) with its bit-parallel twin; all other
    /// modules, and the event-driven scheduling itself, are unchanged,
    /// so results are bit-identical and only the wall clock moves.
    #[must_use]
    pub fn with_engine(mut self, engine: vcad_engine::EngineKind) -> SimulationController {
        self.engine = engine;
        self
    }

    /// The selected gate-evaluation backend.
    #[must_use]
    pub fn engine(&self) -> vcad_engine::EngineKind {
        self.engine
    }

    /// Selects how each run is distributed across threads — see
    /// [`ShardPolicy`]. Sharded runs are bit-identical to sequential ones
    /// for component-respecting partitions; the default is sequential.
    #[must_use]
    pub fn with_shards(mut self, policy: ShardPolicy) -> SimulationController {
        self.shards = policy;
        self
    }

    /// Records every dispatched token, exposed afterwards through
    /// [`SimRun::event_log`] in canonical order — the hook the shard
    /// differential tests compare runs with. Off by default (logging
    /// clones every payload).
    #[must_use]
    pub fn record_events(mut self) -> SimulationController {
        self.record_events = true;
        self
    }

    /// Attaches a setup: dynamic estimation runs at the end of every
    /// simulated instant, with the binding's pattern buffering.
    #[must_use]
    pub fn with_setup(mut self, setup: SetupBinding) -> SimulationController {
        self.setup = Some(setup);
        self
    }

    /// Stops the run after the given instant.
    #[must_use]
    pub fn until(mut self, time: SimTime) -> SimulationController {
        self.until = Some(time);
        self
    }

    /// Overrides the scheduler's runaway-event limit.
    #[must_use]
    pub fn event_limit(mut self, limit: u64) -> SimulationController {
        self.event_limit = Some(limit);
        self
    }

    /// Instruments every run launched by this controller.
    ///
    /// Each [`SimulationController::run`] records into an isolated child of
    /// `obs` (its own ring and metric namespace) and merges it back when
    /// the run finishes — so [`SimulationController::run_concurrent`]
    /// threads never contend on one collector and the merged totals still
    /// equal the sum of the per-run numbers.
    #[must_use]
    pub fn with_collector(mut self, obs: Collector) -> SimulationController {
        self.obs = Some(obs);
        self
    }

    /// The design under control.
    #[must_use]
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// Runs one simulation to completion (queue drained or time limit).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the event limit is exceeded.
    pub fn run(&self) -> Result<SimRun, SimulationError> {
        // Isolate-then-merge: the run records into a child collector, so
        // concurrent runs never share a ring. Merged back at the end.
        let child = self.obs.as_ref().map(Collector::child);
        let mut scheduler = SimEngine::new(Arc::clone(&self.design), &self.shards)?;
        let shard_count = scheduler.shard_count();
        if self.engine == vcad_engine::EngineKind::Compiled {
            for (id, twin) in self.design.compiled_overrides() {
                scheduler.override_module(id, twin);
            }
        }
        if let Some(limit) = self.event_limit {
            scheduler.set_event_limit(limit);
        }
        // The run span is opened *before* the child is handed to the
        // scheduler: per-shard collectors snapshot the default trace
        // context at creation, so the run's context must be in place
        // first for shard-worker spans to parent under the run.
        let run_span = child.as_ref().map(|c| {
            let span = c.traced_span("controller", format!("run:{}", self.design.name()));
            c.set_default_context(span.context().cloned());
            span
        });
        if let Some(child) = &child {
            scheduler.set_collector(child);
        }
        if self.record_events {
            scheduler.set_event_log(true);
        }
        scheduler.init();
        let mut log = EstimateLog::default();
        let mut buffers: HashMap<usize, Vec<PortSnapshot>> = HashMap::new();
        // Module/parameter pairs whose remote estimator became
        // unreachable: degraded to the null estimator for the rest of
        // the run (graceful degradation instead of aborting).
        let mut degraded: std::collections::HashSet<(usize, Parameter)> = Default::default();
        // The last snapshot of the previous flush seeds the next one, so
        // the transition across a buffer boundary is never lost and a
        // buffer size of 1 still yields one transition per pattern.
        let mut seeds: HashMap<usize, PortSnapshot> = HashMap::new();
        let bound_modules: Vec<ModuleId> = self
            .setup
            .as_ref()
            .map(|s| s.bound_modules())
            .unwrap_or_default();

        if self.setup.is_none() {
            // Nothing to observe between instants: let the engine drive
            // the whole run. For zero-cross-edge shard plans this is
            // where free-running shards drop per-instant barriers.
            scheduler.run(self.until)?;
        } else {
            loop {
                if let (Some(limit), Some(next)) = (self.until, scheduler.next_time()) {
                    if next > limit {
                        break;
                    }
                }
                let Some(_instant) = scheduler.step_instant()? else {
                    break;
                };
                if let Some(setup) = &self.setup {
                    for &module in &bound_modules {
                        let buffer = buffers.entry(module.index()).or_default();
                        buffer.push(scheduler.snapshot(module));
                        if buffer.len() >= setup.buffer_size() {
                            Self::flush(
                                setup,
                                module,
                                buffer,
                                &mut seeds,
                                scheduler.time(),
                                &mut log,
                                &mut degraded,
                            );
                        }
                    }
                }
            }
        }
        if let Some(setup) = &self.setup {
            for &module in &bound_modules {
                if let Some(buffer) = buffers.get_mut(&module.index()) {
                    if !buffer.is_empty() {
                        Self::flush(
                            setup,
                            module,
                            buffer,
                            &mut seeds,
                            scheduler.time(),
                            &mut log,
                            &mut degraded,
                        );
                    }
                }
            }
        }

        drop(run_span);
        // Consume the scheduler before absorbing the run collector: a
        // sharded scheduler flushes its `sched.shard.*` telemetry into
        // the child when it hands over its state store.
        let event_log = self.record_events.then(|| scheduler.take_event_log());
        let end_time = scheduler.time();
        let events_processed = scheduler.events_processed();
        let state = scheduler.into_state_store();
        if let (Some(parent), Some(child)) = (&self.obs, &child) {
            let m = child.metrics();
            m.float_counter("estimate.fees_cents")
                .add(log.total_fees_cents());
            m.counter("estimate.records")
                .add(log.records().len() as u64);
            m.counter("estimate.cache_hits")
                .add(log.cache_hits() as u64);
            m.counter("estimate.degraded")
                .add(log.degradations().len() as u64);
            parent.absorb(child);
        }

        Ok(SimRun {
            end_time,
            events_processed,
            state,
            estimates: log,
            event_log,
            shard_count,
        })
    }

    /// Runs `n` independent simulations concurrently over the shared
    /// design, one scheduler per thread — the paper's concurrent
    /// simulation feature. Results come back in thread order.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimulationError`] any run produced.
    pub fn run_concurrent(&self, n: usize) -> Result<Vec<SimRun>, SimulationError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let ctrl = self.clone();
                    scope.spawn(move || ctrl.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulation thread panicked"))
                .collect()
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn flush(
        setup: &SetupBinding,
        module: ModuleId,
        buffer: &mut Vec<PortSnapshot>,
        seeds: &mut HashMap<usize, PortSnapshot>,
        now: SimTime,
        log: &mut EstimateLog,
        degraded: &mut std::collections::HashSet<(usize, Parameter)>,
    ) {
        // Fees accrue per *new* pattern; the carried-over seed snapshot
        // was already paid for in the previous flush.
        let patterns = buffer.len();
        let fresh = std::mem::take(buffer);
        let next_seed = fresh.last().cloned();
        let mut snapshots = Vec::with_capacity(fresh.len() + 1);
        if let Some(seed) = seeds.get(&module.index()) {
            snapshots.push(seed.clone());
        }
        snapshots.extend(fresh);
        if let Some(seed) = next_seed {
            seeds.insert(module.index(), seed);
        }
        let input = EstimationInput::new(snapshots);
        let parameters: Vec<Parameter> = setup
            .iter()
            .filter(|(m, _, _)| *m == module)
            .map(|(_, p, _)| p.clone())
            .collect();
        for parameter in parameters {
            let Some(estimator) = setup.estimator_for(module, &parameter) else {
                continue;
            };
            let info = estimator.info();
            // Fees are per evaluated transition (consecutive snapshot
            // pair), matching the provider-side accounting. A failed or
            // degraded estimate records Null and is never charged.
            let transitions = input.pattern_count().saturating_sub(1);
            let key = (module.index(), parameter.clone());
            let (value, fee_cents, name, remote, cached) = if degraded.contains(&key) {
                (
                    crate::Value::Null,
                    0.0,
                    format!("null/{parameter} (degraded from {})", info.name),
                    false,
                    false,
                )
            } else {
                match estimator.estimate_with_meta(&input) {
                    // A cache hit never reaches the provider's server, so
                    // there is nothing to bill: the fee is zero
                    // regardless of the estimator's list price.
                    Ok(estimate) => (
                        estimate.value,
                        if estimate.cached {
                            0.0
                        } else {
                            info.cost_per_pattern_cents * transitions as f64
                        },
                        info.name.clone(),
                        info.remote,
                        estimate.cached,
                    ),
                    Err(EstimateError::Unavailable(reason)) => {
                        log.push_degradation(Degradation {
                            time: now,
                            module,
                            parameter: parameter.clone(),
                            from: info.name.clone(),
                            reason,
                        });
                        degraded.insert(key);
                        (
                            crate::Value::Null,
                            0.0,
                            format!("null/{parameter} (degraded from {})", info.name),
                            false,
                            false,
                        )
                    }
                    Err(_) => (
                        crate::Value::Null,
                        0.0,
                        info.name.clone(),
                        info.remote,
                        false,
                    ),
                }
            };
            log.push(EstimateRecord {
                time: now,
                module,
                parameter,
                estimator: name,
                value,
                patterns,
                fee_cents,
                remote,
                cached,
            });
        }
    }
}

impl std::fmt::Debug for SimulationController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationController")
            .field("design", &self.design.name())
            .field("has_setup", &self.setup.is_some())
            .field("until", &self.until)
            .finish()
    }
}

/// The outcome of one simulation run.
pub struct SimRun {
    end_time: SimTime,
    events_processed: u64,
    state: StateStore,
    estimates: EstimateLog,
    event_log: Option<Vec<LoggedEvent>>,
    shard_count: usize,
}

impl SimRun {
    /// The last simulated instant.
    #[must_use]
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// The dispatched-event log in canonical order, if the controller was
    /// built with [`SimulationController::record_events`].
    #[must_use]
    pub fn event_log(&self) -> Option<&[LoggedEvent]> {
        self.event_log.as_deref()
    }

    /// How many shards executed this run (1 for a sequential run).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total events processed.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// A module's final state, if it created one of type `T`
    /// (e.g. [`CaptureState`](crate::stdlib::CaptureState) for primary
    /// outputs).
    #[must_use]
    pub fn module_state<T: 'static>(&self, module: ModuleId) -> Option<&T> {
        self.state.get(module)
    }

    /// The dynamic-estimation log.
    #[must_use]
    pub fn estimates(&self) -> &EstimateLog {
        &self.estimates
    }
}

impl std::fmt::Debug for SimRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRun")
            .field("end_time", &self.end_time)
            .field("events_processed", &self.events_processed)
            .field("estimates", &self.estimates.records().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::estimate::{EstimateError, Estimator, EstimatorInfo};
    use crate::setup::{SetupController, SetupCriterion};
    use crate::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register};
    use crate::Value;
    use std::time::Duration;

    fn design() -> (Arc<Design>, ModuleId, ModuleId) {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 3, 10)));
        let r = b.add_module(Arc::new(Register::new("REG", 8)));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        (Arc::new(b.build().unwrap()), r, o)
    }

    #[test]
    fn plain_run_completes() {
        let (d, _, o) = design();
        let run = SimulationController::new(d).run().unwrap();
        assert_eq!(
            run.module_state::<CaptureState>(o).unwrap().history().len(),
            10
        );
        assert!(run.events_processed() > 0);
        assert!(run.end_time() >= SimTime::new(10));
    }

    #[test]
    fn until_truncates() {
        let (d, _, o) = design();
        let run = SimulationController::new(d)
            .until(SimTime::new(3))
            .run()
            .unwrap();
        let captured = run.module_state::<CaptureState>(o).unwrap().history().len();
        assert!(captured <= 4, "{captured}");
    }

    #[test]
    fn concurrent_runs_agree() {
        let (d, _, o) = design();
        let ctrl = SimulationController::new(d);
        let runs = ctrl.run_concurrent(4).unwrap();
        let reference: Vec<_> = runs[0]
            .module_state::<CaptureState>(o)
            .unwrap()
            .history()
            .to_vec();
        for run in &runs[1..] {
            assert_eq!(
                run.module_state::<CaptureState>(o).unwrap().history(),
                &reference[..]
            );
        }
    }

    #[test]
    fn collector_observes_runs_and_merges_concurrent_children() {
        let (d, _, _) = design();
        let obs = Collector::enabled();
        let ctrl = SimulationController::new(d).with_collector(obs.clone());
        let runs = ctrl.run_concurrent(3).unwrap();
        let expected: u64 = runs.iter().map(SimRun::events_processed).sum();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["scheduler.events_dispatched"], expected);
        assert_eq!(snap.counters["estimate.records"], 0);
        let trace = obs.trace();
        // One controller run span per concurrent run, absorbed into the
        // parent.
        assert_eq!(trace.events_named("run:").len(), 3);
        assert!(!trace.events_named("instant").is_empty());
    }

    #[test]
    fn sharded_run_telemetry_reaches_the_callers_collector() {
        // Two disconnected pipelines: `Auto(2)` puts one on each shard.
        let mut b = DesignBuilder::new("two");
        let mut outs = Vec::new();
        for k in 0..2 {
            let s = b.add_module(Arc::new(RandomInput::new(format!("IN{k}"), 8, k, 10)));
            let r = b.add_module(Arc::new(Register::new(format!("REG{k}"), 8)));
            let o = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{k}"), 8)));
            b.connect(s, "out", r, "d").unwrap();
            b.connect(r, "q", o, "in").unwrap();
            outs.push(o);
        }
        let obs = Collector::enabled();
        let run = SimulationController::new(Arc::new(b.build().unwrap()))
            .with_shards(ShardPolicy::Auto(2))
            .with_collector(obs.clone())
            .run()
            .unwrap();
        assert_eq!(run.shard_count(), 2);
        for o in outs {
            assert_eq!(
                run.module_state::<CaptureState>(o).unwrap().history().len(),
                10
            );
        }
        let gauges = obs.metrics().snapshot().gauges;
        let max = gauges
            .get("sched.shard.load.max_events")
            .expect("shard load gauge absorbed into the caller's collector");
        assert!(max.value > 0, "{max:?}");
    }

    /// A dynamic estimator that records how many patterns each flush saw.
    struct PatternCounter;
    impl Estimator for PatternCounter {
        fn info(&self) -> EstimatorInfo {
            EstimatorInfo {
                name: "test/pattern-counter".into(),
                parameter: Parameter::IoActivity,
                expected_error_pct: 0.0,
                cost_per_pattern_cents: 2.0,
                cpu_time_per_pattern: Duration::ZERO,
                remote: false,
            }
        }
        fn estimate(&self, input: &crate::EstimationInput) -> Result<Value, EstimateError> {
            Ok(Value::I64(input.pattern_count() as i64))
        }
    }

    struct CountingReg {
        inner: Register,
    }
    impl crate::Module for CountingReg {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ports(&self) -> &[crate::PortSpec] {
            self.inner.ports()
        }
        fn on_signal(
            &self,
            ctx: &mut crate::ModuleCtx<'_>,
            port: usize,
            value: &vcad_logic::LogicVec,
        ) {
            self.inner.on_signal(ctx, port, value);
        }
        fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
            vec![Arc::new(PatternCounter)]
        }
    }

    #[test]
    fn buffered_estimation_flushes_and_charges() {
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 3, 10)));
        let r = b.add_module(Arc::new(CountingReg {
            inner: Register::new("REG", 8),
        }));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());

        let mut setup = SetupController::new();
        setup.set(Parameter::IoActivity, SetupCriterion::MostAccurate);
        setup.set_buffer_size(4);
        let binding = setup.apply(&d);
        assert!(binding.warnings().iter().all(|w| !w.contains("REG")));

        let run = SimulationController::new(Arc::clone(&d))
            .with_setup(binding)
            .run()
            .unwrap();
        let records: Vec<_> = run
            .estimates()
            .records_for(r, &Parameter::IoActivity)
            .collect();
        // 10 input instants + 1 register-delay instant = 11 snapshots:
        // 4 + 4 + 3.
        let patterns: Vec<usize> = records.iter().map(|rec| rec.patterns).collect();
        assert_eq!(patterns.iter().sum::<usize>(), 11, "{patterns:?}");
        assert!(patterns.iter().all(|&p| p <= 4));
        // 11 snapshots in flushes of 4 / 4(+seed) / 3(+seed) evaluate
        // 3 + 4 + 3 = 10 transitions at 2 cents each.
        let fee = run.estimates().total_fees_cents();
        assert!((fee - 20.0).abs() < 1e-9, "{fee}");
    }

    /// A "remote" estimator whose provider answers once, then goes dark.
    struct DyingRemote {
        calls: std::sync::atomic::AtomicU64,
    }
    impl Estimator for DyingRemote {
        fn info(&self) -> EstimatorInfo {
            EstimatorInfo {
                name: "remote/dying".into(),
                parameter: Parameter::IoActivity,
                expected_error_pct: 0.0,
                cost_per_pattern_cents: 3.0,
                cpu_time_per_pattern: Duration::ZERO,
                remote: true,
            }
        }
        fn estimate(&self, _input: &crate::EstimationInput) -> Result<Value, EstimateError> {
            if self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                == 0
            {
                Ok(Value::F64(1.5))
            } else {
                Err(EstimateError::Unavailable(
                    "transport error: provider blackout".into(),
                ))
            }
        }
    }

    struct DyingReg {
        inner: Register,
        estimator: Arc<DyingRemote>,
    }
    impl crate::Module for DyingReg {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ports(&self) -> &[crate::PortSpec] {
            self.inner.ports()
        }
        fn on_signal(
            &self,
            ctx: &mut crate::ModuleCtx<'_>,
            port: usize,
            value: &vcad_logic::LogicVec,
        ) {
            self.inner.on_signal(ctx, port, value);
        }
        fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
            vec![Arc::clone(&self.estimator) as Arc<dyn Estimator>]
        }
    }

    #[test]
    fn unreachable_estimator_degrades_to_null_and_stops_billing() {
        let estimator = Arc::new(DyingRemote {
            calls: std::sync::atomic::AtomicU64::new(0),
        });
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 3, 10)));
        let r = b.add_module(Arc::new(DyingReg {
            inner: Register::new("REG", 8),
            estimator: Arc::clone(&estimator),
        }));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());

        let mut setup = SetupController::new();
        setup.set(Parameter::IoActivity, SetupCriterion::MostAccurate);
        setup.set_buffer_size(4);
        let binding = setup.apply(&d);

        let obs = Collector::enabled();
        let run = SimulationController::new(Arc::clone(&d))
            .with_setup(binding)
            .with_collector(obs.clone())
            .run()
            .unwrap();
        // The run completed despite the provider dying mid-run.
        let records: Vec<_> = run
            .estimates()
            .records_for(r, &Parameter::IoActivity)
            .collect();
        assert_eq!(records.len(), 3, "4+4+3 snapshot flushes");
        // First flush succeeded and was billed.
        assert_eq!(records[0].value, Value::F64(1.5));
        assert!(records[0].fee_cents > 0.0);
        assert!(records[0].remote);
        // Second flush hit the outage: degraded, Null, free.
        for record in &records[1..] {
            assert_eq!(record.value, Value::Null);
            assert_eq!(record.fee_cents, 0.0);
            assert!(!record.remote);
            assert!(record.estimator.contains("degraded from remote/dying"));
        }
        // Degradation recorded once; the dead estimator was never
        // invoked again after the fallback.
        let degradations = run.estimates().degradations();
        assert_eq!(degradations.len(), 1);
        assert_eq!(degradations[0].from, "remote/dying");
        assert!(degradations[0].reason.contains("blackout"));
        assert_eq!(
            estimator.calls.load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("estimate.degraded"), 1);
    }

    /// A "remote" estimator that memoizes: the first flush computes, all
    /// later flushes report a cache hit.
    struct MemoizingRemote {
        calls: std::sync::atomic::AtomicU64,
    }
    impl Estimator for MemoizingRemote {
        fn info(&self) -> EstimatorInfo {
            EstimatorInfo {
                name: "remote/memoizing".into(),
                parameter: Parameter::IoActivity,
                expected_error_pct: 0.0,
                cost_per_pattern_cents: 3.0,
                cpu_time_per_pattern: Duration::ZERO,
                remote: true,
            }
        }
        fn estimate(&self, input: &crate::EstimationInput) -> Result<Value, EstimateError> {
            self.estimate_with_meta(input).map(|e| e.value)
        }
        fn estimate_with_meta(
            &self,
            _input: &crate::EstimationInput,
        ) -> Result<crate::Estimate, EstimateError> {
            let first = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                == 0;
            if first {
                Ok(crate::Estimate::fresh(Value::F64(4.5)))
            } else {
                Ok(crate::Estimate::cached(Value::F64(4.5)))
            }
        }
    }

    struct MemoReg {
        inner: Register,
        estimator: Arc<MemoizingRemote>,
    }
    impl crate::Module for MemoReg {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ports(&self) -> &[crate::PortSpec] {
            self.inner.ports()
        }
        fn on_signal(
            &self,
            ctx: &mut crate::ModuleCtx<'_>,
            port: usize,
            value: &vcad_logic::LogicVec,
        ) {
            self.inner.on_signal(ctx, port, value);
        }
        fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
            vec![Arc::clone(&self.estimator) as Arc<dyn Estimator>]
        }
    }

    #[test]
    fn cached_estimates_are_recorded_and_not_billed() {
        let estimator = Arc::new(MemoizingRemote {
            calls: std::sync::atomic::AtomicU64::new(0),
        });
        let mut b = DesignBuilder::new("d");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 3, 10)));
        let r = b.add_module(Arc::new(MemoReg {
            inner: Register::new("REG", 8),
            estimator: Arc::clone(&estimator),
        }));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        let d = Arc::new(b.build().unwrap());

        let mut setup = SetupController::new();
        setup.set(Parameter::IoActivity, SetupCriterion::MostAccurate);
        setup.set_buffer_size(4);
        // Scope to REG so the whole-log hit/miss tallies below see only
        // the memoizing estimator's records.
        let binding = setup.apply_to(&d, "REG");

        let obs = Collector::enabled();
        let run = SimulationController::new(Arc::clone(&d))
            .with_setup(binding)
            .with_collector(obs.clone())
            .run()
            .unwrap();
        let records: Vec<_> = run
            .estimates()
            .records_for(r, &Parameter::IoActivity)
            .collect();
        assert_eq!(records.len(), 3, "4+4+3 snapshot flushes");
        // First flush was fresh: billed per transition (3 × 3¢).
        assert!(!records[0].cached);
        assert!((records[0].fee_cents - 9.0).abs() < 1e-9);
        // Later flushes hit the cache: same value, zero fee.
        for record in &records[1..] {
            assert!(record.cached);
            assert_eq!(record.value, Value::F64(4.5));
            assert_eq!(record.fee_cents, 0.0);
            assert!(record.remote, "a cached remote estimator is still remote");
        }
        assert_eq!(run.estimates().cache_hits(), 2);
        assert_eq!(run.estimates().cache_misses(), 1);
        let profile = run.estimates().cache_profile();
        assert_eq!(profile[&(r, Parameter::IoActivity)], (2, 1));
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("estimate.cache_hits"), 2);
    }

    #[test]
    fn null_estimator_bound_with_warning() {
        let (d, r, _) = design();
        let mut setup = SetupController::new();
        setup.set(Parameter::Area, SetupCriterion::MostAccurate);
        let binding = setup.apply(&d);
        assert!(!binding.warnings().is_empty());
        let run = SimulationController::new(d)
            .with_setup(binding)
            .run()
            .unwrap();
        // Null estimates are recorded as Null values with zero fee.
        let latest = run.estimates().latest(r, &Parameter::Area).unwrap();
        assert_eq!(latest.value, Value::Null);
        assert_eq!(run.estimates().total_fees_cents(), 0.0);
    }
}
