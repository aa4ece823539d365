//! The provider side: catalog and component server objects.

use std::sync::{Arc, Mutex, OnceLock};

use vcad_core::{EstimationInput, Estimator, PortSnapshot, SimTime};
use vcad_faults::{DetectionTable, DetectionTableSource, NetlistDetectionSource};
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;
use vcad_obs::Collector;
use vcad_power::{
    ConstantPowerEstimator, LinearRegressionPowerEstimator, PeakPowerEstimator, PowerModel,
    SiliconReference, TogglePowerEstimator,
};
use vcad_rmi::{
    AdmissionControl, Dispatcher, MuxServer, MuxServerConfig, ObjectRegistry, RemoteObject,
    RmiError, ServerCtx, Value,
};

use crate::offering::ComponentOffering;
use crate::protocol::{catalog, component, decode_patterns};

/// The provider's fee ledger: a running count and total of chargeable
/// calls, kept in constant space for the life of the provider.
///
/// When a call arrives through a tenant-stamped frame (see
/// [`vcad_rmi::CallFrame`]), the dispatcher publishes the tenant id for
/// the duration of the call and the ledger attributes the fee to that
/// tenant as well as to the global totals. Anonymous (v1) calls land in
/// the global totals only.
#[derive(Debug)]
pub struct ServerLedger {
    /// `(charge count, total cents)`, summed in charge order.
    totals: Mutex<(usize, f64)>,
    tenant_totals: Mutex<std::collections::BTreeMap<String, (u64, f64)>>,
    obs: Collector,
}

impl Default for ServerLedger {
    fn default() -> ServerLedger {
        ServerLedger::new()
    }
}

impl ServerLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> ServerLedger {
        ServerLedger::with_collector(Collector::default())
    }

    /// Creates a ledger that also mirrors every charge into `obs`
    /// (`ip.fees_cents`, `ip.charges`, plus a trace event per charge).
    #[must_use]
    pub fn with_collector(obs: Collector) -> ServerLedger {
        ServerLedger {
            // `-0.0` is the exact additive identity — the same start
            // `Iterator::sum` uses — so even an empty ledger reports the
            // total a sum over every charge would.
            totals: Mutex::new((0, -0.0)),
            tenant_totals: Mutex::new(std::collections::BTreeMap::new()),
            obs,
        }
    }

    /// Records a fee, in cents.
    ///
    /// If the call carries a tenant id (published by the dispatcher via
    /// [`vcad_rmi::current_tenant`]), the fee is additionally attributed
    /// to that tenant's ledger and mirrored as
    /// `tenant.<id>.fees_cents`.
    pub fn charge(&self, what: impl Into<String>, cents: f64) {
        if cents > 0.0 {
            let what = what.into();
            let m = self.obs.metrics();
            m.float_counter("ip.fees_cents").add(cents);
            m.counter("ip.charges").inc();
            if let Some(tenant) = vcad_rmi::current_tenant() {
                m.float_counter(&format!("tenant.{tenant}.fees_cents"))
                    .add(cents);
                let mut totals = self.tenant_totals.lock().unwrap();
                let slot = totals.entry(tenant).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += cents;
            }
            // A traced *span* (not an instant event): the analyzer's
            // per-RPC breakdown attributes `charge:*` span time to the
            // fee-ledger bucket, parented under the ambient dispatch span.
            let mut span = self.obs.traced_span("ip", format!("charge:{what}"));
            span.arg("cents", cents);
            let mut totals = self.totals.lock().unwrap();
            totals.0 += 1;
            totals.1 += cents;
        }
    }

    /// The collector charges are mirrored into (shared with the
    /// provider's estimator spans).
    #[must_use]
    pub fn collector(&self) -> &Collector {
        &self.obs
    }

    /// Total charged so far, in cents.
    #[must_use]
    pub fn total_cents(&self) -> f64 {
        self.totals.lock().unwrap().1
    }

    /// Number of chargeable calls recorded.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.totals.lock().unwrap().0
    }

    /// Total charged to one tenant, in cents (0.0 if unknown).
    #[must_use]
    pub fn tenant_total_cents(&self, tenant: &str) -> f64 {
        self.tenant_totals
            .lock()
            .unwrap()
            .get(tenant)
            .map_or(0.0, |(_, c)| *c)
    }

    /// Per-tenant `(charge count, total cents)` in deterministic
    /// (lexicographic tenant id) order.
    #[must_use]
    pub fn tenant_totals(&self) -> Vec<(String, u64, f64)> {
        self.tenant_totals
            .lock()
            .unwrap()
            .iter()
            .map(|(t, (n, c))| (t.clone(), *n, *c))
            .collect()
    }
}

/// An IP provider's server: a catalog of offerings exported through the
/// distributed-object layer.
///
/// The server owns every IP-sensitive artefact — netlists, toggle power
/// engine, fault universes. Only derived, port-level data ever crosses
/// its dispatcher. See the [crate example](crate#examples).
pub struct ProviderServer {
    host: String,
    offerings: Arc<Mutex<Vec<ComponentOffering>>>,
    registry: Arc<ObjectRegistry>,
    dispatcher: Arc<Dispatcher>,
    ledger: Arc<ServerLedger>,
}

impl ProviderServer {
    /// Creates a provider identified by `host` (a display name; actual
    /// transports are attached separately).
    #[must_use]
    pub fn new(host: impl Into<String>) -> ProviderServer {
        ProviderServer::with_collector(host, Collector::disabled())
    }

    /// Creates a provider whose ledger, dispatcher and catalog all record
    /// into `obs`: per-method dispatch metrics, `ip.fees_cents`,
    /// `ip.instantiations` and negotiation outcome counters.
    #[must_use]
    pub fn with_collector(host: impl Into<String>, obs: Collector) -> ProviderServer {
        ProviderServer::build(host, obs, None)
    }

    /// Creates a provider whose dispatcher runs every call through
    /// `admission` first: rate-limited tenants are shed with a retryable
    /// `Overloaded` error, exhausted hard quotas with a permanent
    /// `QuotaExceeded` error, before any object code (or fee) runs.
    #[must_use]
    pub fn with_admission(
        host: impl Into<String>,
        obs: Collector,
        admission: Arc<AdmissionControl>,
    ) -> ProviderServer {
        ProviderServer::build(host, obs, Some(admission))
    }

    fn build(
        host: impl Into<String>,
        obs: Collector,
        admission: Option<Arc<AdmissionControl>>,
    ) -> ProviderServer {
        let offerings = Arc::new(Mutex::new(Vec::new()));
        let ledger = Arc::new(ServerLedger::with_collector(obs.clone()));
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::new(CatalogObject {
            offerings: Arc::clone(&offerings),
            ledger: Arc::clone(&ledger),
            obs: obs.clone(),
        }));
        let mut dispatcher = Dispatcher::new(Arc::clone(&registry)).with_collector(obs);
        if let Some(admission) = admission {
            dispatcher = dispatcher.with_admission(admission);
        }
        ProviderServer {
            host: host.into(),
            offerings,
            registry,
            dispatcher: Arc::new(dispatcher),
            ledger,
        }
    }

    /// The provider's host name.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Publishes an offering in the catalog.
    pub fn offer(&self, offering: ComponentOffering) {
        self.offerings.lock().unwrap().push(offering);
    }

    /// The dispatcher to hang transports off (in-process, channel, TCP).
    #[must_use]
    pub fn dispatcher(&self) -> Arc<Dispatcher> {
        Arc::clone(&self.dispatcher)
    }

    /// Bounds the dispatcher's at-most-once reply cache (see
    /// [`Dispatcher::set_reply_cache_capacity`]). Zero disables
    /// deduplication of retried tracked calls.
    pub fn set_reply_cache_capacity(&self, capacity: usize) {
        self.dispatcher.set_reply_cache_capacity(capacity);
    }

    /// The exported-object registry (diagnostics).
    #[must_use]
    pub fn registry(&self) -> &Arc<ObjectRegistry> {
        &self.registry
    }

    /// The fee ledger.
    #[must_use]
    pub fn ledger(&self) -> &Arc<ServerLedger> {
        &self.ledger
    }

    /// The admission controller, if this provider was built with one.
    #[must_use]
    pub fn admission(&self) -> Option<&Arc<AdmissionControl>> {
        self.dispatcher.admission()
    }

    /// Serves this provider over TCP through a connection-multiplexing
    /// [`MuxServer`]: one poll thread, a bounded worker pool, and typed
    /// shedding when the frame queue saturates.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] if `addr` is unavailable.
    pub fn serve_mux(&self, addr: &str, config: MuxServerConfig) -> Result<MuxServer, RmiError> {
        MuxServer::bind_with_collector(addr, self.dispatcher(), config, self.ledger.collector())
    }
}

/// The root object: lists offerings and instantiates components.
struct CatalogObject {
    offerings: Arc<Mutex<Vec<ComponentOffering>>>,
    ledger: Arc<ServerLedger>,
    obs: Collector,
}

impl RemoteObject for CatalogObject {
    fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            catalog::LIST => {
                let offerings = self.offerings.lock().unwrap();
                Ok(Value::List(
                    offerings
                        .iter()
                        .map(|o| {
                            Value::Map(vec![
                                ("name".into(), Value::Str(o.name().to_owned())),
                                (
                                    "functional".into(),
                                    Value::I64(i64::from(o.models().functional)),
                                ),
                                ("power".into(), Value::I64(i64::from(o.models().power))),
                                ("timing".into(), Value::I64(i64::from(o.models().timing))),
                                ("area".into(), Value::I64(i64::from(o.models().area))),
                                (
                                    "toggle_fee".into(),
                                    Value::F64(o.prices().toggle_power_per_pattern),
                                ),
                            ])
                        })
                        .collect(),
                ))
            }
            catalog::INSTANTIATE => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| RmiError::bad_args(method))?;
                let width =
                    args.get(1)
                        .and_then(Value::as_i64)
                        .filter(|w| (1..=32).contains(w))
                        .ok_or_else(|| RmiError::bad_args(method))? as usize;
                let offering = {
                    let offerings = self.offerings.lock().unwrap();
                    offerings
                        .iter()
                        .find(|o| o.name() == name)
                        .cloned()
                        .ok_or_else(|| {
                            RmiError::application(format!("no offering named `{name}`"))
                        })?
                };
                self.ledger.charge(
                    format!("instantiate {name}"),
                    offering.prices().instantiation,
                );
                self.obs.metrics().counter("ip.instantiations").inc();
                let object = ComponentObject::new(offering, width, Arc::clone(&self.ledger));
                Ok(Value::ObjectRef(ctx.export(Arc::new(object))))
            }
            catalog::BILL => Ok(Value::F64(self.ledger.total_cents())),
            catalog::NEGOTIATE => {
                let name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| RmiError::bad_args(method))?;
                let requests = args
                    .get(1)
                    .and_then(Value::as_list)
                    .ok_or_else(|| RmiError::bad_args(method))?;
                let offering = {
                    let offerings = self.offerings.lock().unwrap();
                    offerings
                        .iter()
                        .find(|o| o.name() == name)
                        .cloned()
                        .ok_or_else(|| {
                            RmiError::application(format!("no offering named `{name}`"))
                        })?
                };
                let advertised = crate::negotiate::advertised_estimators(&offering.prices());
                let metrics = self.obs.metrics();
                let mut outcomes = Vec::with_capacity(requests.len());
                for request in requests {
                    let request = crate::negotiate::decode_request(request)?;
                    let offer = crate::negotiate::resolve(
                        &advertised,
                        &request.parameter,
                        request.max_fee_cents_per_pattern,
                        request.max_error_pct,
                    );
                    metrics
                        .counter(if offer.is_some() {
                            "ip.negotiations.offered"
                        } else {
                            "ip.negotiations.refused"
                        })
                        .inc();
                    outcomes.push(crate::negotiate::encode_outcome(
                        &crate::negotiate::NegotiationOutcome {
                            parameter: request.parameter,
                            offer,
                        },
                    ));
                }
                Ok(Value::List(outcomes))
            }
            _ => Err(RmiError::unknown_method("Catalog", method)),
        }
    }

    fn describe(&self) -> &str {
        "IP provider catalog"
    }
}

/// One instantiated component: the private part.
///
/// Holds everything the provider refuses to disclose and answers the
/// protocol methods with derived, port-level data only.
struct ComponentObject {
    name: String,
    public_behavior: String,
    width: usize,
    netlist: Arc<Netlist>,
    prices: crate::offering::PriceList,
    constant: ConstantPowerEstimator,
    regression: LinearRegressionPowerEstimator,
    toggle: TogglePowerEstimator,
    peak: PeakPowerEstimator,
    /// Built on the first fault-list or detection-table request: sessions
    /// that never ask for one skip collapsing and compiling the fault
    /// universe.
    detection: OnceLock<NetlistDetectionSource>,
    ledger: Arc<ServerLedger>,
}

impl ComponentObject {
    fn new(
        offering: ComponentOffering,
        width: usize,
        ledger: Arc<ServerLedger>,
    ) -> ComponentObject {
        let netlist = offering.instantiate(width);
        let model = PowerModel::default();
        // The provider's silicon characterisation: deterministic per
        // component name and width.
        let seed = offering.name().bytes().fold(width as u64, |h, b| {
            h.wrapping_mul(31).wrapping_add(u64::from(b))
        });
        let reference = SiliconReference::with_default_residual(model, seed);
        let training: Vec<LogicVec> = (0..64u64)
            .map(|i| {
                LogicVec::from_u64(
                    netlist.input_count(),
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed),
                )
            })
            .collect();
        let ports: Vec<usize> = (0..1).collect(); // snapshots arrive pre-concatenated
        let constant = ConstantPowerEstimator::characterize(&reference, &netlist, &training);
        let regression =
            LinearRegressionPowerEstimator::fit(&reference, &netlist, &training, ports.clone());
        let toggle = TogglePowerEstimator::new(Arc::clone(&netlist), model, ports.clone(), true);
        let peak = PeakPowerEstimator::new(Arc::clone(&netlist), model, ports, true);
        ComponentObject {
            name: offering.name().to_owned(),
            public_behavior: offering.public_behavior().to_owned(),
            width,
            prices: offering.prices(),
            netlist,
            constant,
            regression,
            toggle,
            peak,
            detection: OnceLock::new(),
            ledger,
        }
    }

    fn detection(&self) -> &NetlistDetectionSource {
        self.detection
            .get_or_init(|| NetlistDetectionSource::new(Arc::clone(&self.netlist)))
    }
}

impl RemoteObject for ComponentObject {
    fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError> {
        match method {
            component::DESCRIBE => Ok(Value::Map(vec![
                ("name".into(), Value::Str(self.name.clone())),
                ("width".into(), Value::I64(self.width as i64)),
                // The "public part": which registered behaviour the client
                // should instantiate locally as the functional model.
                (
                    "public_behavior".into(),
                    Value::Str(self.public_behavior.clone()),
                ),
            ])),
            component::AREA => Ok(Value::F64(self.netlist.stats().area)),
            component::DELAY => Ok(Value::F64(self.netlist.critical_path_delay())),
            component::POWER_CONSTANT => Ok(Value::F64(self.constant.mean_power_w())),
            component::POWER_REGRESSION => {
                let (a, b) = self.regression.coefficients();
                Ok(Value::List(vec![Value::F64(a), Value::F64(b)]))
            }
            component::POWER_TOGGLE => {
                let patterns =
                    decode_patterns(args.first().ok_or_else(|| RmiError::bad_args(method))?)?;
                if patterns.len() < 2 {
                    return Err(RmiError::application(
                        "toggle power needs at least two patterns",
                    ));
                }
                for p in &patterns {
                    if p.width() != self.netlist.input_count() {
                        return Err(RmiError::application("pattern width mismatch"));
                    }
                }
                self.ledger.charge(
                    format!("{} power_toggle", self.name),
                    self.prices.toggle_power_per_pattern * (patterns.len() - 1) as f64,
                );
                let mut span = self
                    .ledger
                    .collector()
                    .traced_span("ip", format!("estimate:{method}"));
                span.arg("patterns", patterns.len());
                Ok(Value::F64(self.toggle.average_power(&patterns)))
            }
            component::POWER_PEAK => {
                let patterns =
                    decode_patterns(args.first().ok_or_else(|| RmiError::bad_args(method))?)?;
                if patterns.len() < 2 {
                    return Err(RmiError::application(
                        "peak power needs at least two patterns",
                    ));
                }
                for p in &patterns {
                    if p.width() != self.netlist.input_count() {
                        return Err(RmiError::application("pattern width mismatch"));
                    }
                }
                self.ledger.charge(
                    format!("{} power_peak", self.name),
                    self.prices.toggle_power_per_pattern * (patterns.len() - 1) as f64,
                );
                let mut span = self
                    .ledger
                    .collector()
                    .traced_span("ip", format!("estimate:{method}"));
                span.arg("patterns", patterns.len());
                // Reuse the estimator over a synthetic snapshot buffer: one
                // single-port snapshot per pattern, matching the estimator's
                // pre-concatenated input convention.
                let input = EstimationInput::new(
                    patterns
                        .into_iter()
                        .enumerate()
                        .map(|(i, p)| PortSnapshot {
                            time: SimTime::new(i as u64),
                            ports: vec![p],
                        })
                        .collect(),
                );
                self.peak
                    .estimate(&input)
                    .map_err(|e| RmiError::application(e.to_string()))
            }
            component::FUNCTIONAL_EVAL => {
                let inputs = args
                    .first()
                    .and_then(Value::as_logic_vec)
                    .ok_or_else(|| RmiError::bad_args(method))?;
                if inputs.width() != self.netlist.input_count() {
                    return Err(RmiError::application("input width mismatch"));
                }
                self.ledger.charge(
                    format!("{} functional_eval", self.name),
                    self.prices.functional_eval,
                );
                let _span = self
                    .ledger
                    .collector()
                    .traced_span("ip", format!("estimate:{method}"));
                let out = vcad_netlist::Evaluator::new(&self.netlist).outputs(inputs);
                Ok(Value::Vec(out))
            }
            component::FAULT_LIST => Ok(Value::List(
                self.detection()
                    .fault_list()
                    .into_iter()
                    .map(|f| Value::Str(f.as_str().to_owned()))
                    .collect(),
            )),
            component::DETECTION_TABLE => {
                let inputs = args
                    .first()
                    .and_then(Value::as_logic_vec)
                    .ok_or_else(|| RmiError::bad_args(method))?;
                if inputs.width() != self.netlist.input_count() {
                    return Err(RmiError::application("input width mismatch"));
                }
                self.ledger.charge(
                    format!("{} detection_table", self.name),
                    self.prices.detection_table,
                );
                let _span = self
                    .ledger
                    .collector()
                    .traced_span("ip", format!("estimate:{method}"));
                let table: DetectionTable = self
                    .detection()
                    .detection_table(inputs)
                    .map_err(|e| RmiError::application(e.to_string()))?;
                Ok(table.to_value())
            }
            component::RELEASE => {
                ctx.withdraw_self();
                Ok(Value::Null)
            }
            _ => Err(RmiError::unknown_method(&self.name, method)),
        }
    }

    fn describe(&self) -> &str {
        "IP component instance"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_rmi::{Client, InProcTransport, Transport};

    fn rig() -> (ProviderServer, Client) {
        let server = ProviderServer::new("p.example.com");
        server.offer(ComponentOffering::fast_low_power_multiplier());
        server.offer(ComponentOffering::baseline_multiplier());
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
        let client = Client::new(transport);
        (server, client)
    }

    #[test]
    fn catalog_lists_offerings() {
        let (_server, client) = rig();
        let list = client.root().invoke(catalog::LIST, vec![]).unwrap();
        let items = list.as_list().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("name").and_then(Value::as_str),
            Some("MultFastLowPower")
        );
        assert_eq!(items[0].get("power").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn instantiate_and_query_component() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let desc = comp.invoke(component::DESCRIBE, vec![]).unwrap();
        assert_eq!(desc.get("width").and_then(Value::as_i64), Some(4));
        let area = comp
            .invoke(component::AREA, vec![])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(area > 0.0);
        let delay = comp
            .invoke(component::DELAY, vec![])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(delay > 0.0);
    }

    #[test]
    fn functional_eval_multiplies() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        // a=7, b=5 concatenated LSB-first.
        let inputs = LogicVec::from_u64(8, 5 << 4 | 7);
        let out = comp
            .invoke(component::FUNCTIONAL_EVAL, vec![Value::Vec(inputs)])
            .unwrap();
        assert_eq!(out.as_logic_vec().unwrap().to_word().unwrap().value(), 35);
    }

    #[test]
    fn toggle_power_charges_per_pattern() {
        let (server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let patterns: Vec<LogicVec> = (0..10u64).map(|i| LogicVec::from_u64(8, i * 11)).collect();
        let power = comp
            .invoke(
                component::POWER_TOGGLE,
                vec![crate::protocol::encode_patterns(&patterns)],
            )
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(power > 0.0);
        // 10 patterns make 9 transitions at 0.1¢ each.
        assert!((server.ledger().total_cents() - 0.9).abs() < 1e-9);
        let bill = client.root().invoke(catalog::BILL, vec![]).unwrap();
        assert_eq!(bill.as_f64(), Some(server.ledger().total_cents()));
    }

    #[test]
    fn bad_requests_are_application_errors() {
        let (_server, client) = rig();
        let err = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("Nonexistent".into()), Value::I64(4)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("no offering"));
        let err = client
            .root()
            .invoke(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into())],
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad arguments"));
        // Width out of bounds.
        let err = client
            .root()
            .invoke(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(1000)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad arguments"));
    }

    #[test]
    fn provider_collector_mirrors_fees_and_instantiations() {
        let obs = Collector::enabled();
        let server = ProviderServer::with_collector("p.example.com", obs.clone());
        server.offer(ComponentOffering::fast_low_power_multiplier());
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
        let client = Client::new(transport);
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let patterns: Vec<LogicVec> = (0..5u64).map(|i| LogicVec::from_u64(8, i * 7)).collect();
        let _ = comp
            .invoke(
                component::POWER_TOGGLE,
                vec![crate::protocol::encode_patterns(&patterns)],
            )
            .unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["ip.instantiations"], 1);
        assert!(snap.counters["ip.charges"] >= 1);
        let fees = snap.float_counters["ip.fees_cents"];
        assert!(
            (fees - server.ledger().total_cents()).abs() < 1e-9,
            "{fees}"
        );
        // Dispatch metrics ride along on the same collector.
        assert!(snap.counters["rmi.dispatch.calls"] >= 2);
        assert!(snap
            .counters
            .contains_key(&format!("rmi.method.{}.calls", component::POWER_TOGGLE)));
    }

    #[test]
    fn detection_protocol_round_trips() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(2)],
            )
            .unwrap();
        let list = comp.invoke(component::FAULT_LIST, vec![]).unwrap();
        assert!(!list.as_list().unwrap().is_empty());
        let table_value = comp
            .invoke(
                component::DETECTION_TABLE,
                vec![Value::Vec(LogicVec::from_u64(4, 0b0110))],
            )
            .unwrap();
        let table = DetectionTable::from_value(&table_value).unwrap();
        assert_eq!(table.inputs().to_word().unwrap().value(), 0b0110);
    }
}
