//! Remote-component module flavours.

use std::sync::Arc;

use vcad_core::stdlib::{WordAdder, WordMultiplier};
use vcad_core::{Estimator, Module, ModuleCtx, PortSpec, Value};
use vcad_logic::LogicVec;
use vcad_rmi::{RemoteRef, RmiError, Sandbox};

use crate::protocol::component;

/// The downloadable public part of a remote component.
///
/// Java ships bytecode; Rust cannot, so the provider instead names one of
/// a fixed set of *registered behaviours* plus its parameters, and the
/// client library instantiates it locally. The contract is the paper's:
/// an accurate functional model that reveals nothing structural, running
/// under a [`Sandbox`] that only allows talking back to its provider.
#[derive(Clone, Debug)]
pub struct PublicPart {
    behavior: String,
    width: usize,
    sandbox: Sandbox,
}

impl PublicPart {
    /// Creates a public part for a registered behaviour.
    #[must_use]
    pub fn new(behavior: impl Into<String>, width: usize, sandbox: Sandbox) -> PublicPart {
        PublicPart {
            behavior: behavior.into(),
            width,
            sandbox,
        }
    }

    /// The registered behaviour's name.
    #[must_use]
    pub fn behavior(&self) -> &str {
        &self.behavior
    }

    /// The sandbox the part runs under.
    #[must_use]
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Instantiates the behaviour as a local module.
    ///
    /// # Errors
    ///
    /// Returns an error when the behaviour is not registered in this
    /// client library.
    pub fn instantiate(&self, instance: &str) -> Result<Arc<dyn Module>, RmiError> {
        match self.behavior.as_str() {
            "word-multiplier" => Ok(Arc::new(WordMultiplier::new(instance, self.width))),
            "word-adder" => Ok(Arc::new(WordAdder::new(instance, self.width))),
            "untestable-demo" => Ok(Arc::new(vcad_core::stdlib::NetlistBlock::new(
                instance,
                Arc::new(vcad_netlist::generators::untestable_demo(self.width)),
            ))),
            other => Err(RmiError::application(format!(
                "unknown public behaviour `{other}`"
            ))),
        }
    }
}

/// A local module (the public part) bundled with the component's
/// estimator catalog — what the user actually instantiates in a design
/// for the paper's **ER** scenario.
pub struct IpComponentModule {
    inner: Arc<dyn Module>,
    estimators: Vec<Arc<dyn Estimator>>,
}

impl IpComponentModule {
    /// Wraps a local functional model with its estimators.
    #[must_use]
    pub fn new(inner: Arc<dyn Module>, estimators: Vec<Arc<dyn Estimator>>) -> IpComponentModule {
        IpComponentModule { inner, estimators }
    }
}

impl Module for IpComponentModule {
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
        self.inner.on_signal(ctx, port, value);
    }

    fn on_self_trigger(&self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        self.inner.on_self_trigger(ctx, tag);
    }

    fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
        self.inner.on_control(ctx, message);
    }

    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        self.estimators.clone()
    }

    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        let twin = self.inner.compiled_twin()?;
        Some(Arc::new(IpComponentModule::new(
            twin,
            self.estimators.clone(),
        )))
    }
}

/// A fully remote component: *every* event is forwarded to the provider
/// over RMI (the paper's **MR** scenario — "not realistic, but useful for
/// comparison purposes").
///
/// Ports are `a`, `b` (inputs, `width` bits) and `p` (output,
/// `2 × width` bits), matching the multiplier interface.
pub struct RemoteFunctionalModule {
    name: String,
    ports: Vec<PortSpec>,
    component: RemoteRef,
    estimators: Vec<Arc<dyn Estimator>>,
}

impl RemoteFunctionalModule {
    /// Creates the fully remote multiplier module.
    #[must_use]
    pub fn new(
        instance: impl Into<String>,
        width: usize,
        component: RemoteRef,
        estimators: Vec<Arc<dyn Estimator>>,
    ) -> RemoteFunctionalModule {
        RemoteFunctionalModule::with_ports(
            instance,
            vec![
                PortSpec::input("a", width),
                PortSpec::input("b", width),
                PortSpec::output("p", 2 * width),
            ],
            component,
            estimators,
        )
    }

    /// Creates a fully remote module with an arbitrary port interface.
    ///
    /// Input ports (in port order, concatenated) must match the remote
    /// netlist's inputs; output ports its outputs.
    ///
    /// # Panics
    ///
    /// Panics if the interface has no input or no output port.
    #[must_use]
    pub fn with_ports(
        instance: impl Into<String>,
        ports: Vec<PortSpec>,
        component: RemoteRef,
        estimators: Vec<Arc<dyn Estimator>>,
    ) -> RemoteFunctionalModule {
        assert!(
            ports.iter().any(|p| p.direction().accepts_input())
                && ports.iter().any(|p| p.direction().produces_output()),
            "remote module needs at least one input and one output port"
        );
        RemoteFunctionalModule {
            name: instance.into(),
            ports,
            component,
            estimators,
        }
    }
}

impl Module for RemoteFunctionalModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        let mut inputs = LogicVec::zeros(0);
        for (i, p) in self.ports.iter().enumerate() {
            if p.direction().accepts_input() {
                inputs = inputs.concat(ctx.port_value(i));
            }
        }
        let out_width: usize = self
            .ports
            .iter()
            .filter(|p| p.direction().produces_output())
            .map(PortSpec::width)
            .sum();
        // Marshal the ports, call the provider, unmarshal the result —
        // once per event, which is exactly the overhead Table 2 measures
        // for the MR scenario.
        let result = if inputs.is_binary() {
            self.component
                .invoke(component::FUNCTIONAL_EVAL, vec![Value::Vec(inputs)])
                .ok()
                .and_then(|v| v.as_logic_vec().cloned())
                .filter(|v| v.width() == out_width)
                .unwrap_or_else(|| LogicVec::unknown(out_width))
        } else {
            LogicVec::unknown(out_width)
        };
        let mut offset = 0;
        for (i, p) in self.ports.iter().enumerate() {
            if p.direction().produces_output() {
                let slice = result.slice(offset, p.width());
                offset += p.width();
                if *ctx.port_value(i) != slice {
                    ctx.emit(i, slice);
                }
            }
        }
    }

    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        self.estimators.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_rmi::Capability;

    #[test]
    fn public_part_instantiates_registered_behaviour() {
        let part = PublicPart::new("word-multiplier", 8, Sandbox::for_provider("p"));
        let module = part.instantiate("MULT").unwrap();
        assert_eq!(module.name(), "MULT");
        assert_eq!(module.ports().len(), 3);
        assert_eq!(module.ports()[2].width(), 16);
    }

    #[test]
    fn gate_level_public_part_forwards_its_compiled_twin() {
        use vcad_core::stdlib::{CaptureState, PrimaryOutput, VectorInput};
        use vcad_core::{DesignBuilder, EngineKind, SimulationController};

        let part = PublicPart::new("untestable-demo", 2, Sandbox::for_provider("p"));
        let estimators: Vec<Arc<dyn Estimator>> =
            vec![Arc::new(vcad_core::ActivityEstimator::new())];
        let module = Arc::new(IpComponentModule::new(
            part.instantiate("U").unwrap(),
            estimators,
        ));
        // One single-bit port per netlist input, then per output.
        let ports = module.ports().to_vec();
        let mut b = DesignBuilder::new("ip");
        let u = b.add_module(module);
        let mut outs = Vec::new();
        for (port, spec) in ports.iter().enumerate() {
            if spec.direction().accepts_input() {
                let drive = b.add_module(Arc::new(VectorInput::new(
                    format!("IN{port}"),
                    (0..8u64)
                        .map(|t| LogicVec::from_u64(1, (t * 5 + port as u64) >> 1 & 1))
                        .collect(),
                )));
                b.connect(drive, "out", u, spec.name()).unwrap();
            } else {
                let o = b.add_module(Arc::new(PrimaryOutput::new(format!("O{port}"), 1)));
                b.connect(u, spec.name(), o, "in").unwrap();
                outs.push(o);
            }
        }
        let design = Arc::new(b.build().unwrap());

        let overrides = design.compiled_overrides();
        assert_eq!(overrides.len(), 1, "the gate-level part offers a twin");
        let (id, twin) = &overrides[0];
        assert_eq!(*id, u);
        assert_eq!(twin.name(), "U");
        assert_eq!(twin.estimators().len(), 1, "the twin keeps the estimators");
        assert!(
            twin.compiled_twin().is_none(),
            "the twin is already compiled"
        );

        let event = SimulationController::new(Arc::clone(&design))
            .record_events()
            .run()
            .unwrap();
        let compiled = SimulationController::new(design)
            .with_engine(EngineKind::Compiled)
            .record_events()
            .run()
            .unwrap();
        assert_eq!(event.event_log(), compiled.event_log());
        assert_eq!(event.events_processed(), compiled.events_processed());
        for o in outs {
            assert_eq!(
                event.module_state::<CaptureState>(o).unwrap().history(),
                compiled.module_state::<CaptureState>(o).unwrap().history()
            );
        }
    }

    #[test]
    fn public_part_rejects_unknown_behaviour() {
        let part = PublicPart::new("backdoor", 8, Sandbox::new());
        assert!(part.instantiate("X").is_err());
    }

    #[test]
    fn public_part_sandbox_is_restrictive() {
        let part = PublicPart::new("word-multiplier", 8, Sandbox::for_provider("p.example.com"));
        assert!(part.sandbox().require(&Capability::ReadFiles).is_err());
        assert!(part.sandbox().require(&Capability::InspectDesign).is_err());
        assert!(part
            .sandbox()
            .require(&Capability::ConnectProvider("p.example.com".into()))
            .is_ok());
    }
}
