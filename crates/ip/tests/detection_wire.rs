//! Wire identity of the provider's fault protocol: whatever engine the
//! provider builds tables on, the reply bytes must be exactly those of
//! the event-driven reference table, and the fault list must not move.

use std::sync::{Arc, Barrier};
use std::thread;

use vcad_core::EngineKind;
use vcad_faults::{DetectionTable, DetectionTableSource, FaultUniverse, NetlistDetectionSource};
use vcad_ip::{ComponentOffering, ProviderServer};
use vcad_logic::{Logic, LogicVec};
use vcad_prng::Rng;
use vcad_rmi::{Client, InProcTransport, RemoteRef, Transport, Value};

const WIDTH: usize = 8;

fn fresh_component() -> (ProviderServer, RemoteRef) {
    let server = ProviderServer::new("wire.example.com");
    server.offer(ComponentOffering::fast_low_power_multiplier());
    let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
    let component = Client::new(transport)
        .root()
        .invoke_object(
            "instantiate",
            vec![
                Value::Str("MultFastLowPower".into()),
                Value::I64(WIDTH as i64),
            ],
        )
        .unwrap();
    (server, component)
}

/// Seeded binary patterns, then an all-`X` pattern and one with a `Z`.
fn patterns(width: usize) -> Vec<LogicVec> {
    let mut rng = Rng::seed_from_u64(0x0d17);
    let mut patterns: Vec<LogicVec> = (0..12)
        .map(|_| LogicVec::from_u64(width, rng.next_u64()))
        .collect();
    patterns.push(LogicVec::filled(width, Logic::X));
    let mut with_z = patterns[0].clone();
    with_z.set(3, Logic::Z);
    patterns.push(with_z);
    patterns
}

#[test]
fn detection_table_replies_are_byte_identical_to_the_event_engine() {
    let netlist = ComponentOffering::fast_low_power_multiplier().instantiate(WIDTH);
    let universe = FaultUniverse::collapsed(&netlist);
    let (_server, component) = fresh_component();
    for inputs in patterns(netlist.input_count()) {
        let reply = component
            .invoke("detection_table", vec![Value::Vec(inputs.clone())])
            .unwrap();
        let reference = DetectionTable::build(&netlist, &universe, &inputs);
        assert!(
            reply.encode() == reference.to_value().encode(),
            "reply differs from the event-engine table under {inputs}"
        );
    }

    let reply = component.invoke("fault_list", vec![]).unwrap();
    let reference = NetlistDetectionSource::new(netlist)
        .with_engine(EngineKind::Event)
        .fault_list();
    let expected = Value::List(
        reference
            .iter()
            .map(|f| Value::Str(f.as_str().to_owned()))
            .collect(),
    );
    assert_eq!(reply.encode(), expected.encode());
}

#[test]
fn concurrent_first_requests_get_identical_tables() {
    const THREADS: usize = 8;
    let netlist = ComponentOffering::fast_low_power_multiplier().instantiate(WIDTH);
    let inputs = patterns(netlist.input_count()).swap_remove(1);
    let reference = DetectionTable::build(&netlist, &FaultUniverse::collapsed(&netlist), &inputs);
    let (_server, component) = fresh_component();
    let start = Barrier::new(THREADS);
    let replies: Vec<Value> = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    component
                        .invoke("detection_table", vec![Value::Vec(inputs.clone())])
                        .unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for reply in replies {
        assert_eq!(
            DetectionTable::from_value(&reply).as_ref(),
            Some(&reference)
        );
    }
}
