//! One gate-level block evaluation as the backplane runs it, on each
//! engine, for the 16-bit Wallace multiplier a `NetlistBusBlock` wraps
//! in the mixed-level designs. `event` is the scalar `Evaluator` walk;
//! `compiled` is one broadcast load plus one unforced sweep of a reused
//! `PackedEvaluator` — the evaluator a compiled block keeps in its
//! scheduler's state store — with the outputs read from lane 0.
//!
//! Two more entries weigh what the plan layout costs against what it
//! saves: `compile` is one `CompiledNetlist::compile` of the 16-bit
//! multiplier, and `compiled_forced` one 64-fault forced pass over a
//! broadcast pattern on the 8-bit multiplier, the inner loop of a
//! provider's detection table.

use std::hint::black_box;
use std::time::Duration;

use vcad_bench::microbench::Group;
use vcad_bench::workload::random_patterns;
use vcad_engine::{CompiledNetlist, Force};
use vcad_faults::{FaultSite, FaultUniverse, StuckAt};
use vcad_logic::LogicVec;
use vcad_netlist::{generators, Evaluator};

fn main() {
    let mut group = Group::new("gate_block")
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let width = 16;
    let nl = generators::wallace_multiplier(width);
    let patterns = random_patterns(2 * width, 256, 16);

    let scalar = Evaluator::new(&nl);
    let mut next = patterns.iter().cycle();
    group.bench(format!("event/{width}"), || {
        black_box(scalar.outputs(next.next().expect("cycled")));
    });

    let compiled = CompiledNetlist::compile(&nl);
    let mut eval = compiled.evaluator();
    let mut next = patterns.iter().cycle();
    group.bench(format!("compiled/{width}"), || {
        let packed = compiled.broadcast(next.next().expect("cycled"));
        let out = eval.run(&packed, &[]);
        black_box(LogicVec::from_bits(
            (0..out.width()).map(|k| out.word(k).lane(0)),
        ));
    });

    group.bench(format!("compile/{width}"), || {
        black_box(CompiledNetlist::compile(&nl));
    });

    // The first 64 collapsed faults, one per lane.
    let width = 8;
    let nl = generators::wallace_multiplier(width);
    let compiled = CompiledNetlist::compile(&nl);
    let forces: Vec<Force> = FaultUniverse::collapsed(&nl)
        .representatives()
        .iter()
        .take(64)
        .enumerate()
        .map(|(lane, fault)| {
            let stuck_one = fault.stuck == StuckAt::One;
            let lanes = 1u64 << lane;
            match fault.site {
                FaultSite::Net(net) => Force::net(net, stuck_one, lanes),
                FaultSite::Pin { gate, pin } => Force::pin(gate, pin, stuck_one, lanes),
            }
        })
        .collect();
    assert_eq!(
        forces.len(),
        64,
        "the 8-bit multiplier has 64 faults to place"
    );
    let packed = compiled.broadcast(&random_patterns(2 * width, 1, 17)[0]);
    let mut eval = compiled.evaluator();
    group.bench(format!("compiled_forced/{width}"), || {
        black_box(eval.run(&packed, &forces));
    });
}
