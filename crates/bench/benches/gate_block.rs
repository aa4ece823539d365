//! One gate-level block evaluation as the backplane runs it, on each
//! engine, for the 16-bit Wallace multiplier a `NetlistBusBlock` wraps
//! in the mixed-level designs. `event` is the scalar `Evaluator` walk;
//! `compiled` is one broadcast load plus one unforced sweep of a reused
//! `PackedEvaluator` — the evaluator a compiled block keeps in its
//! scheduler's state store — with the outputs read from lane 0.

use std::hint::black_box;
use std::time::Duration;

use vcad_bench::microbench::Group;
use vcad_bench::workload::random_patterns;
use vcad_engine::CompiledNetlist;
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
}
