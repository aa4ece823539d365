//! Differential + property tests: the compiled bit-parallel engine
//! must agree bit-for-bit with the scalar `Evaluator` — the same
//! semantics the event-driven scheduler executes — on every generator
//! circuit and on vcad-prng-seeded random netlists, over fully
//! four-valued patterns (`0`, `1`, `X`, `Z`).
//!
//! A test-local generator adds circuits that mix every gate kind at
//! arities 1–4, so the plan's per-kind runs of buffers, constants,
//! multiplexers and wide gates are swept too, unforced against the
//! scalar evaluator and forced against the faulty-netlist evaluator.
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-engine --test
//! differential`.

use vcad_engine::{CompiledNetlist, Force};
use vcad_faults::{Fault, FaultSite, FaultyEvaluator, StuckAt};
use vcad_logic::{Logic, LogicVec};
use vcad_netlist::generators::{self, RandomCircuitSpec};
use vcad_netlist::{Evaluator, GateKind, NetId, Netlist, NetlistBuilder};
use vcad_prng::Rng;

const SEEDS: [u64; 8] = [3, 7, 21, 34, 55, 89, 144, 4242];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

/// A random four-valued pattern; roughly half the bits binary, the
/// rest split between `X` and `Z` so both unknown codes propagate.
fn random_pattern(rng: &mut Rng, width: usize) -> LogicVec {
    LogicVec::from_bits((0..width).map(|_| match rng.gen_range(0usize..8) {
        0 => Logic::X,
        1 => Logic::Z,
        n => Logic::from(n & 1 == 1),
    }))
}

fn assert_engines_agree(nl: &Netlist, patterns: &[LogicVec], context: &str) {
    let scalar = Evaluator::new(nl);
    let compiled = CompiledNetlist::compile(nl);
    let mut eval = compiled.evaluator();
    for chunk in patterns.chunks(64) {
        let packed = compiled.pack(chunk);
        let out = eval.run(&packed, &[]);
        for (lane, pattern) in chunk.iter().enumerate() {
            let expect = scalar.outputs(pattern);
            let got = out.lane(lane);
            assert_eq!(
                got, expect,
                "{context}: engines diverge on pattern {pattern} \
                 (compiled {got}, event-path semantics {expect})"
            );
        }
    }
}

#[test]
fn generator_circuits_agree_on_binary_and_four_valued_patterns() {
    let circuits: Vec<Netlist> = vec![
        generators::c17(),
        generators::half_adder(),
        generators::half_adder_nand(),
        generators::full_adder(),
        generators::ripple_adder(4),
        generators::carry_select_adder(8, 2),
        generators::array_multiplier(3),
        generators::wallace_multiplier(4),
        generators::parity_tree(8),
        generators::equality_comparator(4),
        generators::barrel_shifter(8),
        generators::alu(4),
    ];
    let mut rng = Rng::seed_from_u64(0xD1FF);
    for nl in &circuits {
        let w = nl.input_count();
        let mut patterns = Vec::new();
        // Exhaustive when narrow enough, sampled otherwise.
        if w <= 8 {
            patterns.extend((0u64..1 << w).map(|p| LogicVec::from_u64(w, p)));
        } else {
            patterns
                .extend((0..128).map(|_| LogicVec::from_u64(w, rng.next_u64() & ((1 << w) - 1))));
        }
        patterns.push(LogicVec::filled(w, Logic::X));
        patterns.push(LogicVec::filled(w, Logic::Z));
        patterns.extend((0..64).map(|_| random_pattern(&mut rng, w)));
        assert_engines_agree(nl, &patterns, nl.name());
    }
}

#[test]
fn random_circuits_agree_across_seeds() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        let inputs = rng.gen_range(6usize..28);
        let spec = RandomCircuitSpec {
            inputs,
            gates: rng.gen_range(20usize..250),
            outputs: rng.gen_range(2usize..14),
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let nl = generators::random_circuit(spec);
        let mut patterns: Vec<LogicVec> =
            (0..96).map(|_| random_pattern(&mut rng, inputs)).collect();
        patterns.push(LogicVec::filled(inputs, Logic::X));
        patterns.push(LogicVec::filled(inputs, Logic::Z));
        patterns.push(LogicVec::zeros(inputs));
        patterns.push(LogicVec::filled(inputs, Logic::One));
        assert_engines_agree(
            &nl,
            &patterns,
            &format!("seed {seed} (rerun with VCAD_PROP_SEED={seed})"),
        );
    }
}

#[test]
fn x_propagation_is_lane_exact() {
    // Flip exactly one input to X at a time and require the X cone to
    // match the scalar path output-for-output.
    for seed in seeds_under_test() {
        let nl = generators::random_circuit(RandomCircuitSpec {
            inputs: 12,
            gates: 80,
            outputs: 8,
            seed,
        });
        let scalar = Evaluator::new(&nl);
        let compiled = CompiledNetlist::compile(&nl);
        let mut eval = compiled.evaluator();
        let mut rng = Rng::seed_from_u64(seed ^ 0xABCD);
        let base = LogicVec::from_u64(12, rng.next_u64() & 0xFFF);
        let patterns: Vec<LogicVec> = (0..12)
            .map(|i| {
                let mut p = base.clone();
                p.set(i, Logic::X);
                p
            })
            .collect();
        let packed = compiled.pack(&patterns);
        let out = eval.run(&packed, &[]);
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                out.lane(lane),
                scalar.outputs(pattern),
                "seed {seed}, X on input {lane} \
                 (rerun with VCAD_PROP_SEED={seed})"
            );
        }
    }
}

/// A seeded random circuit and a batch of four-valued patterns for it.
fn random_case(seed: u64) -> (Netlist, Vec<LogicVec>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EE9);
    let inputs = rng.gen_range(6usize..28);
    let nl = generators::random_circuit(RandomCircuitSpec {
        inputs,
        gates: rng.gen_range(20usize..250),
        outputs: rng.gen_range(2usize..14),
        seed: seed.wrapping_mul(0xA24B_AED4_963E_E407),
    });
    let mut patterns: Vec<LogicVec> = (0..62).map(|_| random_pattern(&mut rng, inputs)).collect();
    patterns.push(LogicVec::filled(inputs, Logic::X));
    patterns.push(LogicVec::filled(inputs, Logic::Z));
    (nl, patterns)
}

#[test]
fn unforced_sweep_equals_zero_lane_forced_sweep() {
    // A force claiming no lane still takes the forced instantiation of
    // the level sweep, so both instantiations must agree on every net.
    for seed in seeds_under_test() {
        let (nl, patterns) = random_case(seed);
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&patterns);
        let mut eval = compiled.evaluator();
        let unforced = eval.run(&packed, &[]);
        for (net, _) in nl.nets() {
            for stuck_one in [false, true] {
                let forced = eval.run(&packed, &[Force::net(net, stuck_one, 0)]);
                assert_eq!(
                    forced, unforced,
                    "seed {seed}, zero-lane force on {net:?} \
                     (rerun with VCAD_PROP_SEED={seed})"
                );
            }
        }
        for (gate, g) in nl.gates() {
            for pin in 0..g.inputs().len() {
                let forced = eval.run(&packed, &[Force::pin(gate, pin, true, 0)]);
                assert_eq!(
                    forced, unforced,
                    "seed {seed}, zero-lane force on pin {pin} of {gate:?} \
                     (rerun with VCAD_PROP_SEED={seed})"
                );
            }
        }
    }
}

#[test]
fn evaluator_reused_after_forced_passes_matches_a_fresh_one() {
    for seed in seeds_under_test() {
        let (nl, patterns) = random_case(seed);
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&patterns);
        let fresh = compiled.evaluator().run(&packed, &[]);
        let mut rng = Rng::seed_from_u64(seed ^ 0xF0F0);
        let nets: Vec<_> = nl.nets().map(|(id, _)| id).collect();
        let gates: Vec<_> = nl
            .gates()
            .map(|(id, g)| (id, g.inputs().len()))
            .filter(|&(_, pins)| pins > 0)
            .collect();
        let mut eval = compiled.evaluator();
        for round in 0..8 {
            // Stem and pin forces over random lanes, then a plain pass.
            let net = nets[rng.gen_range(0..nets.len())];
            let (gate, pins) = gates[rng.gen_range(0..gates.len())];
            let forces = [
                Force::net(net, rng.next_u64() & 1 == 1, rng.next_u64()),
                Force::pin(gate, rng.gen_range(0..pins), true, rng.next_u64()),
            ];
            let _ = eval.run(&packed, &forces);
            // The next pass, on either sweep instantiation, must not
            // see the previous pass's force cells.
            let zero_lane = Force::net(net, true, 0);
            for next in [&[][..], &[zero_lane][..]] {
                assert_eq!(
                    eval.run(&packed, next),
                    fresh,
                    "seed {seed}, round {round}: forces {forces:?} leaked into \
                     the next pass under {next:?} (rerun with VCAD_PROP_SEED={seed})"
                );
            }
        }
    }
}

#[test]
fn single_pattern_outputs_match_the_scalar_evaluator() {
    // `outputs` broadcasts one pattern and reads lane 0, the path a
    // gate-level block takes per event.
    for seed in seeds_under_test() {
        let (nl, patterns) = random_case(seed);
        let scalar = Evaluator::new(&nl);
        let compiled = CompiledNetlist::compile(&nl);
        for pattern in &patterns {
            assert_eq!(
                compiled.outputs(pattern),
                scalar.outputs(pattern),
                "seed {seed}, pattern {pattern} (rerun with VCAD_PROP_SEED={seed})"
            );
        }
    }
}

/// A seeded circuit drawing every [`GateKind`]: buffers and inverters
/// take one input, multiplexers three, constants none, and the n-ary
/// kinds two to four. Inputs come from earlier nets, biased toward
/// recent ones for depth; the outputs are the last gates plus one
/// primary input tapped directly.
fn mixed_circuit(seed: u64) -> Netlist {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3A11_C1D5);
    let inputs = rng.gen_range(4usize..16);
    let gates = rng.gen_range(40usize..220);
    let mut b = NetlistBuilder::new(format!("mixed_s{seed}"));
    let mut nets: Vec<NetId> = b.input_bus("pi", inputs);
    for _ in 0..gates {
        let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
        let arity = match kind.arity() {
            (lo, hi) if lo == hi => lo,
            (lo, _) => rng.gen_range(lo..5),
        };
        let ins: Vec<NetId> = (0..arity)
            .map(|_| {
                let lo = nets.len() / 2;
                if rng.gen_bool(0.7) {
                    nets[rng.gen_range(lo..nets.len())]
                } else {
                    nets[rng.gen_range(0..nets.len())]
                }
            })
            .collect();
        let out = b.gate(kind, &ins);
        nets.push(out);
    }
    let outputs = rng.gen_range(2usize..12);
    let mut taps = nets[nets.len() - outputs..].to_vec();
    taps.push(nets[rng.gen_range(0..inputs)]);
    b.output_bus("po", &taps);
    b.build().expect("mixed circuit is structurally valid")
}

/// Every stuck-at fault of `nl`: both polarities on every net and on
/// every gate input pin.
fn every_fault(nl: &Netlist) -> Vec<Fault> {
    let mut sites: Vec<FaultSite> = nl.nets().map(|(net, _)| FaultSite::Net(net)).collect();
    for (gate, g) in nl.gates() {
        sites.extend((0..g.inputs().len()).map(|pin| FaultSite::Pin { gate, pin }));
    }
    sites
        .into_iter()
        .flat_map(|site| [StuckAt::Zero, StuckAt::One].map(|stuck| Fault::new(site, stuck)))
        .collect()
}

fn force_of(fault: &Fault, lanes: u64) -> Force {
    let stuck_one = fault.stuck == StuckAt::One;
    match fault.site {
        FaultSite::Net(net) => Force::net(net, stuck_one, lanes),
        FaultSite::Pin { gate, pin } => Force::pin(gate, pin, stuck_one, lanes),
    }
}

#[test]
fn mixed_kind_circuits_agree_unforced() {
    for seed in seeds_under_test() {
        let nl = mixed_circuit(seed);
        let kinds: Vec<GateKind> = nl.gates().map(|(_, g)| g.kind()).collect();
        assert!(
            GateKind::ALL.iter().all(|k| kinds.contains(k)),
            "seed {seed}: the generator must place every gate kind"
        );
        let mut rng = Rng::seed_from_u64(seed ^ 0x77);
        let w = nl.input_count();
        let mut patterns: Vec<LogicVec> = (0..126).map(|_| random_pattern(&mut rng, w)).collect();
        patterns.push(LogicVec::filled(w, Logic::X));
        patterns.push(LogicVec::filled(w, Logic::Z));
        assert_engines_agree(
            &nl,
            &patterns,
            &format!("mixed seed {seed} (rerun with VCAD_PROP_SEED={seed})"),
        );
    }
}

#[test]
fn mixed_kind_circuits_agree_with_the_faulty_evaluator_under_forces() {
    for seed in seeds_under_test() {
        let nl = mixed_circuit(seed);
        let faults = every_fault(&nl);
        assert!(
            faults
                .iter()
                .any(|f| matches!(f.site, FaultSite::Pin { pin, .. } if pin >= 2)),
            "seed {seed}: the fault list must reach pins past the second"
        );
        let compiled = CompiledNetlist::compile(&nl);
        let faulty = FaultyEvaluator::new(&nl);
        let mut eval = compiled.evaluator();
        let mut rng = Rng::seed_from_u64(seed ^ 0xFA17);
        let context = format!("mixed seed {seed} (rerun with VCAD_PROP_SEED={seed})");

        // Transposed layout: one pattern in every lane, one fault per lane.
        for _ in 0..3 {
            let pattern = random_pattern(&mut rng, nl.input_count());
            let packed = compiled.broadcast(&pattern);
            for group in faults.chunks(64) {
                let forces: Vec<Force> = group
                    .iter()
                    .enumerate()
                    .map(|(lane, f)| force_of(f, 1 << lane))
                    .collect();
                let out = eval.run(&packed, &forces);
                for (lane, fault) in group.iter().enumerate() {
                    assert_eq!(
                        out.lane(lane),
                        faulty.outputs(fault, &pattern),
                        "{context}: {fault:?} on pattern {pattern}"
                    );
                }
            }
        }

        // PPSFP layout: one fault over every lane, one pattern per lane.
        let patterns: Vec<LogicVec> = (0..64)
            .map(|_| random_pattern(&mut rng, nl.input_count()))
            .collect();
        let packed = compiled.pack(&patterns);
        for fault in faults.iter().step_by(3) {
            let out = eval.run(&packed, &[force_of(fault, u64::MAX)]);
            for (lane, pattern) in patterns.iter().enumerate() {
                assert_eq!(
                    out.lane(lane),
                    faulty.outputs(fault, pattern),
                    "{context}: {fault:?} on pattern {pattern}"
                );
            }
        }
    }
}
