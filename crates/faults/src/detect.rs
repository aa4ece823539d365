//! Detection tables: the paper's per-pattern testability exchange format.

use std::collections::HashMap;

use vcad_engine::{CompiledNetlist, EngineKind, Force, PackedOutputs};
use vcad_logic::LogicVec;
use vcad_netlist::{Evaluator, Netlist};
use vcad_rmi::Value;

use crate::collapse::FaultUniverse;
use crate::eval::FaultyEvaluator;
use crate::fault::{Fault, SymbolicFault};
use crate::parallel::fault_force;

/// The detection table of one component for one input configuration.
///
/// Each row associates an *erroneous* output configuration with the
/// symbolic faults that would cause it under the given inputs. It is a
/// local, IP-sensitive parameter the provider can evaluate independently
/// and return to the user; the user learns *which outputs can go wrong and
/// under which fault names* — never how the component is built.
///
/// # Examples
///
/// ```
/// use vcad_faults::{DetectionTable, FaultUniverse};
/// use vcad_logic::LogicVec;
/// use vcad_netlist::generators;
///
/// let ip1 = generators::half_adder_nand();
/// let universe = FaultUniverse::collapsed(&ip1);
/// // The paper's Figure 4 case: inputs (1, 0).
/// let table = DetectionTable::build(&ip1, &universe, &"01".parse().unwrap());
/// assert_eq!(table.fault_free().to_string(), "01"); // sum=1, carry=0
/// assert!(table.rows().len() >= 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DetectionTable {
    inputs: LogicVec,
    fault_free: LogicVec,
    rows: Vec<(LogicVec, Vec<SymbolicFault>)>,
}

impl DetectionTable {
    /// Builds the table by simulating every collapsed fault of `universe`
    /// under `inputs` — the provider-side computation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the netlist's input count.
    #[must_use]
    pub fn build(netlist: &Netlist, universe: &FaultUniverse, inputs: &LogicVec) -> DetectionTable {
        let fault_free = Evaluator::new(netlist).outputs(inputs);
        let faulty = FaultyEvaluator::new(netlist);
        let mut rows: Vec<(LogicVec, Vec<SymbolicFault>)> = Vec::new();
        // Statically untestable classes simulate to the fault-free output
        // under every pattern, so skipping them leaves the table
        // bit-identical while saving their simulation passes.
        for class in universe.classes().iter().filter(|c| c.is_testable()) {
            let out = faulty.outputs(&class.representative, inputs);
            if out == fault_free {
                continue;
            }
            let name = class.representative.name(netlist);
            match rows.iter_mut().find(|(o, _)| *o == out) {
                Some((_, faults)) => faults.push(name),
                None => rows.push((out, vec![name])),
            }
        }
        DetectionTable {
            inputs: inputs.clone(),
            fault_free,
            rows,
        }
    }

    /// [`DetectionTable::build`] with an explicit gate-evaluation
    /// backend. Both backends produce identical tables (same rows, same
    /// order); `Compiled` simulates up to 64 fault classes per pass by
    /// replicating the pattern across lanes and injecting one lane-masked
    /// fault per class — the transposed parallel-fault layout. It
    /// compiles `netlist` on every call; a source answering many requests
    /// keeps one compiled builder instead
    /// ([`NetlistDetectionSource`](crate::NetlistDetectionSource)).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the netlist's input count.
    #[must_use]
    pub fn build_with(
        netlist: &Netlist,
        universe: &FaultUniverse,
        inputs: &LogicVec,
        engine: EngineKind,
    ) -> DetectionTable {
        match engine {
            EngineKind::Event => DetectionTable::build(netlist, universe, inputs),
            EngineKind::Compiled => CompiledTables::new(netlist, universe).build(inputs),
        }
    }

    /// The input configuration the table was built for.
    #[must_use]
    pub fn inputs(&self) -> &LogicVec {
        &self.inputs
    }

    /// The fault-free output configuration.
    #[must_use]
    pub fn fault_free(&self) -> &LogicVec {
        &self.fault_free
    }

    /// The rows: `(erroneous output, faults causing it)`.
    #[must_use]
    pub fn rows(&self) -> &[(LogicVec, Vec<SymbolicFault>)] {
        &self.rows
    }

    /// The erroneous output a given fault would produce, if it is excited
    /// and propagated to the component outputs by these inputs.
    #[must_use]
    pub fn output_for(&self, fault: &SymbolicFault) -> Option<&LogicVec> {
        self.rows
            .iter()
            .find(|(_, faults)| faults.contains(fault))
            .map(|(o, _)| o)
    }

    /// All faults this input configuration can expose at the component
    /// boundary.
    #[must_use]
    pub fn exposable_faults(&self) -> Vec<&SymbolicFault> {
        self.rows.iter().flat_map(|(_, fs)| fs.iter()).collect()
    }

    /// Encodes the table as a wire [`Value`] for RMI transmission.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("inputs".into(), Value::Vec(self.inputs.clone())),
            ("fault_free".into(), Value::Vec(self.fault_free.clone())),
            (
                "rows".into(),
                Value::List(
                    self.rows
                        .iter()
                        .map(|(out, faults)| {
                            Value::Map(vec![
                                ("output".into(), Value::Vec(out.clone())),
                                (
                                    "faults".into(),
                                    Value::List(
                                        faults
                                            .iter()
                                            .map(|f| Value::Str(f.as_str().to_owned()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a table from its wire [`Value`] form.
    ///
    /// Returns `None` when the value is not a well-formed table.
    #[must_use]
    pub fn from_value(value: &Value) -> Option<DetectionTable> {
        let inputs = value.get("inputs")?.as_logic_vec()?.clone();
        let fault_free = value.get("fault_free")?.as_logic_vec()?.clone();
        let mut rows = Vec::new();
        for row in value.get("rows")?.as_list()? {
            let out = row.get("output")?.as_logic_vec()?.clone();
            let faults = row
                .get("faults")?
                .as_list()?
                .iter()
                .map(|f| f.as_str().map(SymbolicFault::from))
                .collect::<Option<Vec<_>>>()?;
            rows.push((out, faults));
        }
        Some(DetectionTable {
            inputs,
            fault_free,
            rows,
        })
    }
}

/// The compiled detection-table builder: the netlist compiled once and
/// the testable fault classes named once, so each request only runs the
/// parallel-fault transpose.
///
/// Per table the pattern is broadcast into all 64 lanes once; the
/// unforced pass gives the fault-free image, then each chunk of up to 64
/// testable classes runs one pass with one lane-masked fault per lane.
/// Only lanes whose outputs differ from the fault-free image are visited,
/// and lanes sharing an erroneous image are grouped so each distinct
/// image is decoded once. Rows and faults come out in class order,
/// exactly as [`DetectionTable::build`] emits them.
#[derive(Clone, Debug)]
pub(crate) struct CompiledTables {
    compiled: CompiledNetlist,
    testable: Vec<(Fault, SymbolicFault)>,
}

impl CompiledTables {
    /// Compiles `netlist` and names the testable classes of `universe`
    /// (statically untestable classes never reach the outputs, so they
    /// are skipped exactly as the event path skips them).
    pub(crate) fn new(netlist: &Netlist, universe: &FaultUniverse) -> CompiledTables {
        CompiledTables {
            compiled: CompiledNetlist::compile(netlist),
            testable: universe
                .classes()
                .iter()
                .filter(|c| c.is_testable())
                .map(|c| (c.representative, c.representative.name(netlist)))
                .collect(),
        }
    }

    /// The detection table for `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` differs from the netlist's input count.
    pub(crate) fn build(&self, inputs: &LogicVec) -> DetectionTable {
        let packed = self.compiled.broadcast(inputs);
        let mut eval = self.compiled.evaluator();
        let golden = eval.run(&packed, &[]);
        let mut rows: Vec<(LogicVec, Vec<SymbolicFault>)> = Vec::new();
        let mut row_of: HashMap<LogicVec, usize> = HashMap::new();
        let mut forces: Vec<Force> = Vec::with_capacity(64);
        for chunk in self.testable.chunks(64) {
            forces.clear();
            forces.extend(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(lane, (fault, _))| fault_force(fault, 1u64 << lane)),
            );
            let out = eval.run(&packed, &forces);
            let live = u64::MAX >> (64 - chunk.len());
            let mut pending = golden.diff_mask(&out) & live;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                let group = pending & same_image(&out, lane);
                pending &= !group;
                let image = out.lane(lane);
                let row = *row_of.entry(image).or_insert_with_key(|image| {
                    rows.push((image.clone(), Vec::new()));
                    rows.len() - 1
                });
                let faults = &mut rows[row].1;
                let mut lanes = group;
                while lanes != 0 {
                    faults.push(chunk[lanes.trailing_zeros() as usize].1.clone());
                    lanes &= lanes - 1;
                }
            }
        }
        DetectionTable {
            inputs: inputs.clone(),
            fault_free: golden.lane(0),
            rows,
        }
    }
}

/// The lanes of `out` whose whole output image equals lane `lane`'s.
fn same_image(out: &PackedOutputs, lane: usize) -> u64 {
    (0..out.width()).fold(u64::MAX, |acc, i| {
        let w = out.word(i);
        // Spread lane `lane`'s rail bits across the word, then keep the
        // lanes that match on both rails.
        let one = (w.one >> lane & 1).wrapping_neg();
        let zero = (w.zero >> lane & 1).wrapping_neg();
        acc & !((w.one ^ one) | (w.zero ^ zero))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_netlist::generators;

    fn figure4_table() -> DetectionTable {
        let ip1 = generators::half_adder_nand();
        let universe = FaultUniverse::collapsed(&ip1);
        // Inputs (a=1, b=0): MSB-first string "01" means b=0, a=1.
        DetectionTable::build(&ip1, &universe, &"01".parse().unwrap())
    }

    #[test]
    fn figure4_shape() {
        let table = figure4_table();
        // Fault-free (sum, carry) = (1, 0).
        assert_eq!(table.fault_free().to_string(), "01");
        // Every row's output differs from the fault-free one.
        for (out, faults) in table.rows() {
            assert_ne!(out, table.fault_free());
            assert!(!faults.is_empty());
        }
        // The paper's two characteristic error configurations exist:
        // (sum, carry) = (1, 1) and (0, 0).
        let outputs: Vec<String> = table.rows().iter().map(|(o, _)| o.to_string()).collect();
        assert!(outputs.contains(&"11".to_string()), "{outputs:?}");
        assert!(outputs.contains(&"00".to_string()), "{outputs:?}");
    }

    #[test]
    fn rows_are_sound_against_faulty_evaluation() {
        let ip1 = generators::half_adder_nand();
        let universe = FaultUniverse::collapsed(&ip1);
        for p in 0..4u64 {
            let inputs = LogicVec::from_u64(2, p);
            let table = DetectionTable::build(&ip1, &universe, &inputs);
            let faulty = FaultyEvaluator::new(&ip1);
            for class in universe.classes() {
                let name = class.representative.name(&ip1);
                let simulated = faulty.outputs(&class.representative, &inputs);
                match table.output_for(&name) {
                    Some(out) => assert_eq!(*out, simulated, "{name} under {inputs}"),
                    None => assert_eq!(simulated, *table.fault_free(), "{name} under {inputs}"),
                }
            }
        }
    }

    #[test]
    fn wire_round_trip() {
        let table = figure4_table();
        let value = table.to_value();
        // The value survives actual encoding, like an RMI result would.
        let bytes = value.encode();
        let decoded = Value::decode(&bytes).unwrap();
        assert_eq!(DetectionTable::from_value(&decoded), Some(table));
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert_eq!(DetectionTable::from_value(&Value::Null), None);
        assert_eq!(
            DetectionTable::from_value(&Value::Map(vec![("inputs".into(), Value::I64(3))])),
            None
        );
    }

    #[test]
    fn exposable_faults_lists_all_rows() {
        let table = figure4_table();
        let n: usize = table.rows().iter().map(|(_, f)| f.len()).sum();
        assert_eq!(table.exposable_faults().len(), n);
    }

    #[test]
    fn untestable_marking_leaves_tables_bit_identical() {
        use crate::testability::TestabilityAnalysis;
        use vcad_logic::Logic;
        let nl = generators::untestable_demo(3);
        let full = FaultUniverse::collapsed(&nl);
        let mut pruned = full.clone();
        let marked = pruned.apply_testability(&nl, &TestabilityAnalysis::analyze(&nl));
        assert!(marked > 0, "demo circuit must yield untestable classes");
        let w = nl.input_count();
        let mut patterns: Vec<LogicVec> =
            (0..1u64 << w).map(|p| LogicVec::from_u64(w, p)).collect();
        patterns.push(LogicVec::filled(w, Logic::X));
        let mut with_z = LogicVec::zeros(w);
        with_z.set(0, Logic::Z);
        patterns.push(with_z);
        for inputs in &patterns {
            for engine in [EngineKind::Event, EngineKind::Compiled] {
                let unpruned = DetectionTable::build_with(&nl, &full, inputs, engine);
                let skipped = DetectionTable::build_with(&nl, &pruned, inputs, engine);
                assert_eq!(unpruned, skipped, "{engine:?} under {inputs}");
            }
        }
    }

    #[test]
    fn compiled_tables_are_identical_to_event_tables() {
        use vcad_logic::Logic;
        // More than 64 collapsed classes on the multiplier, so the
        // parallel-fault transpose spans several passes.
        for nl in [
            generators::half_adder_nand(),
            generators::array_multiplier(3),
        ] {
            let universe = FaultUniverse::collapsed(&nl);
            let w = nl.input_count();
            let mut patterns: Vec<LogicVec> = (0..1u64 << w.min(4))
                .map(|p| LogicVec::from_u64(w, p))
                .collect();
            patterns.push(LogicVec::filled(w, Logic::X));
            let mut with_z = LogicVec::zeros(w);
            with_z.set(0, Logic::Z);
            patterns.push(with_z);
            for inputs in &patterns {
                let event = DetectionTable::build(&nl, &universe, inputs);
                let compiled =
                    DetectionTable::build_with(&nl, &universe, inputs, EngineKind::Compiled);
                assert_eq!(event, compiled, "{} under {inputs}", nl.name());
            }
        }
    }

    /// Seeded binary patterns plus an all-`X` pattern and one with a `Z`.
    fn edge_patterns(width: usize, seed: u64, binary: usize) -> Vec<LogicVec> {
        use vcad_logic::Logic;
        let mut rng = vcad_prng::Rng::seed_from_u64(seed);
        let mut patterns: Vec<LogicVec> = (0..binary)
            .map(|_| {
                LogicVec::from_bits((0..width).map(|_| {
                    if rng.gen_bool(0.5) {
                        Logic::One
                    } else {
                        Logic::Zero
                    }
                }))
            })
            .collect();
        patterns.push(LogicVec::filled(width, Logic::X));
        let mut with_z = patterns[0].clone();
        with_z.set(width / 2, Logic::Z);
        patterns.push(with_z);
        patterns
    }

    /// One compiled builder answers every pattern exactly as the event
    /// path does.
    fn assert_compiled_matches_event(nl: &Netlist, universe: &FaultUniverse, seed: u64) {
        let tables = CompiledTables::new(nl, universe);
        for inputs in edge_patterns(nl.input_count(), seed, 4) {
            let event = DetectionTable::build(nl, universe, &inputs);
            assert_eq!(tables.build(&inputs), event, "{} under {inputs}", nl.name());
        }
    }

    #[test]
    fn transpose_with_exact_multiple_of_64_classes() {
        let nl = generators::equality_comparator(38);
        let universe = FaultUniverse::collapsed(&nl);
        assert_eq!(universe.testable_class_count(), 3 * 64);
        assert_compiled_matches_event(&nl, &universe, 1);
    }

    #[test]
    fn transpose_with_partial_last_chunk() {
        let nl = generators::wallace_multiplier(8);
        let universe = FaultUniverse::collapsed(&nl);
        assert_eq!(universe.testable_class_count(), 1569);
        assert_compiled_matches_event(&nl, &universe, 2);
    }

    #[test]
    fn transpose_with_pruned_universe() {
        use crate::testability::TestabilityAnalysis;
        let nl = generators::untestable_demo(5);
        let mut universe = FaultUniverse::collapsed(&nl);
        let marked = universe.apply_testability(&nl, &TestabilityAnalysis::analyze(&nl));
        assert!(marked > 0, "demo circuit must yield untestable classes");
        assert_compiled_matches_event(&nl, &universe, 3);
    }

    #[test]
    fn transpose_with_no_detected_fault() {
        // Every output stem fault is visible under any pattern, so keep
        // only the classes this pattern cannot expose: every chunk then
        // has an empty diff mask.
        let nl = generators::wallace_multiplier(4);
        let universe = FaultUniverse::collapsed(&nl);
        let inputs = LogicVec::zeros(nl.input_count());
        let event = DetectionTable::build(&nl, &universe, &inputs);
        let mut tables = CompiledTables::new(&nl, &universe);
        tables
            .testable
            .retain(|(_, name)| event.output_for(name).is_none());
        assert!(tables.testable.len() > 64, "several chunks stay in play");
        let table = tables.build(&inputs);
        assert!(table.rows().is_empty(), "{:?}", table.rows());
        assert_eq!(table.fault_free(), event.fault_free());
        assert_eq!(table.inputs(), &inputs);
    }
}
