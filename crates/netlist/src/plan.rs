//! Levelized execution plans — the compile step of the bit-parallel
//! engine.
//!
//! [`ExecPlan::compile`] flattens a validated [`Netlist`] into a dense,
//! allocation-free instruction stream: one [`PlanOp`] per gate, sorted
//! by the logic levels the builder's Kahn pass already computed, with
//! every operand net spelled out in one flat `u32` array. An evaluator
//! (see `vcad-engine`) walks the stream front to back — a whole level
//! per pass — touching nothing but flat arrays indexed by
//! [`NetId::index`]: no per-gate `Vec`s, no hash lookups, no pointer
//! chasing through [`Gate`](crate::Gate) structs.
//!
//! Within a level the ops are grouped by gate kind and arity, and the
//! plan records each maximal group as a [`PlanRun`], so an evaluator
//! picks the gate function once per run instead of once per gate. For
//! two-input runs the plan also keeps one `(a, b, out)` net triplet per
//! op ([`ExecPlan::binary_ops`]), the only array a fault-free sweep of
//! such a run has to read.
//!
//! The plan also precomputes the two lookups fault injection needs:
//! the flat *operand slot* of every `(gate, pin)` pair (so a pin fault
//! is one masked override at a known index) and, for every primary
//! output, whether it aliases a primary input net (those outputs must
//! reproduce the raw, possibly-`Z` input value exactly as the
//! event-driven path does).

use std::ops::Range;

use crate::{GateId, GateKind, NetId, Netlist};

/// One compiled gate: its function, output net and operand range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOp {
    kind: GateKind,
    output: u32,
    first_operand: u32,
    operand_count: u32,
}

impl PlanOp {
    /// The gate's logic function.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Dense index of the net this op drives.
    #[must_use]
    pub fn output(&self) -> usize {
        self.output as usize
    }

    /// The op's slots in [`ExecPlan::operands`], in pin order.
    #[must_use]
    pub fn operand_range(&self) -> Range<usize> {
        let start = self.first_operand as usize;
        start..start + self.operand_count as usize
    }
}

/// A maximal stretch of consecutive ops, all in one level, that share a
/// gate kind and an input count — the unit an evaluator dispatches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanRun {
    kind: GateKind,
    arity: u32,
    start: u32,
    end: u32,
    /// Index of the run's first triplet in the plan's binary-op array;
    /// meaningful only when `arity == 2`.
    first_binary: u32,
}

impl PlanRun {
    /// The logic function every op of the run computes.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The input count every op of the run has.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The run's op range in [`ExecPlan::ops`].
    #[must_use]
    pub fn ops(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Where a primary output reads its value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputSource {
    /// The output taps a gate-driven net (dense net index).
    Net(usize),
    /// The output aliases the `n`-th declared primary input and must
    /// reproduce its raw (possibly `Z`) value.
    Input(usize),
}

/// A [`Netlist`] compiled to a levelized, flat instruction stream.
///
/// The plan is self-contained: it captures everything an evaluator
/// needs (ops, operands, level boundaries, input nets, output sources,
/// net count), so it can outlive the netlist it was compiled from.
///
/// # Examples
///
/// ```
/// use vcad_netlist::{generators, ExecPlan};
///
/// let plan = ExecPlan::compile(&generators::c17());
/// assert_eq!(plan.op_count(), generators::c17().gate_count());
/// assert_eq!(plan.level_count(), generators::c17().stats().depth as usize);
/// ```
#[derive(Clone, Debug)]
pub struct ExecPlan {
    name: String,
    ops: Vec<PlanOp>,
    operands: Vec<u32>,
    /// `level_bounds[l]..level_bounds[l + 1]` is the op range of level
    /// `l + 1` (builder levels are 1-based).
    level_bounds: Vec<u32>,
    /// Dense indices of the primary-input nets, declaration order.
    input_nets: Vec<u32>,
    outputs: Vec<OutputSource>,
    net_count: usize,
    /// Op index of every gate, indexed by [`GateId::index`].
    op_of_gate: Vec<u32>,
    /// The runs, tiling `ops` in order.
    runs: Vec<PlanRun>,
    /// `[a, b, out]` dense net indices of every two-input op, op order.
    binary: Vec<[u32; 3]>,
}

impl ExecPlan {
    /// Compiles `netlist` into a levelized plan.
    ///
    /// Gates are ordered by `(level, kind, arity, GateId)`. That is a
    /// valid topological order, since a gate's level strictly exceeds
    /// every driver's and ops of one level never read each other; and
    /// the stream is deterministic for a given netlist regardless of the
    /// builder's Kahn tie-breaking. Each maximal stretch of one level's
    /// ops sharing a kind and arity becomes one [`PlanRun`]; no run
    /// crosses a level boundary.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> ExecPlan {
        let gate_count = netlist.gate_count();
        // Bucket the gates by level with a counting pass (GateId order
        // within a bucket), then sort each level by its gates' `(kind,
        // arity)` keys, computed once; the sort is stable, so GateId
        // order survives inside a group.
        let depth = netlist
            .gates()
            .map(|(g, _)| netlist.gate_level(g))
            .max()
            .unwrap_or(0) as usize;
        let mut level_bounds = vec![0u32; depth + 1];
        for (gid, _) in netlist.gates() {
            level_bounds[netlist.gate_level(gid) as usize] += 1;
        }
        for l in 1..=depth {
            level_bounds[l] += level_bounds[l - 1];
        }
        let mut next: Vec<u32> = level_bounds[..depth].to_vec();
        let mut order = vec![(0u64, 0u32); gate_count];
        for (gid, gate) in netlist.gates() {
            let slot = &mut next[netlist.gate_level(gid) as usize - 1];
            let group = (gate.kind() as u64) << 32 | gate.inputs().len() as u64;
            order[*slot as usize] = (group, gid.index() as u32);
            *slot += 1;
        }
        for l in 0..depth {
            order[level_bounds[l] as usize..level_bounds[l + 1] as usize]
                .sort_by_key(|&(group, _)| group);
        }

        let mut ops = Vec::with_capacity(gate_count);
        let mut operands = Vec::new();
        let mut op_of_gate = vec![0u32; gate_count];
        let mut runs: Vec<PlanRun> = Vec::new();
        let mut binary = Vec::new();
        for l in 0..depth {
            let mut open_group = None;
            for &(group, gid) in &order[level_bounds[l] as usize..level_bounds[l + 1] as usize] {
                let gate = netlist.gate(GateId(gid));
                let op = ops.len() as u32;
                let arity = gate.inputs().len() as u32;
                if open_group == Some(group) {
                    runs.last_mut().expect("an open run").end = op + 1;
                } else {
                    open_group = Some(group);
                    runs.push(PlanRun {
                        kind: gate.kind(),
                        arity,
                        start: op,
                        end: op + 1,
                        first_binary: binary.len() as u32,
                    });
                }
                op_of_gate[gid as usize] = op;
                let first_operand = operands.len() as u32;
                operands.extend(gate.inputs().iter().map(|n| n.index() as u32));
                let output = gate.output().index() as u32;
                if arity == 2 {
                    binary.push([
                        operands[first_operand as usize],
                        operands[first_operand as usize + 1],
                        output,
                    ]);
                }
                ops.push(PlanOp {
                    kind: gate.kind(),
                    output,
                    first_operand,
                    operand_count: arity,
                });
            }
        }

        let input_nets: Vec<u32> = netlist.inputs().iter().map(|n| n.index() as u32).collect();
        let outputs = netlist
            .outputs()
            .iter()
            .map(|(_, net)| {
                netlist
                    .inputs()
                    .iter()
                    .position(|i| i == net)
                    .map_or(OutputSource::Net(net.index()), OutputSource::Input)
            })
            .collect();

        ExecPlan {
            name: netlist.name().to_string(),
            ops,
            operands,
            level_bounds,
            input_nets,
            outputs,
            net_count: netlist.net_count(),
            op_of_gate,
            runs,
            binary,
        }
    }

    /// The source netlist's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compiled ops (= source gate count).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of logic levels (= netlist depth).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_bounds.len() - 1
    }

    /// The compiled instruction stream, level-major, each level grouped
    /// by kind and arity (see [`ExecPlan::runs`]).
    #[must_use]
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The flat operand array: dense net indices, shared by all ops.
    #[must_use]
    pub fn operands(&self) -> &[u32] {
        &self.operands
    }

    /// The maximal same-kind, same-arity runs, tiling [`ExecPlan::ops`]
    /// in order; each lies inside one level.
    #[must_use]
    pub fn runs(&self) -> &[PlanRun] {
        &self.runs
    }

    /// The `[a, b, out]` dense net indices of each op in a two-input
    /// `run`, op order; empty for a run of any other arity.
    #[must_use]
    pub fn binary_ops(&self, run: &PlanRun) -> &[[u32; 3]] {
        if run.arity != 2 {
            return &[];
        }
        let start = run.first_binary as usize;
        &self.binary[start..start + run.ops().len()]
    }

    /// The op range of level `level` (0-based here; builder level
    /// `level + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.level_count()`.
    #[must_use]
    pub fn level(&self, level: usize) -> Range<usize> {
        self.level_bounds[level] as usize..self.level_bounds[level + 1] as usize
    }

    /// Dense indices of the primary-input nets, declaration order.
    #[must_use]
    pub fn input_nets(&self) -> &[u32] {
        &self.input_nets
    }

    /// Where each primary output reads from, declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[OutputSource] {
        &self.outputs
    }

    /// Number of nets in the source netlist (sizes evaluator arrays).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// The flat operand slot of `(gate, pin)`, or `None` when the pin
    /// does not exist — the address a pin fault masks.
    #[must_use]
    pub fn operand_slot(&self, gate: GateId, pin: usize) -> Option<usize> {
        let op = &self.ops[*self.op_of_gate.get(gate.index())? as usize];
        let range = op.operand_range();
        (pin < range.len()).then(|| range.start + pin)
    }

    /// The net feeding operand slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn operand_net(&self, slot: usize) -> NetId {
        NetId(self.operands[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GateKind, NetlistBuilder};

    #[test]
    fn levels_partition_ops_in_dependency_order() {
        let nl = generators::c17();
        let plan = ExecPlan::compile(&nl);
        assert_eq!(plan.op_count(), nl.gate_count());
        assert_eq!(plan.level_count(), nl.stats().depth as usize);

        // Level ranges tile 0..op_count without gaps.
        let mut cursor = 0;
        for l in 0..plan.level_count() {
            let range = plan.level(l);
            assert_eq!(range.start, cursor);
            assert!(!range.is_empty(), "level {l} empty");
            cursor = range.end;
        }
        assert_eq!(cursor, plan.op_count());

        // Every operand of an op is either a primary input or driven
        // by an earlier op.
        let mut ready = vec![false; plan.net_count()];
        for &n in plan.input_nets() {
            ready[n as usize] = true;
        }
        for op in plan.ops() {
            for &slot in &plan.operands()[op.operand_range()] {
                assert!(ready[slot as usize], "operand net {slot} not yet driven");
            }
            ready[op.output()] = true;
        }
    }

    #[test]
    fn operand_slots_address_pins() {
        let nl = generators::half_adder_nand();
        let plan = ExecPlan::compile(&nl);
        for (gid, gate) in nl.gates() {
            for pin in 0..gate.inputs().len() {
                let slot = plan.operand_slot(gid, pin).expect("pin exists");
                assert_eq!(plan.operand_net(slot), gate.inputs()[pin]);
            }
            assert_eq!(plan.operand_slot(gid, gate.inputs().len()), None);
        }
    }

    #[test]
    fn outputs_distinguish_input_aliases() {
        let mut b = NetlistBuilder::new("alias");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And, &[a, c]);
        b.output("pass", c);
        b.output("y", y);
        let nl = b.build().unwrap();
        let plan = ExecPlan::compile(&nl);
        assert_eq!(plan.outputs()[0], OutputSource::Input(1));
        assert_eq!(plan.outputs()[1], OutputSource::Net(y.index()));
    }

    /// Checks the run invariants on `plan`: runs tile the op range in
    /// order, never cross a level boundary, and every op of a run has
    /// the run's kind and arity. Each level's ops are grouped by
    /// `(kind, arity)`: no pair shows up in two runs of one level, which
    /// also makes every run maximal.
    fn assert_runs_well_formed(plan: &ExecPlan) {
        let mut cursor = 0;
        let mut level = 0;
        let mut seen: Vec<(GateKind, usize)> = Vec::new();
        for (k, run) in plan.runs().iter().enumerate() {
            let ops = run.ops();
            assert_eq!(ops.start, cursor, "run {k} leaves a gap");
            assert!(!ops.is_empty(), "run {k} empty");
            cursor = ops.end;
            while plan.level(level).end <= ops.start {
                level += 1;
                seen.clear();
            }
            let bounds = plan.level(level);
            assert!(
                bounds.start <= ops.start && ops.end <= bounds.end,
                "run {k} crosses a level boundary"
            );
            assert!(
                !seen.contains(&(run.kind(), run.arity())),
                "level {level} holds two {:?}/{} runs",
                run.kind(),
                run.arity()
            );
            seen.push((run.kind(), run.arity()));
            for op in &plan.ops()[ops] {
                assert_eq!(op.kind(), run.kind());
                assert_eq!(op.operand_range().len(), run.arity());
            }
            let triplets = plan.binary_ops(run);
            if run.arity() == 2 {
                assert_eq!(triplets.len(), run.ops().len());
                for (op, &[a, b, out]) in plan.ops()[run.ops()].iter().zip(triplets) {
                    assert_eq!(&plan.operands()[op.operand_range()], &[a, b]);
                    assert_eq!(op.output(), out as usize);
                }
            } else {
                assert!(triplets.is_empty());
            }
        }
        assert_eq!(cursor, plan.op_count(), "runs must cover every op");
    }

    #[test]
    fn each_level_is_grouped_into_kind_and_arity_runs() {
        let mut b = NetlistBuilder::new("mixed");
        let ins = b.input_bus("i", 5);
        let and2 = b.gate(GateKind::And, &[ins[0], ins[1]]);
        let and3 = b.gate(GateKind::And, &ins[0..3]);
        let xor2 = b.gate(GateKind::Xor, &[ins[3], ins[4]]);
        let buf = b.gate(GateKind::Buf, &[ins[2]]);
        let one = b.gate(GateKind::Const1, &[]);
        let and2b = b.gate(GateKind::And, &[ins[2], ins[4]]);
        let mux = b.gate(GateKind::Mux2, &[and2, and3, xor2]);
        let nor4 = b.gate(GateKind::Nor, &[buf, one, and2b, ins[0]]);
        let xor2b = b.gate(GateKind::Xor, &[mux, nor4]);
        b.output_bus("o", &[xor2b, and2b]);
        let nl = b.build().unwrap();
        let plan = ExecPlan::compile(&nl);
        assert_runs_well_formed(&plan);
        let shape: Vec<(GateKind, usize, usize)> = plan
            .runs()
            .iter()
            .map(|r| (r.kind(), r.arity(), r.ops().len()))
            .collect();
        // Level 1 holds both two-input ANDs in one run, then the
        // three-input AND, the XOR, the buffer and the constant.
        assert_eq!(
            shape,
            vec![
                (GateKind::Buf, 1, 1),
                (GateKind::And, 2, 2),
                (GateKind::And, 3, 1),
                (GateKind::Xor, 2, 1),
                (GateKind::Const1, 0, 1),
                (GateKind::Nor, 4, 1),
                (GateKind::Mux2, 3, 1),
                (GateKind::Xor, 2, 1),
            ]
        );
        for (gid, gate) in nl.gates() {
            for pin in 0..gate.inputs().len() {
                let slot = plan.operand_slot(gid, pin).expect("pin exists");
                assert_eq!(plan.operand_net(slot), gate.inputs()[pin]);
            }
        }
    }

    #[test]
    fn generator_plans_have_well_formed_runs() {
        for nl in [
            generators::c17(),
            generators::wallace_multiplier(8),
            generators::alu(4),
            generators::barrel_shifter(8),
            generators::carry_select_adder(8, 2),
        ] {
            assert_runs_well_formed(&ExecPlan::compile(&nl));
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let nl = generators::wallace_multiplier(4);
        let a = ExecPlan::compile(&nl);
        let b = ExecPlan::compile(&nl);
        assert_eq!(a.ops(), b.ops());
        assert_eq!(a.operands(), b.operands());
        assert_eq!(a.runs(), b.runs());
    }
}
