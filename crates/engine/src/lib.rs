//! # vcad-engine — compiled levelized bit-parallel netlist engine
//!
//! The event-driven scheduler (`vcad-core`) evaluates one gate token at
//! a time; that generality is wasted on the flat combinational netlists
//! that dominate fault-simulation and power workloads. This crate is
//! the raw-speed path: a [`Netlist`](vcad_netlist::Netlist) is compiled
//! once into a levelized [`ExecPlan`](vcad_netlist::ExecPlan), and a
//! [`PackedEvaluator`] then sweeps the plan front to back evaluating
//! **64 test patterns per gate visit**, with each pattern riding one
//! lane of a dual-rail [`RailWord`](vcad_logic::RailWord) so `X` and
//! `Z` propagate exactly as they do on the event-driven path.
//!
//! Fault injection is a masked override at the fault site — classic
//! PPSFP (parallel-pattern single-fault propagation): a stuck-at fault
//! becomes a [`Force`] that pins the chosen lanes of one net (or one
//! gate input pin) to a constant before fan-out consumes it. The same
//! machinery also runs the transposed parallel-*fault* layout (one
//! pattern, up to 64 single-fault experiments across the lanes), which
//! is how `vcad-faults` builds detection tables at speed.
//!
//! A gate-level block inside a simulation evaluates one pattern per
//! event instead: it [`broadcast`](CompiledNetlist::broadcast)s the
//! pattern into every lane, runs the unforced sweep of an evaluator it
//! keeps in its scheduler's state store, and reads lane 0. A pass with
//! no [`Force`] runs a sweep instantiation that tests no force cell, and
//! an evaluator only allocates force cells when it is first forced.
//!
//! The plan groups each level's gates by kind and arity into runs, and
//! the sweep dispatches once per run: two-input runs of the basic gates
//! each get a tight loop, which on an unforced pass reads one flat
//! `(a, b, out)` triplet per gate; buffers, inverters, constants,
//! multiplexers and wider gates go through one per-op body.
//!
//! The engine is differential-tested against the scalar
//! [`Evaluator`](vcad_netlist::Evaluator) and, downstream, against the
//! event-driven scheduler: any divergence in outputs, detection tables
//! or fees is a test failure, so `--engine=compiled` is a pure
//! throughput knob.
//!
//! # Examples
//!
//! ```
//! use vcad_engine::CompiledNetlist;
//! use vcad_logic::LogicVec;
//! use vcad_netlist::generators;
//!
//! let compiled = CompiledNetlist::compile(&generators::ripple_adder(4));
//! // 5 + 6 on the packed path: bit 0 of the pattern is input 0.
//! let a = LogicVec::from_u64(4, 5);
//! let b = LogicVec::from_u64(4, 6);
//! let out = compiled.outputs(&a.concat(&b));
//! assert_eq!(out.to_word().unwrap().value(), 11);
//!
//! // The per-event path of a gate-level block: one evaluator, reused
//! // across patterns, and one broadcast load per pattern.
//! let mut eval = compiled.evaluator();
//! let packed = compiled.broadcast(&a.concat(&b));
//! assert_eq!(eval.run(&packed, &[]).lane(0), out);
//! ```

mod compiled;

pub use compiled::{
    CompiledNetlist, Force, ForceSite, PackedEvaluator, PackedOutputs, PackedPatterns,
};

use std::fmt;
use std::str::FromStr;

/// Which gate-evaluation backend a simulation should use.
///
/// Both backends are bit-identical by construction (and by CI gate);
/// the choice only moves the wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The event-driven scheduler: one gate token at a time.
    #[default]
    Event,
    /// The compiled levelized bit-parallel engine in this crate.
    Compiled,
}

impl EngineKind {
    /// Every engine kind, for exhaustive sweeps and error messages.
    pub const ALL: [EngineKind; 2] = [EngineKind::Event, EngineKind::Compiled];

    /// The spec/CLI label (`"event"` / `"compiled"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Event => "event",
            EngineKind::Compiled => "compiled",
        }
    }

    /// Parses a spec/CLI label.
    #[must_use]
    pub fn parse(label: &str) -> Option<EngineKind> {
        match label {
            "event" => Some(EngineKind::Event),
            "compiled" => Some(EngineKind::Compiled),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        EngineKind::parse(s)
            .ok_or_else(|| format!("unknown engine `{s}` (expected `event` or `compiled`)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_labels_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.label().parse::<EngineKind>(), Ok(kind));
        }
        assert_eq!(EngineKind::parse("fast"), None);
        let err = "fast".parse::<EngineKind>().unwrap_err();
        assert!(err.contains("unknown engine `fast`"), "{err}");
        assert_eq!(EngineKind::default(), EngineKind::Event);
    }
}
