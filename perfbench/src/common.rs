//! Stimulus generation, output checks and order statistics shared by the
//! workloads.

use std::collections::HashSet;
use std::sync::Arc;

use vcad_core::stdlib::{CaptureState, VectorInput};
use vcad_core::SimTime;
use vcad_logic::LogicVec;
use vcad_prng::{splitmix64, Rng};

/// Stimulus stream used by timed, untraced rounds.
pub const STREAM_TIMED: u64 = 1;
/// Stimulus stream used by traced rounds. Round 0 of this stream is the
/// exact-count round, so its counts depend on the seed alone.
pub const STREAM_TRACED: u64 = 2;
/// Stimulus stream used by set-up (warm-up) work.
pub const STREAM_SETUP: u64 = 3;

/// A generator for one round's stimulus, derived from the benchmark seed
/// and the round's coordinates only.
pub fn round_rng(seed: u64, workload: &str, stream: u64, round: u64) -> Rng {
    let mut state = seed;
    for b in workload.bytes() {
        state = splitmix64(&mut state) ^ u64::from(b);
    }
    state ^= splitmix64(&mut state) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    state ^= splitmix64(&mut state) ^ round.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    Rng::seed_from_u64(splitmix64(&mut state))
}

/// `count` operand pairs of `width` bits each. With `distinct`, no pair
/// repeats, so no call in the round is a repeat of another.
pub fn operand_pairs(rng: &mut Rng, width: usize, count: usize, distinct: bool) -> Vec<(u64, u64)> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let pair = (rng.next_u64() & mask, rng.next_u64() & mask);
        if !distinct || seen.insert(pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Two replaying sources, one per operand, emitting pattern `i` at tick `i`.
pub fn operand_sources(
    prefix: &str,
    width: usize,
    pairs: &[(u64, u64)],
) -> (Arc<VectorInput>, Arc<VectorInput>) {
    let a = pairs.iter().map(|&(a, _)| LogicVec::from_u64(width, a));
    let b = pairs.iter().map(|&(_, b)| LogicVec::from_u64(width, b));
    (
        Arc::new(VectorInput::new(format!("{prefix}A"), a.collect())),
        Arc::new(VectorInput::new(format!("{prefix}B"), b.collect())),
    )
}

/// Checks a registered multiplier's captured output: operands emitted at
/// tick `i` reach the output at tick `i + 1`, so the value the output holds
/// at the end of instant `i + 1` must be `a[i] * b[i]`. (Within an instant
/// the multiplier may glitch while only one register has updated; only the
/// settled value counts.) Returns the number of patterns whose product is
/// wrong or missing.
pub fn product_failures(capture: Option<&CaptureState>, pairs: &[(u64, u64)]) -> u64 {
    let Some(capture) = capture else {
        return pairs.len() as u64;
    };
    let history = capture.history();
    let mut next = 0;
    let mut settled: Option<&LogicVec> = None;
    let mut failures = 0;
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let tick = SimTime::new(i as u64 + 1);
        while next < history.len() && history[next].0 <= tick {
            settled = Some(&history[next].1);
            next += 1;
        }
        let expected = u128::from(a) * u128::from(b);
        let got = settled.and_then(LogicVec::to_word).map(|w| w.value());
        if got != Some(expected) {
            failures += 1;
        }
    }
    failures
}

/// Exact order statistic: the smallest sample with at least `q` of the
/// samples at or below it. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a list of floats (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU time this process has used so far, all threads (including ones
/// that have exited), user plus system, seconds. Stolen time on a virtual
/// machine is not charged to the process.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks of 1/100 s.
    let after = stat.rsplit(')').next().unwrap_or_default();
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// CPU time the hypervisor has stolen from this machine so far, summed over
/// its CPUs (the `steal` column of `/proc/stat`), seconds.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
