//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <mr_tcp|gate_local|fault_remote|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--rustc <version>] [--git-rev <rev>]
//! ```
//!
//! Each workload is a closed loop driven by one client thread: a round of
//! seeded stimulus is simulated, timed, and its outputs checked outside the
//! timed region, then the next round starts. With `--trace 0` the run
//! measures for `--seconds` and prints the end-to-end metrics. With
//! `--trace 1` it measures half the time untraced and half traced, replays
//! the captured calls through the program's public functions, dumps the
//! benchmark's spans as a Chrome trace, stitches the dump, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod common;
mod fault_remote;
mod gate_local;
mod mr_tcp;
mod probe;
mod remote;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{median, peak_rss_mb, quantile, steal_seconds, STREAM_TIMED, STREAM_TRACED};
use trace::{LayerTime, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

/// One round's outcome.
pub struct Round {
    /// Stimulus patterns completed (summed over parallel pipelines).
    pub patterns: u64,
    /// Time spent simulating: the only timed part of a round.
    pub elapsed: Duration,
    /// Process CPU time (all threads, user and system) over `elapsed`, s.
    pub cpu: f64,
    /// Simulation events the round processed (0 where the program does not
    /// report them).
    pub events: u64,
    /// Output checks made, and how many failed.
    pub checks: u64,
    pub failures: u64,
    /// Counts that depend on the stimulus alone, so they repeat exactly.
    pub exact: Vec<(&'static str, f64)>,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs round `index` of stimulus `stream`. Only the simulation itself
    /// is timed, inside a `core.run` or `faults.run` span when traced;
    /// stimulus generation, elaboration and output checks are not.
    fn round(&mut self, stream: u64, index: u64, tracer: Option<&Tracer>) -> Round;

    /// Removes and returns the latency samples of the workload's unit call
    /// (ns): `Transport::call` for the remote workloads, the gate-level
    /// multiplier's `Module::on_signal` for `gate_local`.
    fn take_call_samples(&mut self) -> Vec<u64>;

    /// Calls attempted since set-up, and how many failed at the transport
    /// or were shed by the server.
    fn calls(&self) -> (u64, u64);

    /// Routes the wrappers' spans to `tracer` and starts capturing what the
    /// replays need.
    fn start_trace(&mut self, tracer: &Arc<Tracer>);

    /// Stops tracing, replays the first traced round's calls through the
    /// program's public functions (inside spans) and returns the per-layer
    /// metrics measured that way, with the replay's checks and failures.
    fn finish_trace(&mut self, tracer: &Tracer) -> (Vec<(&'static str, f64)>, u64, u64);
}

/// Every gated end-to-end metric: name, unit. `call_tail_us` is measured
/// and printed beside them but not gated: on the shared virtual machine the
/// figures were taken on, its run-to-run spread exceeds any bound the
/// benchmark may set (see `README.md`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("patterns_per_s", "1/s"),
    ("cpu_us_per_pattern", "us"),
    ("call_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric: name, unit. A layer a workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("rmi.calls_per_pattern", "count"),
    ("rmi.bytes_per_call", "B"),
    ("rmi.busy_share", "ratio"),
    ("rmi.call_us", "us"),
    ("ip.dispatch_us", "us"),
    ("rmi.net_poll_us", "us"),
    ("rmi.codec_ns_per_call", "ns"),
    ("rmi.codec_ns_per_kb", "ns/KiB"),
    ("rmi.mux_enqueued", "count"),
    ("rmi.mux_queue_shed", "count"),
    ("rmi.admission_admitted", "count"),
    ("rmi.admission_shed", "count"),
    ("core.events", "count"),
    ("core.events_per_s", "1/s"),
    ("core.sched_self_s", "s"),
    ("engine.evals", "count"),
    ("engine.eval_us", "us"),
    ("core.shard_imbalance", "ratio"),
    ("faults.table_ms", "ms"),
    ("faults.provider_table_ms", "ms"),
    ("rmi.table_wire_ms", "ms"),
    ("rmi.bytes_per_table", "B"),
    ("faults.tables_requested", "count"),
    ("faults.injections", "count"),
    ("faults.user_self_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans", "count"),
    ("obs.orphans", "count"),
];

const WORKLOADS: [&str; 3] = ["mr_tcp", "gate_local", "fault_remote"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    git_rev: String,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--rustc" => args.rustc = value()?,
            "--git-rev" => args.git_rev = value()?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "mr_tcp" => Box::new(mr_tcp::MrTcp::setup(seed)),
        "gate_local" => Box::new(gate_local::GateLocal::setup(seed)),
        "fault_remote" => Box::new(fault_remote::FaultRemote::setup(seed)),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// The rounds of one phase, summed.
#[derive(Default)]
struct Phase {
    rounds: u64,
    patterns: u64,
    timed: Duration,
    cpu: f64,
    events: u64,
    checks: u64,
    failures: u64,
    /// Exact counts of the phase's round 0.
    exact: Vec<(&'static str, f64)>,
    /// Each round's patterns per second.
    rates: Vec<f64>,
    /// Each round's median and tail call latency, ns.
    p50s: Vec<f64>,
    tails: Vec<f64>,
    /// The tail percentile, and the calls per round it was taken over.
    tail_level: f64,
    round_calls: usize,
}

impl Phase {
    fn seconds_per_pattern(&self) -> f64 {
        self.timed.as_secs_f64() / self.patterns.max(1) as f64
    }
}

/// The highest percentile of a fixed ladder that leaves at least ten of
/// `n` samples beyond it. Calls per round depend on the stimulus alone, so
/// a workload's level never changes from run to run. The ladder stops at
/// p99: further out, a 45 µs gate evaluation's tail on a shared virtual
/// machine measures the hypervisor's preemptions, not the program.
fn tail_level(n: usize) -> f64 {
    const LADDER: [f64; 6] = [0.99, 0.98, 0.95, 0.9, 0.75, 0.5];
    LADDER
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// Runs rounds of `stream` until `budget` of timed simulation is spent.
fn run_phase(
    w: &mut dyn Workload,
    stream: u64,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    while phase.timed < budget && !tracer.is_some_and(Tracer::full) {
        let round = w.round(stream, phase.rounds, tracer);
        let mut samples = w.take_call_samples();
        samples.sort_unstable();
        if !samples.is_empty() {
            phase.tail_level = tail_level(samples.len());
            phase.round_calls = samples.len();
            phase.p50s.push(quantile(&samples, 0.5) as f64);
            phase
                .tails
                .push(quantile(&samples, phase.tail_level) as f64);
        }
        if phase.rounds == 0 {
            phase.exact.clone_from(&round.exact);
        }
        phase.rounds += 1;
        phase
            .rates
            .push(round.patterns as f64 / round.elapsed.as_secs_f64());
        phase.patterns += round.patterns;
        phase.timed += round.elapsed;
        phase.cpu += round.cpu;
        phase.events += round.events;
        phase.checks += round.checks;
        phase.failures += round.failures;
    }
    phase
}

/// Everything one workload run produced.
struct Outcome {
    name: &'static str,
    /// The metrics `BENCHMARK.json` declares for this mode.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Measured and printed, not gated.
    reported: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
}

fn run_workload(name: &'static str, args: &Args) -> Outcome {
    let mut notes = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous rig down first: every set-up starts from the
        // same state, and only one provider is ever alive.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(name, args.seed));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let setup_s = median(&setups);

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let steal_before = steal_seconds();
    let started = Instant::now();
    let timed = run_phase(w.as_mut(), STREAM_TIMED, budget, None);
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let steal_share =
        (steal_seconds() - steal_before) / (started.elapsed().as_secs_f64() * parallelism as f64);
    let peak_rss = peak_rss_mb();
    let mut checks = timed.checks;
    let mut failures = timed.failures;
    let mut correct = true;
    if timed.tails.is_empty() {
        correct = false;
        notes.push("no call samples recorded".into());
    }
    notes.push(format!(
        "{} rounds, {} patterns in {:.3} s timed; latency is the median over rounds of each round's p50 and p{} ({} calls a round)",
        timed.rounds,
        timed.patterns,
        timed.timed.as_secs_f64(),
        timed.tail_level * 100.0,
        timed.round_calls
    ));
    // Medians over rounds: a burst of load from outside the benchmark
    // moves one round, not the figure.
    let values = [
        setup_s,
        median(&timed.rates),
        timed.cpu * 1e6 / timed.patterns.max(1) as f64,
        median(&timed.p50s) / 1e3,
        peak_rss,
    ];
    let mut metrics: Vec<(&'static str, &'static str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    let mut reported = vec![
        ("call_tail_us", "us", median(&timed.tails) / 1e3),
        ("cpu_steal_share", "ratio", steal_share),
    ];

    if args.trace {
        let tracer = Arc::new(Tracer::new(&format!("perfbench-{name}")));
        let root = tracer.span("perfbench", "workload");
        w.start_trace(&tracer);
        let traced = run_phase(w.as_mut(), STREAM_TRACED, budget, Some(&tracer));
        let (replayed, replay_checks, replay_failures) = w.finish_trace(&tracer);
        drop(root);
        checks += traced.checks + replay_checks;
        failures += traced.failures + replay_failures;
        let dump = args
            .out_dir
            .join(format!("trace-{name}-seed{}.json", args.seed));
        let layers = match tracer.dump_and_stitch(&dump) {
            Ok(stitched) => {
                notes.push(format!(
                    "trace: {} spans in {} (stitch with: obs-report report {} --require-no-orphans)",
                    stitched.spans.len(),
                    dump.display(),
                    dump.display()
                ));
                if stitched.orphans + stitched.inconsistent > 0 || stitched.dropped > 0 {
                    correct = false;
                    notes.push(format!(
                        "trace inconsistent: {} orphans, {} crossed or duplicate, {} dropped",
                        stitched.orphans, stitched.inconsistent, stitched.dropped
                    ));
                }
                span_layers(
                    &stitched.layer_times(),
                    &traced,
                    &timed,
                    stitched.spans.len(),
                    stitched.orphans,
                )
            }
            Err(e) => {
                correct = false;
                notes.push(format!("trace dump failed: {e}"));
                Vec::new()
            }
        };
        let mut per_layer: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        for (n, v) in traced.exact.iter().chain(&replayed).chain(&layers) {
            per_layer.insert(n, *v);
        }
        // The untraced half's end-to-end figures ride along, ungated.
        reported.splice(0..0, metrics);
        metrics = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, per_layer[n]))
            .collect();
        notes.push(format!(
            "traced: {} rounds, {} patterns in {:.3} s timed",
            traced.rounds,
            traced.patterns,
            traced.timed.as_secs_f64()
        ));
    }

    let (call_attempts, call_failures) = w.calls();
    drop(w);
    let attempted = call_attempts + checks;
    let failed = call_failures + failures;
    if failed > 0 {
        correct = false;
    }
    for m in metrics.iter_mut().chain(reported.iter_mut()) {
        if !m.2.is_finite() {
            correct = false;
            notes.push(format!("{} is not finite", m.0));
            m.2 = 0.0;
        }
    }
    Outcome {
        name,
        metrics,
        reported,
        attempted,
        failed,
        correct,
        notes,
    }
}

/// Per-layer metrics read off the stitched spans.
fn span_layers(
    times: &HashMap<String, LayerTime>,
    traced: &Phase,
    untraced: &Phase,
    spans: usize,
    orphans: usize,
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let calls = get("rmi.call");
    let core_run = get("core.run");
    let faults_run = get("faults.run");
    let evals = get("engine.eval");
    let run_busy = core_run.busy_ns + faults_run.busy_ns;
    let rounds = traced.rounds.max(1) as f64;
    let mut out = vec![
        ("obs.spans", spans as f64),
        ("obs.orphans", orphans as f64),
        (
            "obs.trace_overhead",
            traced.seconds_per_pattern() / untraced.seconds_per_pattern(),
        ),
        (
            "core.events_per_s",
            traced.events as f64 / traced.timed.as_secs_f64(),
        ),
    ];
    if run_busy > 0 {
        out.push(("rmi.busy_share", calls.busy_ns as f64 / run_busy as f64));
    }
    if core_run.count > 0 {
        out.push(("core.sched_self_s", core_run.self_ns as f64 / 1e9 / rounds));
    }
    if faults_run.count > 0 {
        out.push((
            "faults.user_self_s",
            faults_run.self_ns as f64 / 1e9 / rounds,
        ));
    }
    if evals.count > 0 {
        out.push((
            "engine.eval_us",
            evals.busy_ns as f64 / evals.count as f64 / 1e3,
        ));
    }
    out
}

/// Escapes `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let host = format!(
        "{{\"available_parallelism\": {parallelism}, \"rustc\": {}, \"git_revision\": {}}}",
        json_str(&args.rustc),
        json_str(&args.git_rev)
    );

    let mut all_metrics: Vec<(String, &str, f64)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for &name in &names {
        if names.len() > 1 {
            // Restart the resident-set high-water mark, so each workload's
            // peak_rss_mb is its own (Linux: writing 5 to clear_refs).
            let _ = std::fs::write("/proc/self/clear_refs", "5");
        }
        let outcome = run_workload(name, &args);
        let command = format!(
            "python3 perfbench/run.py --workload {name} --seed {} --seconds {} --trace {}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("== {} (seed {}) ==", outcome.name, args.seed);
        for (n, u, v) in &outcome.metrics {
            println!("  {n:<26} {v:>16.4} {u}");
        }
        for (n, u, v) in &outcome.reported {
            println!("  {n:<26} {v:>16.4} {u}  (not gated)");
        }
        println!(
            "  {:<26} {:>16.4} ratio  ({} failed of {} attempted)",
            "ops_failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
        for note in &outcome.notes {
            println!("  # {note}");
        }
        let named: Vec<(String, &str, f64)> = outcome
            .metrics
            .iter()
            .map(|&(n, u, v)| (n.to_string(), u, v))
            .collect();
        let reported: Vec<(String, &str, f64)> = outcome
            .reported
            .iter()
            .map(|&(n, u, v)| (n.to_string(), u, v))
            .collect();
        let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
        println!(
            "record {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"command\": {}, \"host\": {host}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"reported\": {}, \"notes\": [{}]}}",
            json_str(name),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            json_str(&command),
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            metrics_json(&named),
            metrics_json(&reported),
            notes.join(", ")
        );
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        if names.len() > 1 {
            all_metrics.extend(
                named
                    .into_iter()
                    .map(|(n, u, v)| (format!("{name}.{n}"), u, v)),
            );
        } else {
            all_metrics = named;
        }
    }
    println!("{}", result_json(correct, attempted, failed, &all_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric tables here and the benchmark definition at the root of
    /// the repository must list the same names and units.
    #[test]
    fn metric_tables_match_the_benchmark_definition() {
        let def = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(def.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            def.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "BENCHMARK.json lists metrics this binary does not print"
        );
    }
}
