//! The fractanet benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mesh-sparse|fracta-saturated|analyze-scale|certify-heal> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats one workload for about `--seconds`
//! seconds with tracing off and reports the end-to-end metrics as
//! medians over the repetitions. With `--trace 1` it makes the traced
//! layer run instead: the named workload once untraced, then every
//! workload once through each layer's public functions inside spans;
//! the named workload's two walls give the tracing overhead. Spans are
//! written to `perfbench/out/spans-<workload>-<seed>.jsonl`.
//!
//! Every output is checked; the checks are the benchmark's operations.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod heap;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Workload, ALL, PAR_THREADS, THREADS};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The benchmark's operations: every output check, and how many failed.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// A `/proc/self/status` field in kB (`VmHWM` is peak resident memory).
fn vm_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// kB (1024 bytes) to MB (10^6 bytes).
fn mb(kb: u64) -> f64 {
    kb as f64 * 1024.0 / 1e6
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Repeats `w` with tracing off until about `seconds` have passed (at
/// least once) and reports each end-to-end metric over the
/// repetitions.
fn end_to_end(w: Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Vec<Metric> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    loop {
        for _ in 0..w.extra_setups() {
            setups.push(workloads::setup_once(w, seed));
        }
        let rep = workloads::run(w, seed, checks);
        setups.push(rep.setup_s);
        reps.push(rep);
        let per_rep = start.elapsed() / reps.len() as u32;
        if start.elapsed() + per_rep > budget {
            break;
        }
    }
    for rep in &reps[1..] {
        checks.check(
            "simulated outcome repeats exactly at a fixed seed",
            rep.fingerprint == reps[0].fingerprint,
        );
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "{}: {} repetition(s), wall_s min {:.4} max {:.4}; {} set-up sample(s)",
        w.name(),
        reps.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        setups.len()
    );
    let cycles_per_s = median(reps.iter().map(|r| r.cycles as f64 / r.run_s).collect());
    // Simulated outcomes are identical across repetitions (checked
    // above), so the first one stands for all.
    let first = &reps[0];
    vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("wall_s", median(walls), "s"),
        Metric::new("sim_cycles_per_s", cycles_per_s, "cy/s"),
        Metric::new("peak_rss_mb", mb(vm_kb("VmHWM")), "MB"),
        Metric::new("sim_accepted_flits", first.accepted, "flits/node/cy"),
        Metric::new("sim_latency_avg_cy", first.latency, "cy"),
        Metric::new("delivered_ratio", first.delivered_ratio, "ratio"),
    ]
}

/// The traced layer run: `w` once untraced, then every workload's
/// traced pipeline; the two walls of `w` give the tracing overhead.
fn layers(w: Workload, seed: u64, checks: &mut Checks) -> Vec<Metric> {
    // Untraced first, before heap counting starts.
    let untraced = workloads::run(w, seed, checks).wall_s;
    heap::start();
    let mut tr = Tracer::new();
    let mut out = Vec::new();
    for x in ALL {
        workloads::trace(x, seed, &mut tr, checks, &mut out);
    }
    let traced = tr.total_secs(w.name());
    out.push(Metric::new("trace.traced_wall_s", traced, "s"));
    out.push(Metric::new("trace.untraced_wall_s", untraced, "s"));
    out.push(Metric::new("trace.overhead", traced / untraced, "ratio"));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host_cpus\":{},\"threads\":{THREADS},\"par_threads\":{PAR_THREADS}}}",
        w.name(),
        host_cpus()
    );
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    std::fs::write(&path, tr.to_jsonl(&header)).expect("write spans");
    eprintln!("wrote {} spans to {}", tr.len(), path.display());
    out
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cpus = host_cpus();
    // A thread count above the host's CPUs measures time slicing, not
    // the engine.
    let max_threads = if args.trace { PAR_THREADS } else { THREADS };
    if max_threads > cpus {
        eprintln!("error: this run needs {max_threads} threads but the host has {cpus} CPU(s)");
        return ExitCode::from(2);
    }
    println!(
        "host_cpus={cpus} threads={THREADS} par_threads={} workload={} seed={} trace={}",
        if args.trace { PAR_THREADS } else { 0 },
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );

    let mut checks = Checks::default();
    let metrics = if args.trace {
        layers(args.workload, args.seed, &mut checks)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &mut checks)
    };
    let mut fields = Vec::new();
    for m in &metrics {
        assert!(
            m.value.is_finite(),
            "{} is not a number: {}",
            m.name,
            m.value
        );
        println!("{:<48} {:>20} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
