//! DrugTree benchmark: runs one workload through the public API of the
//! `drugtree` crates and prints its metrics.
//!
//! ```text
//! perfbench --workload <fleet|explore|deposit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced
//! run; with `--trace 1` the per-layer metrics of a traced run, whose
//! spans are also written to `.perfbench-out/`. The last line of
//! standard output is the result as one JSON object. See README.md.

mod deposit;
mod explore;
mod fleet;
mod inputs;
mod passes;
mod report;
mod speed;
mod trace;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one invocation runs.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores the machine offers; load never runs more threads.
    pub nproc: usize,
}

/// Pin this process, and every thread it starts later, to the core it
/// is running on. On a small VM, waking a thread on another virtual CPU
/// waits for the hypervisor to schedule that CPU; runs of one seed of
/// the fleet, whose scheduler hands every event to a worker thread, then
/// differed by up to 2x in throughput. Returns whether pinning worked.
#[cfg(target_os = "linux")]
fn pin_to_current_core() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and returns a CPU index
    // or -1.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return false;
    };
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised buffer of exactly
    // `size_of_val(&mask)` bytes that outlives the call, which only reads
    // it; pid 0 names the calling thread, whose mask new threads inherit.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_core() -> bool {
    false
}

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// Write a traced run's spans as JSON lines under `.perfbench-out/`.
pub fn write_trace(config: &Config, spans: &[trace::Span]) {
    let path = PathBuf::from(".perfbench-out").join(format!(
        "trace-{}-seed{}.jsonl",
        config.workload, config.seed
    ));
    let mut own: Vec<(&str, f64)> = trace::self_time_ns(spans).into_iter().collect();
    own.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("self time by span (ms, all traced spans):");
    for (name, ns) in own {
        println!("  {name:<28} {:>12.3}", ns / 1e6);
    }
    match trace::write_jsonl(&path, spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = pin_to_current_core();
    let report = match config.workload.as_str() {
        "fleet" => fleet::run(&config),
        "explore" => explore::run(&config),
        "deposit" => deposit::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (fleet, explore, deposit)");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} cores {} pinned to one {}: {} operations attempted, {} failed",
        config.workload,
        config.seed,
        u8::from(config.trace),
        config.nproc,
        pinned,
        report.attempted,
        report.failed
    );
    let table = if config.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report.print(table);
    ExitCode::SUCCESS
}
