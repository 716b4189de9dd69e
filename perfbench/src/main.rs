//! `perfbench --workload <read_mix|iterate|anti_entropy> --seed <n>
//!            --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Starts a worker process per activity (see [`perfbench::worker`]),
//! then has them measure in turns for `--seconds`, in equal shares of
//! each round, and prints the result line
//! (see the library docs). A worker is the same binary started with
//! `--activity <name>` in addition. From the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mix --seed 1 --seconds 20 --trace 0
//! ```

use perfbench::report::{declared, result_line};
use perfbench::worker::{serve, Worker};
use perfbench::workloads::{q_us, PhaseCfg, RtLayer, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One round: every activity measures for a quarter of it.
const ROUND: Duration = Duration::from_secs(3);
/// Set-ups per activity; the median is reported.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    /// Set in a worker process: the activity it runs.
    activity: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut activity = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--activity" => {
                let name = value()?;
                activity = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown activity {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        // A worker measures in the windows it is given.
        seconds: match activity {
            Some(_) => 0.0,
            None => seconds.ok_or("--seconds is required")?,
        },
        activity,
        trace,
        out,
    })
}

/// Runtime metrics pooled over the threaded activities.
fn runtime_metrics(mut rt: RtLayer) -> Vec<(&'static str, f64)> {
    let c = rt.counts;
    vec![
        ("runtime.rpc.count", c.rpcs as f64),
        ("runtime.rpc.p50_us", q_us(&mut rt.rpc, 0.5)),
        ("runtime.rpc.p99_us", q_us(&mut rt.rpc, 0.99)),
        ("runtime.transit.p50_us", q_us(&mut rt.transit, 0.5)),
        (
            "runtime.rpc.failed.unreachable",
            c.failed_unreachable as f64,
        ),
        ("runtime.rpc.failed.timeout", c.failed_timeout as f64),
        ("runtime.rpc.failed.closed", c.failed_closed as f64),
        ("runtime.wait_any.count", c.wait_any as f64),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let catalogue = declared(section)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;

    let cfg = PhaseCfg {
        seed: args.seed,
        setup_reps: SETUP_REPS,
        trace: args.trace,
        out: args.out.clone(),
    };
    let share = ROUND / Workload::ALL.len() as u32;
    let mut workers = Vec::new();
    for w in Workload::ALL {
        workers.push((w, Worker::spawn(w, args.workload, &cfg)?));
    }

    // Rounds until the run's measuring time is spent: in each, every
    // activity measures for its share. A traced run splits
    // each share into an untraced and a traced half, alternating which
    // goes first so neither always follows another activity's window.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    'rounds: while Instant::now() < deadline {
        for (_, worker) in &mut workers {
            if Instant::now() >= deadline {
                break 'rounds;
            }
            if args.trace {
                let traced_first = round % 2 == 1;
                worker.window(share / 2, traced_first)?;
                worker.window(share / 2, !traced_first)?;
            } else {
                worker.window(share, false)?;
            }
        }
        round += 1;
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut check_failures = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut rt = RtLayer::default();
    let mut spans = 0;
    for (w, worker) in workers {
        let mut r = worker.finish()?;
        attempted += r.attempted;
        failed += r.failed;
        check_failures.append(&mut r.check_failures);
        if args.trace {
            metrics.append(&mut r.layer);
            if let Some(l) = r.rt {
                rt.rpc.extend(&l.rpc);
                rt.transit.extend(&l.transit);
                rt.counts.merge(&l.counts);
            }
            spans += r.spans;
        } else {
            metrics.append(&mut r.metrics);
            if w == args.workload {
                metrics.push(("setup_s".into(), r.setup_s));
                metrics.push(("peak_rss_mb".into(), r.peak_rss_mb));
            }
        }
    }
    if args.trace {
        metrics.extend(
            runtime_metrics(rt)
                .into_iter()
                .map(|(n, v)| (n.to_string(), v)),
        );
        metrics.push(("trace.spans".into(), spans as f64));
    }
    for f in check_failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }
    result_line(
        check_failures.is_empty(),
        attempted,
        failed,
        &catalogue,
        &metrics,
    )
}

/// Runs `args.activity` as a worker process.
fn work(args: &Args, activity: Workload) -> Result<(), String> {
    let cfg = PhaseCfg {
        seed: args.seed,
        setup_reps: SETUP_REPS,
        trace: args.trace,
        out: args.out.clone(),
    };
    let trace_file = args.out.join(format!(
        "trace-{}-seed{}.{}.json",
        args.workload.name(),
        args.seed,
        activity.name()
    ));
    serve(activity, &cfg, &trace_file)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(activity) = args.activity {
        return match work(&args, activity) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", activity.name());
                ExitCode::from(1)
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
