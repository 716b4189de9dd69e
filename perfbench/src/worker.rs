//! One process per activity.
//!
//! A run starts each of the three activities in a worker process of its
//! own (this binary, started with `--activity`), so that the named
//! workload's `setup_s` and `peak_rss_mb` are that activity's alone: a
//! process's `VmHWM` cannot be split between activities that share it.
//! The workers are set up one after another, then measure in turns as
//! the driving process tells them, one at a time, so they never compete
//! for the CPU.
//!
//! The protocol is line-based. The driver writes `window <seconds>
//! <0|1>` and `finish` to a worker's standard input; the worker answers
//! on its standard output with lines that start with [`TAG`] (`ready`,
//! `done`, then its report, ending in `end`). Any other line a worker
//! prints is passed through to standard error.

use crate::stats::{peak_rss_mb, Samples};
use crate::trace::Analysis;
use crate::workloads::{PhaseCfg, RtLayer, Workload};
use crate::wrap::RtCounts;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Prefix of protocol lines on a worker's standard output.
pub const TAG: &str = "@perfbench ";

/// Spans written to a worker's Perfetto file, earliest first.
const TRACE_FILE_SPANS: usize = 200_000;

/// What an activity reports when it finishes.
#[derive(Debug, Default)]
pub struct Report {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// The worker's `VmHWM` after set-up and warm-up, in MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<(String, f64)>,
    /// Runtime-layer readings (traced threaded activities only).
    pub rt: Option<RtLayer>,
    /// Spans recorded (traced runs only).
    pub spans: u64,
}

fn say(out: &mut impl Write, line: &str) -> Result<(), String> {
    writeln!(out, "{TAG}{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("write to the driving process: {e}"))
}

fn ns_list(s: &Samples) -> String {
    s.ns()
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs activity `w` as a worker: sets it up, measures in the windows
/// the driving process asks for, then reports. Traced runs write the
/// activity's spans to `trace_file`.
pub fn serve(w: Workload, cfg: &PhaseCfg, trace_file: &Path) -> Result<(), String> {
    let mut activity = w.set_up(cfg);
    let setup_s = activity.setup_s();
    // Peak memory after set-up and warm-up, before measuring: a fixed
    // amount of work, where the measuring windows do as much work as
    // the host's speed allows.
    let peak = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    // Not locked for the whole run: the program may print too.
    let mut out = std::io::stdout();
    say(&mut out, "ready")?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("read from the driving process: {e}"))?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["window", secs, traced] => {
                let secs: f64 = secs.parse().map_err(|e| format!("window length: {e}"))?;
                activity.window(Duration::from_secs_f64(secs), *traced == "1");
                say(&mut out, "done")?;
            }
            ["finish"] => break,
            _ => return Err(format!("unknown command {line:?}")),
        }
    }
    let o = activity.finish();
    if !o.spans.is_empty() {
        let chrome = Analysis::new(o.spans.clone()).to_chrome_trace(TRACE_FILE_SPANS);
        std::fs::write(trace_file, chrome)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        eprintln!("perfetto trace: {}", trace_file.display());
    }
    say(&mut out, &format!("setup_s {setup_s}"))?;
    say(&mut out, &format!("peak_rss_mb {peak}"))?;
    say(&mut out, &format!("attempted {}", o.attempted))?;
    say(&mut out, &format!("failed {}", o.failed))?;
    for c in &o.check_failures {
        say(&mut out, &format!("check {}", c.replace('\n', " ")))?;
    }
    for (name, v) in &o.metrics {
        say(&mut out, &format!("metric {name} {v}"))?;
    }
    for (name, v) in &o.layer {
        say(&mut out, &format!("layer {name} {v}"))?;
    }
    if let Some(rt) = &o.rt {
        let c = &rt.counts;
        say(&mut out, &format!("rt.rpc {}", ns_list(&rt.rpc)))?;
        say(&mut out, &format!("rt.transit {}", ns_list(&rt.transit)))?;
        say(
            &mut out,
            &format!(
                "rt.counts {} {} {} {} {}",
                c.rpcs, c.failed_unreachable, c.failed_timeout, c.failed_closed, c.wait_any
            ),
        )?;
    }
    say(&mut out, &format!("spans {}", o.spans.len()))?;
    say(&mut out, "end")
}

/// A running worker process. Dropping it kills the process and waits
/// for it.
pub struct Worker {
    name: &'static str,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts the worker for `activity` and waits until it is set up.
    pub fn spawn(activity: Workload, named: Workload, cfg: &PhaseCfg) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--activity")
            .arg(activity.name())
            .arg("--workload")
            .arg(named.name())
            .arg("--seed")
            .arg(cfg.seed.to_string())
            .arg("--trace")
            .arg(if cfg.trace { "1" } else { "0" })
            .arg("--out")
            .arg(&cfg.out)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start the {} worker: {e}", activity.name()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker pipes missing".into());
        };
        let mut w = Worker {
            name: activity.name(),
            child,
            stdin,
            stdout: BufReader::new(stdout),
        };
        w.expect("ready")?;
        Ok(w)
    }

    /// The next protocol line, passing other output through.
    fn next_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read from the {} worker: {e}", self.name))?;
            if n == 0 {
                return Err(format!("the {} worker exited early", self.name));
            }
            match line.trim_end().strip_prefix(TAG) {
                Some(msg) => return Ok(msg.to_string()),
                None => eprint!("{line}"),
            }
        }
    }

    fn expect(&mut self, word: &str) -> Result<(), String> {
        let got = self.next_line()?;
        if got == word {
            Ok(())
        } else {
            Err(format!(
                "the {} worker sent {got:?}, not {word:?}",
                self.name
            ))
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to the {} worker: {e}", self.name))
    }

    /// Has the worker measure for `dur` and waits until it has.
    pub fn window(&mut self, dur: Duration, traced: bool) -> Result<(), String> {
        self.send(&format!(
            "window {} {}",
            dur.as_secs_f64(),
            if traced { 1 } else { 0 }
        ))?;
        self.expect("done")
    }

    /// Ends measuring, collects the worker's report and waits for it to
    /// exit.
    pub fn finish(mut self) -> Result<Report, String> {
        self.send("finish")?;
        let mut r = Report::default();
        let bad = |line: &str| format!("malformed report line {line:?}");
        loop {
            let line = self.next_line()?;
            let (key, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad(&line));
            let count = |s: &str| s.parse::<u64>().map_err(|_| bad(&line));
            let named = || -> Result<(String, f64), String> {
                let (name, v) = rest.split_once(' ').ok_or_else(|| bad(&line))?;
                Ok((name.to_string(), num(v)?))
            };
            let samples = || -> Result<Samples, String> {
                let mut s = Samples::default();
                for w in rest.split_whitespace() {
                    s.push_ns(count(w)?);
                }
                Ok(s)
            };
            match key {
                "setup_s" => r.setup_s = num(rest)?,
                "peak_rss_mb" => r.peak_rss_mb = num(rest)?,
                "attempted" => r.attempted = count(rest)?,
                "failed" => r.failed = count(rest)?,
                "check" => r.check_failures.push(rest.to_string()),
                "metric" => r.metrics.push(named()?),
                "layer" => r.layer.push(named()?),
                "rt.rpc" => r.rt.get_or_insert_with(RtLayer::default).rpc = samples()?,
                "rt.transit" => r.rt.get_or_insert_with(RtLayer::default).transit = samples()?,
                "rt.counts" => {
                    let c: Vec<u64> = rest
                        .split_whitespace()
                        .map(count)
                        .collect::<Result<_, _>>()?;
                    let [rpcs, failed_unreachable, failed_timeout, failed_closed, wait_any] = c[..]
                    else {
                        return Err(bad(&line));
                    };
                    r.rt.get_or_insert_with(RtLayer::default).counts = RtCounts {
                        rpcs,
                        failed_unreachable,
                        failed_timeout,
                        failed_closed,
                        wait_any,
                    };
                }
                "spans" => r.spans = count(rest)?,
                "end" => break,
                _ => return Err(bad(&line)),
            }
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for the {} worker: {e}", self.name))?;
        if !status.success() {
            return Err(format!("the {} worker exited with {status}", self.name));
        }
        Ok(r)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
