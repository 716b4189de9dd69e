//! Wall-clock benchmark of the weak-sets stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics named in
//! the repository's `BENCHMARK.json`; traced runs (`--trace 1`) report
//! its per-layer metrics and write a Perfetto-loadable span file per
//! activity, `perfbench/out/trace-<workload>-seed<n>.<activity>.json`.
//!
//! # What a run does
//!
//! Every run starts the three activities of [`workloads`] (`read_mix`,
//! `iterate`, `anti_entropy`), each in a worker process of its
//! own ([`worker`]), then lets them take turns in equal short windows
//! for `--seconds`. Each activity is therefore measured in every run,
//! and every run reports every metric. The workload named on the
//! command line picks whose process `setup_s` and `peak_rss_mb`
//! describe. `BENCHMARK.json` names two workloads: `read_mix` (the
//! store fleet with live telemetry, whose latency recorders grow with
//! every operation) and `anti_entropy` (the two 10^6-dot replicas, the
//! largest set-up and working set). With two workloads each run can be
//! long enough to be steady on a shared host while a full set of runs
//! stays within the benchmark's time budget.
//!
//! * `attempted` / `failed` count reads, writes, enumerations and
//!   exchanges. A write refused with `StoreError::Locked` while a
//!   `Locked` enumeration is open is what that semantics promises: it is
//!   attempted, not failed, and counted in the per-layer
//!   `core.locked.refused_writes_per_run`.
//! * `correct` is false when one of the benchmark's own output checks
//!   fails (a read missing a base member, an enumeration yielding twice,
//!   a write refused while no `Locked` enumeration is open, replicas
//!   differing after an exchange).
//! * `setup_s` is the named activity's median set-up time over several
//!   set-ups: fleet start and population for `read_mix` and `iterate`,
//!   the two 10^6-dot replicas for `anti_entropy`.
//! * `peak_rss_mb` is the named activity's worker `VmHWM` after set-up
//!   and warm-up (for `read_mix`, a fixed 40,000 operations, so the
//!   memory the program keeps per operation shows), before measuring:
//!   the measuring windows do as much work as the host's speed allows.
//!
//! Timings and rates are read per measuring window (about a second of
//! one activity) and reported as the median over the run's windows
//! ([`stats::PerWindow`] says why); `enumerate_p50_ms` and
//! `first_yield_p50_us` are the median over the four semantics of each
//! one's median, and the reconcile times the median over exchanges.
//!
//! # Layers and what should move them
//!
//! The benchmark only calls the program's public functions. Layers are
//! timed from outside, by spans recorded around those calls ([`trace`])
//! and by the forwarding wrappers in [`wrap`]:
//!
//! | layer | per-layer metrics | end-to-end metric it should move |
//! |---|---|---|
//! | `runtime` | `runtime.rpc.*`, `runtime.transit.p50_us`, `runtime.wait_any.count`, `runtime.mailbox_backlog_max` | `read_primary_p50_us`; `first_yield_p50_us`, `enumerate_p50_ms` |
//! | `store` | `store.read.*`, `store.*_member.p50_us`, `store.client.self_p50_us`, `store.handler.*` | `read_quorum_*`, `ops_per_s` (not `read_primary_*`) |
//! | `core` | `core.<semantics>.{next,self}_p50_us`, `core.<semantics>.rpcs_per_yield`, `core.locked.refused_writes_per_run` | `enumerate_p50_ms`, `first_yield_p50_us` |
//! | `obs` | `obs.scrape.p50_us`, `obs.scrape_bytes`, `obs.latency_samples`, `obs.telemetry_publishes` | `peak_rss_mb`, `ops_per_s` |
//! | `gossip` | `gossip.exchange.*`, `gossip.range_tree_build.p50_us`, `gossip.rpcs_per_exchange.*`, `gossip.{merkle,full}.*_bytes` | `reconcile_merkle_ms`, `merkle_sync_bytes` (not `reconcile_full_ms`) |
//!
//! The simulator-only DST fuzzer (`sim`, `spec`, `dst`) is not
//! measured: its oracle still finds known violations in the program,
//! so runs of it would fail operations, and filtering the failing
//! scenarios out would hide them.
//!
//! A traced run also reports `trace.<activity>.overhead_pct`: how much
//! slower a traced operation is than an untraced one in the same run.
//! The self times of an operation's spans add up to its traced duration
//! by construction (see [`workloads::overhead`]), so their gap to the
//! untraced time is exactly this overhead.

pub mod fleet;
pub mod report;
pub mod stats;
pub mod trace;
pub mod worker;
pub mod workloads;
pub mod wrap;
