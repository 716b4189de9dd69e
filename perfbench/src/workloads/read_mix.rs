//! `read_mix`: closed-loop membership reads with churn on real threads.
//!
//! **What runs.** A `ThreadedRuntime` with three `StoreServer`s and one
//! replicated collection of [`BASE`] members. One client thread per core
//! (at most two), each its own client node, replays a seeded op stream:
//! `read_members` under `Primary`, `Quorum` and `Leaderless` in equal
//! shares, plus ~10% `add_member`/`remove_member` of the thread's own
//! churn ids, added and removed in turn so the set size stays steady.
//! The telemetry hub, flight recorder, watchdog and endpoint are attached
//! as `rt_snapshot` attaches them, and `/snapshot.json` is scraped every
//! [`SCRAPE_EVERY`].
//!
//! **Why.** The store read plan, the mailboxes and the metrics core do
//! most of their work here. Primary reads skip the multi-replica plan,
//! so they are the control for a read-plan change; the writes beside
//! the reads expose a read-path gain that costs writes. The loop is
//! closed because every `StoreClient` caller blocks on its reply.
//!
//! **Tail percentile.** Reads report p90, not p99. With two closed-loop
//! clients the two cores are nearly saturated, so the slowest percent
//! of reads is mostly time spent queued for a core: one extra busy
//! thread elsewhere on a 2-core host moved quorum p99 3.4x (282 to
//! 948 us) while p90 moved 1.1x and p50 not at all. A p99 would
//! measure the host's other tenants more than the program.
//!
//! **Loads** `runtime`, `store` and `obs`. **Bypasses** `core` (no
//! iterator runs), `sim`, `spec`, `dst` and `gossip`.
//!
//! **Checks.** Every read holds every base member (base members are
//! never removed) and only ids the benchmark added. A read that fails
//! the check counts as a failed operation and makes the run incorrect.

use super::{overhead, q_us, set_up_repeatedly, Activity, PhaseCfg, PhaseOut, RtLayer};
use crate::fleet::{StoreFleet, Telemetry};
use crate::stats::{PerWindow, Samples};
use crate::trace::{self, Analysis, Span};
use crate::wrap::{Board, TimedRt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use weakset_obs::telemetry;
use weakset_runtime::prelude::*;
use weakset_sim::rng::SimRng;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::ObjectId;
use weakset_store::prelude::{CollectionRef, MembershipRead, ReadPolicy, StoreClient, StoreRt};

/// Base members: never removed.
pub const BASE: usize = 300;
/// Churn ids per client thread.
pub const CHURN_PER_CLIENT: usize = 16;
/// Share of writes in the op stream.
pub const WRITE_SHARE: f64 = 0.10;
/// Op-stream length per client; the stream repeats.
pub const STREAM_LEN: usize = 4096;
/// Scrape cadence of the telemetry endpoint.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Untimed operations before measuring, over all client threads. A
/// fixed count rather than a fixed time, so the memory the program
/// keeps per operation reaches the same level in every run before the
/// worker's peak memory is read (see [`crate::worker`]).
pub const WARMUP_OPS: u64 = 40_000;
/// Longest the warm-up may take.
const WARMUP_LIMIT: Duration = Duration::from_secs(60);

/// One step of a client's op stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A membership read under a policy.
    Read(ReadPolicy),
    /// Add the thread's next churn id, or remove the one it added.
    Write,
}

/// The seeded inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Base member ids, sorted.
    pub base: Vec<ObjectId>,
    /// Churn ids, one pool per client thread.
    pub churn: Vec<Vec<ObjectId>>,
    /// One op stream per client thread.
    pub streams: Vec<Vec<Op>>,
}

impl Inputs {
    /// Draws distinct ids and the op streams for `clients` threads.
    pub fn generate(seed: u64, clients: usize) -> Inputs {
        let mut rng = SimRng::for_label(seed, "perfbench.read_mix");
        let ids = distinct_ids(&mut rng, BASE + clients * CHURN_PER_CLIENT);
        let mut base = ids[..BASE].to_vec();
        base.sort_unstable();
        let churn = ids[BASE..]
            .chunks(CHURN_PER_CLIENT)
            .map(<[ObjectId]>::to_vec)
            .collect();
        let policies = [
            ReadPolicy::Primary,
            ReadPolicy::Quorum,
            ReadPolicy::Leaderless,
        ];
        let streams = (0..clients)
            .map(|_| {
                (0..STREAM_LEN)
                    .map(|_| {
                        if rng.chance(WRITE_SHARE) {
                            Op::Write
                        } else {
                            Op::Read(policies[rng.index(policies.len())])
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            base,
            churn,
            streams,
        }
    }

    /// Every id the benchmark ever adds, sorted.
    fn allowed(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .base
            .iter()
            .chain(self.churn.iter().flatten())
            .map(|id| id.0)
            .collect();
        all.sort_unstable();
        all
    }
}

/// `n` distinct nonzero ids drawn from `rng`.
pub fn distinct_ids(rng: &mut SimRng, n: usize) -> Vec<ObjectId> {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = rng.range_u64(1, 1 << 40);
        if seen.insert(id) {
            out.push(ObjectId(id));
        }
    }
    out
}

/// Client threads: one per core, at most two.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(2))
}

/// Checks one read: all of `base` present, nothing outside `allowed`.
/// Both slices are sorted.
pub fn check_read(read: &MembershipRead, base: &[ObjectId], allowed: &[u64]) -> Result<(), String> {
    let mut elems: Vec<u64> = read.entries.iter().map(|e| e.elem.0).collect();
    elems.sort_unstable();
    if let Some(stray) = elems.iter().find(|e| allowed.binary_search(e).is_err()) {
        return Err(format!(
            "read returned id {stray} the benchmark never added"
        ));
    }
    if let Some(missing) = base.iter().find(|b| elems.binary_search(&b.0).is_err()) {
        return Err(format!("read lost base member {}", missing.0));
    }
    Ok(())
}

fn read_span(p: ReadPolicy) -> &'static str {
    match p {
        ReadPolicy::Primary => "store.read.primary",
        ReadPolicy::Quorum => "store.read.quorum",
        _ => "store.read.leaderless",
    }
}

/// Results from one or more client threads over one or more windows.
#[derive(Debug, Default)]
struct Tally {
    primary: Samples,
    quorum: Samples,
    leaderless: Samples,
    write: Samples,
    /// Completed operations.
    done: u64,
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
}

impl Tally {
    fn kind(&mut self, op: Op) -> &mut Samples {
        match op {
            Op::Read(ReadPolicy::Primary) => &mut self.primary,
            Op::Read(ReadPolicy::Quorum) => &mut self.quorum,
            Op::Read(_) => &mut self.leaderless,
            Op::Write => &mut self.write,
        }
    }

    /// Adds another thread's or window's results.
    fn add(&mut self, mut o: Tally) {
        self.primary.extend(&o.primary);
        self.quorum.extend(&o.quorum);
        self.leaderless.extend(&o.leaderless);
        self.write.extend(&o.write);
        self.done += o.done;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.check_failures.append(&mut o.check_failures);
    }

    fn all_ok(&self) -> Samples {
        let mut all = Samples::default();
        for k in [&self.primary, &self.quorum, &self.leaderless, &self.write] {
            all.extend(k);
        }
        all
    }
}

/// A client thread's identity and position, carried across windows.
struct ClientState {
    client: StoreClient,
    view: Option<ThreadedRuntime<StoreMsg>>,
    stream: usize,
    pos: usize,
    next_churn: usize,
    present: Option<ObjectId>,
}

struct Ctx<'a> {
    /// Operations the clients may still start.
    budget: &'a AtomicU64,
    inputs: &'a Inputs,
    allowed: &'a [u64],
    cref: &'a CollectionRef,
    homes: &'a [weakset_sim::node::NodeId],
}

/// Runs the client's next op.
fn step(rt: &mut StoreRt, st: &mut ClientState, cx: &Ctx<'_>, tally: &mut Tally) {
    let stream = &cx.inputs.streams[st.stream];
    let op = stream[st.pos % stream.len()];
    st.pos += 1;
    tally.attempted += 1;
    let t0 = Instant::now();
    let outcome: Result<(), Option<String>> = match op {
        Op::Read(p) => match trace::op(read_span(p), || st.client.read_members(rt, cx.cref, p)) {
            Ok(read) => check_read(&read, &cx.inputs.base, cx.allowed).map_err(Some),
            Err(_) => Err(None),
        },
        Op::Write => match st.present {
            Some(id) => trace::op("store.remove_member", || {
                st.client.remove_member(rt, cx.cref, id)
            })
            .map(|_| st.present = None)
            .map_err(|_| None),
            None => {
                let pool = &cx.inputs.churn[st.stream];
                let id = pool[st.next_churn % pool.len()];
                let home = cx.homes[(id.0 % cx.homes.len() as u64) as usize];
                trace::op("store.add_member", || {
                    st.client
                        .add_member(rt, cx.cref, MemberEntry { elem: id, home })
                })
                .map(|_| {
                    st.present = Some(id);
                    st.next_churn += 1;
                })
                .map_err(|_| None)
            }
        },
    };
    let took = t0.elapsed();
    match outcome {
        Ok(()) => {
            tally.kind(op).push(took);
            tally.done += 1;
        }
        Err(check) => {
            tally.failed += 1;
            if let Some(msg) = check {
                tally.check_failures.push(msg);
            }
        }
    }
}

/// Takes one operation from the budget; false once it is spent.
fn take(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
        .is_ok()
}

/// Runs one client until `deadline` or until the budget is spent;
/// traced runs go through the runtime wrapper with spans on.
fn run_client(
    st: &mut ClientState,
    cx: &Ctx<'_>,
    deadline: Instant,
    board: Option<Arc<Board>>,
) -> (Tally, Vec<Span>, Option<crate::wrap::RtCounts>) {
    let mut tally = Tally::default();
    let view = st.view.take().expect("client view present between windows");
    match board {
        None => {
            let mut view = view;
            while Instant::now() < deadline && take(cx.budget) {
                step(&mut view, st, cx, &mut tally);
            }
            st.view = Some(view);
            (tally, Vec::new(), None)
        }
        Some(board) => {
            let mut timed = TimedRt::new(view, board);
            trace::set_thread_tracing(true);
            while Instant::now() < deadline && take(cx.budget) {
                step(&mut timed, st, cx, &mut tally);
            }
            trace::set_thread_tracing(false);
            let counts = timed.counts;
            st.view = Some(timed.into_inner());
            (tally, trace::take_thread_spans(), Some(counts))
        }
    }
}

/// Telemetry readings: every scrape's duration, and the latest
/// snapshot's size, latency-sample count, publish count and mailbox
/// high-water mark.
#[derive(Debug, Default)]
struct Scrapes {
    took: Samples,
    last_bytes: usize,
    latency_samples: u64,
    publishes: u64,
    backlog_max: u64,
}

/// Runs every client for `dur`, or until `cx.budget` is spent, while the
/// calling thread scrapes the endpoint on a fixed cadence into
/// `scrapes`. Returns the pooled tally,
/// the window's length and, for a traced window, the spans and
/// transport counts.
fn window(
    states: &mut [ClientState],
    cx: &Ctx<'_>,
    tel: &Telemetry,
    dur: Duration,
    board: Option<&Arc<Board>>,
    scrapes: &mut Scrapes,
) -> (Tally, Duration, Vec<Span>, crate::wrap::RtCounts) {
    let started = Instant::now();
    let deadline = started + dur;
    let mut spans = Vec::new();
    let mut counts = crate::wrap::RtCounts::default();
    let mut tally = Tally::default();
    trace::set_thread_tracing(board.is_some());
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let board = board.cloned();
                s.spawn(move || run_client(st, cx, deadline, board))
            })
            .collect();
        let mut next = started + SCRAPE_EVERY;
        while next < deadline && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            let (snap, bytes, took) = trace::op("obs.scrape", || tel.scrape());
            scrapes.took.push(took);
            scrapes.last_bytes = bytes;
            scrapes.latency_samples = snap.latencies.values().map(|l| l.count).sum();
            scrapes.publishes = snap
                .counters
                .get(telemetry::PUBLISHES)
                .copied()
                .unwrap_or(0);
            scrapes.backlog_max = ["s0", "s1", "s2"]
                .iter()
                .filter_map(|n| snap.gauges.get(&telemetry::mailbox_backlog_max(n)).copied())
                .max()
                .unwrap_or(0);
            next += SCRAPE_EVERY;
        }
        for h in handles {
            let (t, sp, c) = h.join().expect("read_mix client thread panicked");
            tally.add(t);
            spans.extend(sp);
            if let Some(c) = c {
                counts.merge(&c);
            }
        }
    });
    let took = started.elapsed();
    trace::set_thread_tracing(false);
    spans.extend(trace::take_thread_spans());
    (tally, took, spans, counts)
}

/// The `read_mix` activity: a populated fleet with telemetry attached
/// and the client threads' state, plus everything measured so far.
pub struct ReadMix {
    inputs: Inputs,
    allowed: Vec<u64>,
    fleet: StoreFleet,
    tel: Telemetry,
    states: Vec<ClientState>,
    /// Untraced windows, pooled.
    plain: Tally,
    /// Untraced windows' end-to-end readings.
    windows: PerWindow,
    traced: Tally,
    scrapes: Scrapes,
    spans: Vec<Span>,
    counts: crate::wrap::RtCounts,
    setup_s: f64,
}

/// A fleet populated with the base members, with telemetry attached.
fn build(cfg: &PhaseCfg, inputs: &Inputs) -> (StoreFleet, Telemetry) {
    let mut fleet = StoreFleet::start(cfg.seed, cfg.trace);
    let tel = Telemetry::attach(&mut fleet.rt, cfg.seed, &cfg.out);
    let setup = fleet.client("setup");
    fleet.populate(&setup, &inputs.base);
    (fleet, tel)
}

impl ReadMix {
    /// Sets up `cfg.setup_reps` times (keeping the last fleet) and warms
    /// up.
    pub fn set_up(cfg: &PhaseCfg) -> ReadMix {
        let clients = client_threads();
        let inputs = Inputs::generate(cfg.seed, clients);
        let allowed = inputs.allowed();
        let ((mut fleet, tel), setup_s) = set_up_repeatedly(
            cfg.setup_reps,
            || build(cfg, &inputs),
            |(fleet, tel): (StoreFleet, Telemetry)| {
                tel.stop();
                fleet.stop();
            },
        );
        let states = (0..clients)
            .map(|t| ClientState {
                client: fleet.client(&format!("load.{t}")),
                view: Some(fleet.rt.clone()),
                stream: t,
                pos: 0,
                next_churn: 0,
                present: None,
            })
            .collect();
        let mut rm = ReadMix {
            inputs,
            allowed,
            fleet,
            tel,
            states,
            plain: Tally::default(),
            windows: PerWindow::default(),
            traced: Tally::default(),
            scrapes: Scrapes::default(),
            spans: Vec::new(),
            counts: crate::wrap::RtCounts::default(),
            setup_s,
        };
        let (warm, ..) = rm.run(WARMUP_LIMIT, WARMUP_OPS, false);
        rm.plain.check_failures = warm.check_failures;
        rm
    }

    fn run(
        &mut self,
        dur: Duration,
        ops: u64,
        traced: bool,
    ) -> (Tally, Duration, Vec<Span>, crate::wrap::RtCounts) {
        let budget = AtomicU64::new(ops);
        let cx = Ctx {
            budget: &budget,
            inputs: &self.inputs,
            allowed: &self.allowed,
            cref: &self.fleet.cref,
            homes: &self.fleet.servers,
        };
        let board = traced.then(|| Arc::clone(&self.fleet.board));
        self.fleet.handler_tracing.store(traced, Ordering::Relaxed);
        let out = window(
            &mut self.states,
            &cx,
            &self.tel,
            dur,
            board.as_ref(),
            &mut self.scrapes,
        );
        self.fleet.handler_tracing.store(false, Ordering::Relaxed);
        out
    }
}

impl Activity for ReadMix {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn window(&mut self, dur: Duration, traced: bool) {
        let (tally, took, spans, counts) = self.run(dur, u64::MAX, traced);
        if traced {
            self.traced.add(tally);
            self.spans.extend(spans);
            self.counts.merge(&counts);
        } else {
            let mut t = tally;
            let w = &mut self.windows;
            w.push("ops_per_s", t.done as f64 / took.as_secs_f64());
            w.push("read_primary_p50_us", q_us(&mut t.primary, 0.5));
            w.push("read_primary_p90_us", q_us(&mut t.primary, 0.9));
            w.push("read_quorum_p50_us", q_us(&mut t.quorum, 0.5));
            w.push("read_quorum_p90_us", q_us(&mut t.quorum, 0.9));
            w.push("read_leaderless_p50_us", q_us(&mut t.leaderless, 0.5));
            w.push("write_p50_us", q_us(&mut t.write, 0.5));
            self.plain.add(t);
        }
    }

    fn finish(self: Box<Self>) -> PhaseOut {
        let mut me = *self;
        let p = &mut me.plain;
        eprintln!(
            "read_mix: {} ops ({} failed)",
            p.attempted + me.traced.attempted,
            p.failed + me.traced.failed
        );
        let mut out = PhaseOut {
            setup_s: me.setup_s,
            attempted: p.attempted + me.traced.attempted,
            failed: p.failed + me.traced.failed,
            metrics: [
                "ops_per_s",
                "read_primary_p50_us",
                "read_primary_p90_us",
                "read_quorum_p50_us",
                "read_quorum_p90_us",
                "read_leaderless_p50_us",
                "write_p50_us",
            ]
            .map(|name| (name, me.windows.median(name)))
            .to_vec(),
            ..PhaseOut::default()
        };
        out.check_failures.append(&mut p.check_failures);
        out.check_failures.append(&mut me.traced.check_failures);
        if !me.spans.is_empty() {
            let mut spans = std::mem::take(&mut me.spans);
            spans.extend(me.fleet.take_handler_spans());
            let untraced = me.plain.all_ok();
            let (layer, rt, spans) = layers(spans, &untraced, &mut me.scrapes, me.counts);
            out.layer = layer;
            out.rt = Some(rt);
            out.spans = spans;
        }
        drop(me.states);
        me.tel.stop();
        me.fleet.stop();
        out
    }
}

/// Per-layer metrics of the traced window.
fn layers(
    spans: Vec<Span>,
    untraced_ops: &Samples,
    scrapes: &mut Scrapes,
    counts: crate::wrap::RtCounts,
) -> (Vec<(&'static str, f64)>, RtLayer, Vec<Span>) {
    let a = Analysis::new(spans);
    let mut rpcs_per: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let mut store_self = Samples::default();
    let mut traced_ops = Samples::default();
    let mut rt = RtLayer {
        counts,
        ..RtLayer::default()
    };
    for s in a.spans() {
        if s.name == "runtime.rpc" {
            rt.rpc.push_ns(s.dur_ns());
            rt.transit.push_ns(a.self_ns(s));
        }
        if s.parent == 0 && s.layer() == "store" && !s.name.starts_with("store.handler") {
            store_self.push_ns(a.self_ns(s));
            traced_ops.push_ns(s.dur_ns());
            let e = rpcs_per.entry(s.name).or_default();
            e.0 += a.count_descendants(s, "runtime.rpc");
            e.1 += 1;
        }
    }
    let p50 = |name: &str| q_us(&mut a.durations(name), 0.5);
    let per = |name: &str| {
        rpcs_per
            .get(name)
            .map_or(f64::NAN, |&(r, n)| r as f64 / n.max(1) as f64)
    };
    let overhead_pct = overhead(std::slice::from_ref(untraced_ops), &[traced_ops]);
    let metrics = vec![
        ("store.read.primary.p50_us", p50("store.read.primary")),
        ("store.read.quorum.p50_us", p50("store.read.quorum")),
        ("store.read.leaderless.p50_us", p50("store.read.leaderless")),
        ("store.add_member.p50_us", p50("store.add_member")),
        ("store.remove_member.p50_us", p50("store.remove_member")),
        (
            "store.handler.list_members.p50_us",
            p50("store.handler.list_members"),
        ),
        (
            "store.handler.add_member.p50_us",
            p50("store.handler.add_member"),
        ),
        (
            "store.handler.remove_member.p50_us",
            p50("store.handler.remove_member"),
        ),
        (
            "store.handler.sync_members.p50_us",
            p50("store.handler.sync_members"),
        ),
        ("store.client.self_p50_us", q_us(&mut store_self, 0.5)),
        (
            "store.read.primary.rpcs_per_read",
            per("store.read.primary"),
        ),
        ("store.read.quorum.rpcs_per_read", per("store.read.quorum")),
        (
            "store.read.leaderless.rpcs_per_read",
            per("store.read.leaderless"),
        ),
        ("obs.scrape.p50_us", q_us(&mut scrapes.took, 0.5)),
        ("obs.scrape_bytes", scrapes.last_bytes as f64),
        ("obs.latency_samples", scrapes.latency_samples as f64),
        ("obs.telemetry_publishes", scrapes.publishes as f64),
        ("runtime.mailbox_backlog_max", scrapes.backlog_max as f64),
        ("trace.read_mix.overhead_pct", overhead_pct),
    ];
    let spans = a.spans().to_vec();
    (metrics, rt, spans)
}
