//! `iterate`: `elements` enumerations of a [`MEMBERS`]-member set while
//! a writer churns it.
//!
//! **What runs.** A `ThreadedRuntime` with three home servers (objects
//! spread over all three; the collection's home is `s0`, replicated on
//! `s1` and `s2`). One thread drives `WeakSet::elements` to completion,
//! cycling through `Snapshot`, `GrowOnly`, `Optimistic` and `Locked`. A
//! second thread adds and removes churn members at a fixed rate of one
//! write per [`WRITE_EVERY`]; their objects are stored during set-up.
//!
//! **Why.** The `core` iterators do most of the work here, and
//! `read_mix` does not touch them. The paper's dynamic-set promise (first
//! element early, partial results) is `first_yield_p50_us`. Cost per
//! element is superlinear in the set size today, so the size is fixed
//! at [`MEMBERS`]. The writer shows the §3.1 cost of `Locked`: its writes
//! are refused while a locked enumeration runs. That refusal is what
//! `Locked` promises, not a failure: it is checked (below) and counted
//! per locked enumeration in `core.locked.refused_writes_per_run`.
//!
//! **Loads** `core`, `runtime` and `store` (object fetches, membership
//! reads, the read lock). **Bypasses** `obs` (no telemetry attached),
//! `sim`, `spec`, `dst` and `gossip`.
//!
//! **Checks.** No enumeration yields an element twice; every yield is an
//! id the benchmark added; an enumeration that ends `Done` yielded every
//! base member (base members are never removed); a write is refused with
//! `StoreError::Locked` only while a `Locked` enumeration is open. A
//! write refused outside one counts as failed and makes the run
//! incorrect.

use super::{overhead, q_us, set_up_repeatedly, Activity, PhaseCfg, PhaseOut, RtLayer};
use crate::fleet::StoreFleet;
use crate::stats::{median, PerWindow, Samples};
use crate::trace::{self, Analysis, Span};
use crate::wrap::{Board, RtCounts, TimedRt};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use weakset::prelude::*;
use weakset_runtime::prelude::*;
use weakset_sim::rng::SimRng;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::ObjectId;
use weakset_store::prelude::{CollectionRef, StoreClient, StoreError, StoreRt};

/// Base members: never removed.
pub const MEMBERS: usize = 2_000;
/// Churn ids the writer cycles through.
pub const CHURN: usize = 64;
/// The writer's fixed period.
pub const WRITE_EVERY: Duration = Duration::from_millis(4);

/// Enumeration order.
pub const CYCLE: [Semantics; 4] = [
    Semantics::Snapshot,
    Semantics::GrowOnly,
    Semantics::Optimistic,
    Semantics::Locked,
];

/// Span and per-layer metric names of one semantics, in [`CYCLE`]
/// order.
struct Names {
    /// Root span of an enumeration.
    root: &'static str,
    /// Span around each `Elements::next`.
    next: &'static str,
    next_p50: &'static str,
    self_p50: &'static str,
    rpcs_per_yield: &'static str,
}

const NAMES: [Names; 4] = [
    Names {
        root: "bench.enumerate.snapshot",
        next: "core.snapshot.next",
        next_p50: "core.snapshot.next_p50_us",
        self_p50: "core.snapshot.self_p50_us",
        rpcs_per_yield: "core.snapshot.rpcs_per_yield",
    },
    Names {
        root: "bench.enumerate.grow_only",
        next: "core.grow_only.next",
        next_p50: "core.grow_only.next_p50_us",
        self_p50: "core.grow_only.self_p50_us",
        rpcs_per_yield: "core.grow_only.rpcs_per_yield",
    },
    Names {
        root: "bench.enumerate.optimistic",
        next: "core.optimistic.next",
        next_p50: "core.optimistic.next_p50_us",
        self_p50: "core.optimistic.self_p50_us",
        rpcs_per_yield: "core.optimistic.rpcs_per_yield",
    },
    Names {
        root: "bench.enumerate.locked",
        next: "core.locked.next",
        next_p50: "core.locked.next_p50_us",
        self_p50: "core.locked.self_p50_us",
        rpcs_per_yield: "core.locked.rpcs_per_yield",
    },
];

fn cycle_index(sem: Semantics) -> usize {
    CYCLE
        .iter()
        .position(|&s| s == sem)
        .expect("every semantics is in the cycle")
}

/// The seeded inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Base member ids, sorted.
    pub base: Vec<ObjectId>,
    /// Churn ids.
    pub churn: Vec<ObjectId>,
}

impl Inputs {
    /// Draws distinct base and churn ids.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SimRng::for_label(seed, "perfbench.iterate");
        let ids = super::read_mix::distinct_ids(&mut rng, MEMBERS + CHURN);
        let mut base = ids[..MEMBERS].to_vec();
        base.sort_unstable();
        Inputs {
            base,
            churn: ids[MEMBERS..].to_vec(),
        }
    }
}

/// What one enumeration produced.
#[derive(Debug)]
pub struct Enumeration {
    /// Semantics driven.
    pub semantics: Semantics,
    /// Wall time to the terminating step.
    pub took: Duration,
    /// Wall time to the first yield.
    pub first_yield: Option<Duration>,
    /// Elements yielded, in order.
    pub yielded: Vec<ObjectId>,
    /// True when the run ended `Done`.
    pub done: bool,
}

/// Drives one `elements` run to completion (a `Blocked` step is
/// retried; a `Failed` step ends the run).
pub fn enumerate(rt: &mut StoreRt, set: &WeakSet, sem: Semantics) -> Enumeration {
    let t0 = Instant::now();
    let mut it = set.elements(sem);
    let mut yielded = Vec::new();
    let mut first_yield = None;
    let names = &NAMES[cycle_index(sem)];
    let done = trace::op(names.root, || loop {
        match trace::span(names.next, |_| it.next(rt)) {
            IterStep::Yielded(rec) => {
                if first_yield.is_none() {
                    first_yield = Some(t0.elapsed());
                }
                yielded.push(rec.id);
            }
            IterStep::Blocked => continue,
            IterStep::Done => break true,
            IterStep::Failed(_) => break false,
        }
    });
    Enumeration {
        semantics: sem,
        took: t0.elapsed(),
        first_yield,
        yielded,
        done,
    }
}

/// Checks one enumeration against the inputs.
pub fn check_enumeration(e: &Enumeration, inputs: &Inputs) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(e.yielded.len());
    for id in &e.yielded {
        if !seen.insert(id.0) {
            return Err(format!("{:?} yielded {} twice", e.semantics, id.0));
        }
        if inputs.base.binary_search(id).is_err() && !inputs.churn.contains(id) {
            return Err(format!(
                "{:?} yielded {} the benchmark never added",
                e.semantics, id.0
            ));
        }
    }
    if e.done {
        if let Some(missing) = inputs.base.iter().find(|b| !seen.contains(&b.0)) {
            return Err(format!(
                "{:?} returned Done without base member {}",
                e.semantics, missing.0
            ));
        }
    }
    Ok(())
}

/// The writer's results.
#[derive(Debug, Default)]
struct Writes {
    attempted: u64,
    /// Durations of the writes that succeeded.
    ok: Samples,
    /// Writes refused while a `Locked` enumeration was open.
    refused: u64,
    /// Writes refused while no `Locked` enumeration was open.
    stray_refusals: u64,
    failed: u64,
    spans: Vec<Span>,
    counts: RtCounts,
}

/// The writer's position in the churn ids, carried across windows: how
/// many it has added, and the one it added and has not yet removed.
#[derive(Debug, Default)]
struct Churn {
    added: usize,
    present: Option<ObjectId>,
}

/// Counts `Locked` enumerations opened and closed: odd while one is
/// open. The reader bumps it before a `Locked` enumeration takes the
/// read lock and after it has released it.
type LockEpoch = AtomicU64;

/// Adds and removes churn members, one write per [`WRITE_EVERY`], until
/// `stop` is set. A write whose slot has passed is skipped, not queued.
/// A refusal is legitimate when a `Locked` enumeration was open at some
/// point during the write: when `locks` was odd at its start or moved
/// while it ran.
#[allow(clippy::too_many_arguments)]
fn writer(
    view: ThreadedRuntime<StoreMsg>,
    client: &StoreClient,
    cref: &CollectionRef,
    fleet_homes: &[weakset_sim::node::NodeId],
    churn: &[ObjectId],
    state: &mut Churn,
    (stop, locks): (&AtomicBool, &LockEpoch),
    board: Option<Arc<Board>>,
) -> Writes {
    let mut w = Writes::default();
    let mut timed = TimedRt::new(view, board.clone().unwrap_or_else(|| Board::new(0)));
    trace::set_thread_tracing(board.is_some());
    let mut next_slot = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next_slot {
            std::thread::sleep((next_slot - now).min(Duration::from_millis(1)));
            continue;
        }
        while next_slot <= now {
            next_slot += WRITE_EVERY;
        }
        let rt: &mut StoreRt = if board.is_some() {
            &mut timed
        } else {
            timed.inner_mut()
        };
        let epoch = locks.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let r = match state.present {
            Some(id) => trace::op("store.remove_member", || client.remove_member(rt, cref, id))
                .map(|_| state.present = None),
            None => {
                let id = churn[state.added % churn.len()];
                let home = fleet_homes[(id.0 % fleet_homes.len() as u64) as usize];
                trace::op("store.add_member", || {
                    client.add_member(rt, cref, MemberEntry { elem: id, home })
                })
                .map(|_| {
                    state.present = Some(id);
                    state.added += 1;
                })
            }
        };
        w.attempted += 1;
        match r {
            Ok(()) => w.ok.push(t0.elapsed()),
            Err(StoreError::Locked) => {
                if epoch % 2 == 1 || locks.load(Ordering::SeqCst) != epoch {
                    w.refused += 1;
                } else {
                    w.stray_refusals += 1;
                }
            }
            Err(_) => w.failed += 1,
        }
    }
    trace::set_thread_tracing(false);
    w.spans = trace::take_thread_spans();
    w.counts = timed.counts;
    w
}

/// One window's enumerations and writes.
struct Window {
    runs: Vec<Enumeration>,
    writes: Writes,
    spans: Vec<Span>,
    counts: RtCounts,
}

/// Enumerates whole cycles of [`CYCLE`] until `dur` has passed (at
/// least one cycle, so every semantics weighs the same in a window's
/// medians), with the writer running alongside.
fn run_window(
    fleet: &mut StoreFleet,
    set: &WeakSet,
    (writer_client, churn): (&StoreClient, &mut Churn),
    inputs: &Inputs,
    dur: Duration,
    traced: bool,
) -> Window {
    let stop = AtomicBool::new(false);
    let locks = LockEpoch::new(0);
    let board = traced.then(|| Arc::clone(&fleet.board));
    let writer_view = fleet.rt.clone();
    let cref = fleet.cref.clone();
    let homes = fleet.servers.clone();
    fleet.handler_tracing.store(traced, Ordering::Relaxed);
    let deadline = Instant::now() + dur;
    let (runs, spans, counts, writes) = std::thread::scope(|s| {
        let wb = board.clone();
        let (stop_ref, locks_ref) = (&stop, &locks);
        let w = s.spawn(move || {
            writer(
                writer_view,
                writer_client,
                &cref,
                &homes,
                &inputs.churn,
                churn,
                (stop_ref, locks_ref),
                wb,
            )
        });
        let mut runs = Vec::new();
        let view = fleet.rt.clone();
        let mut timed = TimedRt::new(view, board.clone().unwrap_or_else(|| Board::new(0)));
        trace::set_thread_tracing(traced);
        while runs.is_empty() || runs.len() % CYCLE.len() != 0 || Instant::now() < deadline {
            let sem = CYCLE[runs.len() % CYCLE.len()];
            let rt: &mut StoreRt = if traced {
                &mut timed
            } else {
                timed.inner_mut()
            };
            let locked = sem == Semantics::Locked;
            if locked {
                locks.fetch_add(1, Ordering::SeqCst);
            }
            runs.push(enumerate(rt, set, sem));
            if locked {
                locks.fetch_add(1, Ordering::SeqCst);
            }
        }
        trace::set_thread_tracing(false);
        stop.store(true, Ordering::Relaxed);
        let writes = w.join().expect("iterate writer thread panicked");
        (runs, trace::take_thread_spans(), timed.counts, writes)
    });
    fleet.handler_tracing.store(false, Ordering::Relaxed);
    Window {
        runs,
        writes,
        spans,
        counts,
    }
}

/// A fleet holding the base members plus the churn objects.
fn build(cfg: &PhaseCfg, inputs: &Inputs) -> StoreFleet {
    let mut fleet = StoreFleet::start(cfg.seed ^ 0x17e7, cfg.trace);
    let setup = fleet.client("setup");
    fleet.populate(&setup, &inputs.base);
    for &id in &inputs.churn {
        let home = fleet.home_of(id);
        setup
            .put_object(&mut fleet.rt, home, crate::fleet::object(id))
            .expect("store a churn object on a healthy fleet");
    }
    fleet
}

/// The `iterate` activity: the populated fleet, the reader's weak set,
/// the writer's client, and everything measured so far.
pub struct Iterate {
    inputs: Inputs,
    fleet: StoreFleet,
    set: WeakSet,
    writer_client: StoreClient,
    churn: Churn,
    setup_s: f64,
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
    /// Traced windows' legitimately refused writes and `Locked`
    /// enumerations.
    refusals: (u64, u64),
    /// Untraced completed enumerations, per semantics.
    by_sem: [Samples; 4],
    /// Untraced times to the first yield, per semantics.
    first_yield: [Samples; 4],
    /// Untraced windows' median successful churn write.
    writes: PerWindow,
    spans: Vec<Span>,
    counts: RtCounts,
}

impl Iterate {
    /// Sets up `cfg.setup_reps` times (keeping the last fleet) and warms
    /// up with one cycle.
    pub fn set_up(cfg: &PhaseCfg) -> Iterate {
        let inputs = Inputs::generate(cfg.seed);
        let (mut fleet, setup_s) =
            set_up_repeatedly(cfg.setup_reps, || build(cfg, &inputs), StoreFleet::stop);
        let reader = fleet.client("reader");
        let writer_client = fleet.client("writer");
        let set = WeakSet::new(reader, fleet.cref.clone());
        let mut it = Iterate {
            inputs,
            fleet,
            set,
            writer_client,
            churn: Churn::default(),
            setup_s,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            refusals: (0, 0),
            by_sem: Default::default(),
            first_yield: Default::default(),
            writes: PerWindow::default(),
            spans: Vec::new(),
            counts: RtCounts::default(),
        };
        let warm = it.run(Duration::ZERO, false);
        for r in &warm.runs {
            if let Err(e) = check_enumeration(r, &it.inputs) {
                it.check_failures.push(e);
            }
        }
        it
    }

    fn run(&mut self, dur: Duration, traced: bool) -> Window {
        run_window(
            &mut self.fleet,
            &self.set,
            (&self.writer_client, &mut self.churn),
            &self.inputs,
            dur,
            traced,
        )
    }

    /// Counts a window's enumerations (checking each) and writes.
    fn tally(&mut self, w: &Window) -> [Samples; 4] {
        let mut by_sem: [Samples; 4] = Default::default();
        for r in &w.runs {
            self.attempted += 1;
            let checked = check_enumeration(r, &self.inputs);
            if let Err(e) = &checked {
                self.check_failures.push(e.clone());
            }
            if r.done && checked.is_ok() {
                by_sem[cycle_index(r.semantics)].push(r.took);
            } else {
                self.failed += 1;
            }
        }
        let wr = &w.writes;
        self.attempted += wr.attempted;
        self.failed += wr.failed + wr.stray_refusals;
        if wr.stray_refusals > 0 {
            self.check_failures.push(format!(
                "{} write(s) refused with Locked while no Locked enumeration was open",
                wr.stray_refusals
            ));
        }
        by_sem
    }
}

impl Activity for Iterate {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn window(&mut self, dur: Duration, traced: bool) {
        let w = self.run(dur, traced);
        let by_sem = self.tally(&w);
        if traced {
            self.refusals.0 += w.writes.refused;
            self.refusals.1 += w
                .runs
                .iter()
                .filter(|r| r.semantics == Semantics::Locked)
                .count() as u64;
            self.spans.extend(w.spans);
            self.spans.extend(w.writes.spans);
            self.counts.merge(&w.counts);
            self.counts.merge(&w.writes.counts);
        } else {
            for (all, new) in self.by_sem.iter_mut().zip(&by_sem) {
                all.extend(new);
            }
            for r in &w.runs {
                if let Some(d) = r.first_yield {
                    self.first_yield[cycle_index(r.semantics)].push(d);
                }
            }
            let mut ok = w.writes.ok.clone();
            self.writes.push("churn_write_p50_us", q_us(&mut ok, 0.5));
        }
    }

    fn finish(self: Box<Self>) -> PhaseOut {
        let mut me = *self;
        eprintln!(
            "iterate: {} enumerations and writes ({} failed)",
            me.attempted, me.failed
        );
        let mut out = PhaseOut {
            setup_s: me.setup_s,
            attempted: me.attempted,
            failed: me.failed,
            check_failures: std::mem::take(&mut me.check_failures),
            metrics: vec![
                ("enumerate_p50_ms", median_of_medians_us(&me.by_sem) / 1e3),
                ("first_yield_p50_us", median_of_medians_us(&me.first_yield)),
                ("churn_write_p50_us", me.writes.median("churn_write_p50_us")),
            ],
            ..PhaseOut::default()
        };
        if !me.spans.is_empty() {
            let mut spans = std::mem::take(&mut me.spans);
            spans.extend(me.fleet.take_handler_spans());
            let (mut layer, rt, spans) = layers(spans, &me.by_sem, me.counts);
            let (refused, locked_runs) = me.refusals;
            layer.push((
                "core.locked.refused_writes_per_run",
                refused as f64 / locked_runs.max(1) as f64,
            ));
            out.layer = layer;
            out.rt = Some(rt);
            out.spans = spans;
        }
        me.fleet.stop();
        out
    }
}

/// The median over the four semantics of each one's median, in
/// microseconds. Each semantics counts once however fast it is, and the
/// result sits between the middle two semantics rather than jumping
/// between them as the pooled median of a four-way mixture would. A
/// window holds about one enumeration per semantics, so each
/// semantics' median is also a median over windows (see
/// [`PerWindow`]).
fn median_of_medians_us(per_sem: &[Samples; 4]) -> f64 {
    let meds: Vec<f64> = per_sem
        .iter()
        .map(|s| q_us(&mut s.clone(), 0.5))
        .filter(|m| !m.is_nan())
        .collect();
    median(&meds)
}

/// Per-layer metrics of the traced window.
fn layers(
    spans: Vec<Span>,
    untraced: &[Samples; 4],
    counts: RtCounts,
) -> (Vec<(&'static str, f64)>, RtLayer, Vec<Span>) {
    let a = Analysis::new(spans);
    #[derive(Default)]
    struct Sem {
        next: Samples,
        next_self: Samples,
        rpcs: u64,
        yields: u64,
        traced: Samples,
    }
    let mut sems: [Sem; 4] = Default::default();
    let mut handler_get = Samples::default();
    let mut rt = RtLayer {
        counts,
        ..RtLayer::default()
    };
    for s in a.spans() {
        if s.name == "runtime.rpc" {
            rt.rpc.push_ns(s.dur_ns());
            rt.transit.push_ns(a.self_ns(s));
        } else if s.name == "store.handler.get_object" {
            handler_get.push_ns(s.dur_ns());
        } else if let Some(i) = NAMES.iter().position(|n| n.root == s.name) {
            let e = &mut sems[i];
            e.traced.push_ns(s.dur_ns());
            // Every `next` but the terminating one yielded.
            e.yields += (a.children(s).count() as u64).saturating_sub(1);
        } else if let Some(i) = NAMES.iter().position(|n| n.next == s.name) {
            let e = &mut sems[i];
            e.next.push_ns(s.dur_ns());
            e.next_self.push_ns(a.self_ns(s));
            e.rpcs += a.count_descendants(s, "runtime.rpc");
        }
    }
    let traced: Vec<Samples> = sems.iter().map(|e| e.traced.clone()).collect();
    let overhead_pct = overhead(untraced, &traced);
    let mut metrics = Vec::new();
    for (names, e) in NAMES.iter().zip(&mut sems) {
        metrics.push((names.next_p50, q_us(&mut e.next, 0.5)));
        metrics.push((names.self_p50, q_us(&mut e.next_self, 0.5)));
        metrics.push((names.rpcs_per_yield, e.rpcs as f64 / e.yields.max(1) as f64));
    }
    metrics.push((
        "store.handler.get_object.p50_us",
        q_us(&mut handler_get, 0.5),
    ));
    metrics.push(("trace.iterate.overhead_pct", overhead_pct));
    let spans = a.spans().to_vec();
    (metrics, rt, spans)
}
