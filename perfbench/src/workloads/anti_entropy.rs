//! `anti_entropy`: push-pull exchanges between two 10^6-dot replicas.
//!
//! **What runs.** Two `GossipNode`s on a `ThreadedRuntime` hold the same
//! [`DOTS`]-dot OR-Set (each base dot originates at one of the two
//! replicas, drawn from the seed). Before every exchange each replica
//! adds [`FRESH_PER_SIDE`] fresh elements, so the pair diverges by
//! 64 elements. Exchanges are `engine::sync_pair_with` push-pulls,
//! alternating `MerkleRange` and `Full`, and `engine::converged` must
//! hold after each.
//!
//! **Why.** Only here does `gossip::reconcile` run at the scale it was
//! built for, with a working set far larger than the CPU caches. Merkle
//! sends far fewer bytes than Full but spends more CPU, so both modes
//! and both costs are reported. Without this workload the `gossip`
//! crate goes unmeasured.
//!
//! **Loads** `gossip` (digest, range-tree descent, delta batches), the
//! `store` wire codec and the threaded `runtime` carrying large
//! messages. **Bypasses** `core`, `obs` telemetry, `sim`, `spec` and
//! `dst`.
//!
//! **Checks.** `converged` after every exchange; an exchange after
//! which the replicas differ is a failed operation and makes the run
//! incorrect.

use super::{q_us, set_up_repeatedly, Activity, PhaseCfg, PhaseOut};
use crate::stats::{median, Samples};
use crate::trace::{self, Analysis, Span};
use crate::wrap::{Board, TimedRt};
use std::time::{Duration, Instant};
use weakset_dst::prelude::mix;
use weakset_gossip::prelude::*;
use weakset_obs::gossip::{DELTA_BYTES, DIGEST_BYTES};
use weakset_runtime::prelude::*;
use weakset_sim::node::NodeId;
use weakset_sim::time::SimDuration;
use weakset_store::collection::MemberEntry;
use weakset_store::msg::StoreMsg;
use weakset_store::object::{CollectionId, ObjectId};
use weakset_store::prelude::StoreRt;

/// Live dots both replicas share before the first exchange.
pub const DOTS: u64 = 1_000_000;
/// Fresh elements each replica adds before every exchange.
pub const FRESH_PER_SIDE: u64 = 32;
/// Per-rpc timeout inside an exchange: generous, a Full exchange ships
/// megabytes.
pub const EXCHANGE_TIMEOUT: SimDuration = SimDuration::from_millis(60_000);

const COLL: CollectionId = CollectionId(7);

/// Two replicas holding the shared base set, driven through the
/// runtime wrapper (which forwards metrics, so byte counters are the
/// same whether or not a window is traced).
pub struct Pair {
    rt: TimedRt<ThreadedRuntime<StoreMsg>>,
    nodes: [NodeId; 2],
    seed: u64,
    fresh: u64,
}

impl Pair {
    /// Builds the [`DOTS`]-dot base set and installs a copy on each
    /// replica.
    pub fn build(seed: u64) -> Pair {
        let mut rt = ThreadedRuntime::<StoreMsg>::new(seed);
        let nodes = [rt.add_node("g0"), rt.add_node("g1")];
        for n in nodes {
            rt.install_service(n, Box::new(GossipNode::new(n)));
        }
        let mut base = ORSet::new();
        for i in 0..DOTS {
            let h = mix(seed, i);
            let origin = nodes[(h >> 63) as usize];
            base.add(
                origin,
                MemberEntry {
                    elem: ObjectId(h >> 1),
                    home: origin,
                },
            );
        }
        let mut sets = [Some(base.clone()), Some(base)];
        for (n, set) in nodes.into_iter().zip(&mut sets) {
            rt.with_service_mut(n, |g: &mut GossipNode| {
                g.create_replica(COLL, GossipSemantics::GrowShrink);
                *g.crdt_mut(COLL).expect("replica just created") =
                    MembershipCrdt::GrowShrink(set.take().expect("one set per replica"));
            });
        }
        Pair {
            rt: TimedRt::new(rt, Board::new(crate::fleet::BOARD_NODES)),
            nodes,
            seed,
            fresh: 0,
        }
    }

    /// Adds [`FRESH_PER_SIDE`] fresh elements at each replica.
    fn diverge(&mut self) {
        for n in self.nodes {
            for _ in 0..FRESH_PER_SIDE {
                let id = ObjectId(mix(self.seed ^ 0xf7e5, self.fresh) >> 1);
                self.fresh += 1;
                self.rt.with_service_mut(n, |g: &mut GossipNode| {
                    if let Some(MembershipCrdt::GrowShrink(set)) = g.crdt_mut(COLL) {
                        set.add(n, MemberEntry { elem: id, home: n });
                    }
                });
            }
        }
    }

    fn bytes(&self) -> (u64, u64) {
        let m = self.rt.metrics();
        (m.counter(DIGEST_BYTES), m.counter(DELTA_BYTES))
    }

    /// Stops both replica threads.
    pub fn stop(mut self) {
        if let Err(hung) = self.rt.inner_mut().shutdown(Duration::from_secs(10)) {
            panic!("gossip nodes still running after shutdown: {hung:?}");
        }
    }
}

/// One exchange's readings.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    merkle: bool,
    took: Duration,
    digest_bytes: u64,
    delta_bytes: u64,
    rpcs: u64,
}

/// Diverges the pair, runs one exchange, and checks convergence
/// (untimed). Traced exchanges go through the runtime wrapper.
fn exchange(pair: &mut Pair, merkle: bool, traced: bool, out: &mut PhaseOut) -> Exchange {
    pair.diverge();
    let (d0, b0) = pair.bytes();
    let rpcs0 = pair.rt.counts.rpcs;
    let (mode, name) = if merkle {
        (DigestMode::MerkleRange, "gossip.exchange.merkle")
    } else {
        (DigestMode::Full, "gossip.exchange.full")
    };
    let [a, b] = pair.nodes;
    let rt: &mut StoreRt = if traced {
        &mut pair.rt
    } else {
        pair.rt.inner_mut()
    };
    let t0 = Instant::now();
    trace::op(name, || {
        engine::sync_pair_with(rt, COLL, a, b, mode, EXCHANGE_TIMEOUT)
    });
    let took = t0.elapsed();
    let (d1, b1) = pair.bytes();
    out.attempted += 1;
    if !engine::converged(&pair.rt, COLL, &pair.nodes) {
        out.failed += 1;
        out.check_failures
            .push(format!("replicas differ after a {name}"));
    }
    Exchange {
        merkle,
        took,
        digest_bytes: d1 - d0,
        delta_bytes: b1 - b0,
        rpcs: pair.rt.counts.rpcs - rpcs0,
    }
}

/// Runs Merkle/Full exchange pairs until `dur` has passed (at least one
/// pair).
fn run_window(pair: &mut Pair, dur: Duration, traced: bool, out: &mut PhaseOut) -> Vec<Exchange> {
    let deadline = Instant::now() + dur;
    let mut xs = Vec::new();
    while xs.is_empty() || Instant::now() < deadline {
        xs.push(exchange(pair, true, traced, out));
        xs.push(exchange(pair, false, traced, out));
    }
    xs
}

fn samples(xs: &[Exchange], merkle: bool, f: impl Fn(&Exchange) -> f64) -> Vec<f64> {
    xs.iter().filter(|x| x.merkle == merkle).map(f).collect()
}

/// The `anti_entropy` activity: the replica pair and every exchange so
/// far.
pub struct AntiEntropy {
    pair: Pair,
    /// Counts and check failures.
    out: PhaseOut,
    plain: Vec<Exchange>,
    traced: Vec<Exchange>,
    spans: Vec<Span>,
}

impl AntiEntropy {
    /// Builds the pair `cfg.setup_reps` times (keeping the last) and
    /// warms up with one exchange per mode.
    pub fn set_up(cfg: &PhaseCfg) -> AntiEntropy {
        let (pair, setup_s) =
            set_up_repeatedly(cfg.setup_reps, || Pair::build(cfg.seed), Pair::stop);
        let mut ae = AntiEntropy {
            pair,
            out: PhaseOut {
                setup_s,
                ..PhaseOut::default()
            },
            plain: Vec::new(),
            traced: Vec::new(),
            spans: Vec::new(),
        };
        let mut warm = PhaseOut::default();
        run_window(&mut ae.pair, Duration::ZERO, false, &mut warm);
        ae.out.check_failures.append(&mut warm.check_failures);
        ae
    }
}

impl Activity for AntiEntropy {
    fn setup_s(&self) -> f64 {
        self.out.setup_s
    }

    fn window(&mut self, dur: Duration, traced: bool) {
        trace::set_thread_tracing(traced);
        let xs = run_window(&mut self.pair, dur, traced, &mut self.out);
        if traced {
            // The range tree a Merkle descent builds, timed on its own.
            let pair = &self.pair;
            trace::op("gossip.range_tree_build", || {
                pair.rt.with_service(pair.nodes[0], |g: &GossipNode| {
                    if let Some(MembershipCrdt::GrowShrink(set)) = g.crdt(COLL) {
                        std::hint::black_box(RangeTree::for_orset(set).len());
                    }
                })
            });
            self.traced.extend(xs);
            self.spans.extend(trace::take_thread_spans());
        } else {
            self.plain.extend(xs);
        }
        trace::set_thread_tracing(false);
    }

    fn finish(self: Box<Self>) -> PhaseOut {
        let me = *self;
        let mut out = me.out;
        eprintln!("anti_entropy: {} exchanges", out.attempted);
        let xs = &me.plain;
        let ms = |merkle| median(&samples(xs, merkle, |x| x.took.as_secs_f64() * 1e3));
        out.metrics = vec![
            ("reconcile_merkle_ms", ms(true)),
            ("reconcile_full_ms", ms(false)),
            (
                "merkle_sync_bytes",
                median(&samples(xs, true, |x| {
                    (x.digest_bytes + x.delta_bytes) as f64
                })),
            ),
        ];
        if !me.spans.is_empty() {
            let a = Analysis::new(me.spans);
            let p50 = |name: &str| q_us(&mut a.durations(name), 0.5);
            let mut merkle_self = Samples::default();
            for sp in a
                .spans()
                .iter()
                .filter(|sp| sp.name == "gossip.exchange.merkle")
            {
                merkle_self.push_ns(a.self_ns(sp));
            }
            let txs = &me.traced;
            out.layer = vec![
                (
                    "gossip.exchange.merkle.p50_us",
                    p50("gossip.exchange.merkle"),
                ),
                ("gossip.exchange.full.p50_us", p50("gossip.exchange.full")),
                (
                    "gossip.exchange.merkle.self_p50_us",
                    q_us(&mut merkle_self, 0.5),
                ),
                (
                    "gossip.range_tree_build.p50_us",
                    p50("gossip.range_tree_build"),
                ),
                (
                    "gossip.rpcs_per_exchange.merkle",
                    median(&samples(txs, true, |x| x.rpcs as f64)),
                ),
                (
                    "gossip.rpcs_per_exchange.full",
                    median(&samples(txs, false, |x| x.rpcs as f64)),
                ),
                (
                    "gossip.merkle.digest_bytes",
                    median(&samples(txs, true, |x| x.digest_bytes as f64)),
                ),
                (
                    "gossip.merkle.delta_bytes",
                    median(&samples(txs, true, |x| x.delta_bytes as f64)),
                ),
                (
                    "gossip.full.digest_bytes",
                    median(&samples(txs, false, |x| x.digest_bytes as f64)),
                ),
                (
                    "gossip.full.delta_bytes",
                    median(&samples(txs, false, |x| x.delta_bytes as f64)),
                ),
            ];
            out.spans = a.spans().to_vec();
        }
        me.pair.stop();
        out
    }
}
