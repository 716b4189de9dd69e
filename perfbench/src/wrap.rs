//! Timing wrappers that sit on the program's own boundaries without
//! changing it: [`TimedRt`] forwards every `Runtime<StoreMsg>` call to a
//! real runtime and records `runtime.*` spans around the transport
//! calls; [`TimedService`] forwards every request to a store service and
//! records a `store.handler.<kind>` span on the node's thread.
//!
//! A handler span's parent is the client rpc that carried the request.
//! The rpc wrapper posts its span on a [`Board`] slot keyed by the
//! calling node before forwarding, and the service wrapper reads the
//! slot of the request's sender. Every client thread of the benchmark
//! is its own node, so a slot has one writer.
//!
//! Deferred tasks (`Spawner::spawn_in`) run against the inner runtime,
//! so their calls are not timed. Gossip services are never wrapped:
//! the gossip engine downcasts them to `GossipNode`.

use crate::trace::{self, Span};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use weakset_runtime::prelude::*;
use weakset_sim::metrics::{Metrics, SpanId, TraceContext};
use weakset_sim::net::NetError;
use weakset_sim::node::NodeId;
use weakset_sim::rng::SimRng;
use weakset_sim::time::{SimDuration, SimTime};
use weakset_sim::world::{ReplyToken, Service, ServiceCtx};
use weakset_store::msg::StoreMsg;

/// Per-node slots naming the span (and operation) a node's outgoing
/// requests currently belong to.
#[derive(Debug)]
pub struct Board {
    slots: Vec<(AtomicU64, AtomicU64)>,
}

impl Board {
    /// A board for node ids below `nodes`.
    pub fn new(nodes: usize) -> Arc<Self> {
        Arc::new(Board {
            slots: (0..nodes)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        })
    }

    fn set(&self, node: NodeId, (span, op): (u64, u64)) {
        if let Some((s, o)) = self.slots.get(node.0 as usize) {
            // Statistic-only slots: the reader runs while the writer
            // blocks on the request, so no ordering beyond Relaxed.
            s.store(span, Ordering::Relaxed);
            o.store(op, Ordering::Relaxed);
        }
    }

    fn get(&self, node: NodeId) -> (u64, u64) {
        self.slots.get(node.0 as usize).map_or((0, 0), |(s, o)| {
            (s.load(Ordering::Relaxed), o.load(Ordering::Relaxed))
        })
    }
}

/// Transport counts the runtime wrapper keeps whether or not spans are
/// recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtCounts {
    /// Synchronous rpcs issued.
    pub rpcs: u64,
    /// Rpcs that failed because no route existed.
    pub failed_unreachable: u64,
    /// Rpcs that timed out.
    pub failed_timeout: u64,
    /// Rpcs to a down node or a closed mailbox.
    pub failed_closed: u64,
    /// `wait_any` calls.
    pub wait_any: u64,
}

impl RtCounts {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &RtCounts) {
        self.rpcs += other.rpcs;
        self.failed_unreachable += other.failed_unreachable;
        self.failed_timeout += other.failed_timeout;
        self.failed_closed += other.failed_closed;
        self.wait_any += other.wait_any;
    }
}

/// A forwarding `Runtime<StoreMsg>` around `R` that times transport
/// calls from outside.
pub struct TimedRt<R> {
    inner: R,
    board: Arc<Board>,
    last_from: Option<NodeId>,
    /// Transport counts so far.
    pub counts: RtCounts,
}

impl<R> TimedRt<R> {
    /// Wraps `inner`, posting request ownership on `board`.
    pub fn new(inner: R, board: Arc<Board>) -> Self {
        TimedRt {
            inner,
            board,
            last_from: None,
            counts: RtCounts::default(),
        }
    }

    /// The wrapped runtime.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Clock> Clock for TimedRt<R> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn sleep(&mut self, d: SimDuration) {
        trace::span("runtime.sleep", |_| self.inner.sleep(d));
    }

    fn rng_for(&self, label: &str) -> SimRng {
        self.inner.rng_for(label)
    }
}

impl<R: Observe> Observe for TimedRt<R> {
    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }

    fn span_enter(&mut self, kind: &str, detail: &dyn Fn() -> String) -> SpanId {
        self.inner.span_enter(kind, detail)
    }

    fn span_enter_under(
        &mut self,
        parent: Option<TraceContext>,
        kind: &str,
        detail: &dyn Fn() -> String,
    ) -> SpanId {
        self.inner.span_enter_under(parent, kind, detail)
    }

    fn span_exit(&mut self, id: SpanId) {
        self.inner.span_exit(id);
    }

    fn current_ctx(&self) -> Option<TraceContext> {
        self.inner.current_ctx()
    }

    fn trace_event(&mut self, kind: &str, detail: &dyn Fn() -> String) {
        self.inner.trace_event(kind, detail);
    }
}

impl<R: Transport<StoreMsg>> Transport<StoreMsg> for TimedRt<R> {
    fn rpc(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: StoreMsg,
        timeout: SimDuration,
    ) -> Result<StoreMsg, NetError> {
        self.counts.rpcs += 1;
        let result = trace::span("runtime.rpc", |id| {
            if id == 0 {
                return self.inner.rpc(from, to, msg, timeout);
            }
            let prev = self.board.get(from);
            self.board.set(from, trace::current());
            let r = self.inner.rpc(from, to, msg, timeout);
            self.board.set(from, prev);
            r
        });
        if let Err(e) = &result {
            match e {
                NetError::Unreachable { .. } => self.counts.failed_unreachable += 1,
                NetError::Timeout => self.counts.failed_timeout += 1,
                NetError::NodeDown(_) => self.counts.failed_closed += 1,
            }
        }
        result
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: StoreMsg) -> ReplyToken {
        self.last_from = Some(from);
        if trace::tracing() {
            self.board.set(from, trace::current());
        }
        self.inner.send(from, to, msg)
    }

    fn send_batch(&mut self, from: NodeId, to: NodeId, parts: Vec<StoreMsg>) -> ReplyToken {
        self.last_from = Some(from);
        if trace::tracing() {
            self.board.set(from, trace::current());
        }
        self.inner.send_batch(from, to, parts)
    }

    fn try_take_reply(&mut self, token: ReplyToken) -> Option<Result<StoreMsg, NetError>> {
        self.inner.try_take_reply(token)
    }

    fn wait_any(&mut self, tokens: &[ReplyToken], deadline: SimTime) -> Option<ReplyToken> {
        self.counts.wait_any += 1;
        trace::span("runtime.wait_any", |id| match self.last_from {
            Some(from) if id != 0 => {
                let prev = self.board.get(from);
                self.board.set(from, trace::current());
                let r = self.inner.wait_any(tokens, deadline);
                self.board.set(from, prev);
                r
            }
            _ => self.inner.wait_any(tokens, deadline),
        })
    }

    fn estimate_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.inner.estimate_latency(a, b)
    }
}

impl<R: ServiceHost<StoreMsg>> ServiceHost<StoreMsg> for TimedRt<R> {
    fn install_service(&mut self, node: NodeId, svc: Box<dyn Service<StoreMsg> + Send>) {
        self.inner.install_service(node, svc);
    }

    fn with_service_any(&self, node: NodeId, f: &mut dyn FnMut(&dyn Any)) -> bool {
        self.inner.with_service_any(node, f)
    }

    fn with_service_any_mut(&mut self, node: NodeId, f: &mut dyn FnMut(&mut dyn Any)) -> bool {
        self.inner.with_service_any_mut(node, f)
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.inner.is_up(node)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.inner.reachable(from, to)
    }
}

impl<R: Spawner<StoreMsg>> Spawner<StoreMsg> for TimedRt<R> {
    fn spawn_in(&mut self, d: SimDuration, task: Box<dyn RtTask<StoreMsg>>) {
        self.inner.spawn_in(d, task);
    }
}

/// The span name for a request's kind.
fn handler_span_name(msg: &StoreMsg) -> &'static str {
    match msg {
        StoreMsg::GetObject(_) => "store.handler.get_object",
        StoreMsg::PutObject(_) => "store.handler.put_object",
        StoreMsg::CreateCollection(_) => "store.handler.create_collection",
        StoreMsg::ListMembers(_) => "store.handler.list_members",
        StoreMsg::AddMember { .. } => "store.handler.add_member",
        StoreMsg::RemoveMember { .. } => "store.handler.remove_member",
        StoreMsg::SyncMembers { .. } => "store.handler.sync_members",
        StoreMsg::AcquireReadLock { .. } => "store.handler.acquire_read_lock",
        StoreMsg::ReleaseReadLock { .. } => "store.handler.release_read_lock",
        _ => "store.handler.other",
    }
}

/// A forwarding store service that records one span per handled
/// request while `on` is set.
pub struct TimedService {
    inner: Box<dyn Service<StoreMsg> + Send>,
    board: Arc<Board>,
    on: Arc<AtomicBool>,
    tid: u32,
    next_local: u64,
    spans: Vec<Span>,
}

impl TimedService {
    /// Wraps `inner`; spans are recorded while `on` holds.
    pub fn new(
        inner: Box<dyn Service<StoreMsg> + Send>,
        board: Arc<Board>,
        on: Arc<AtomicBool>,
    ) -> Self {
        TimedService {
            inner,
            board,
            on,
            tid: trace::new_tid(),
            next_local: 0,
            spans: Vec::new(),
        }
    }

    /// Drains the recorded handler spans.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

impl Service<StoreMsg> for TimedService {
    fn handle(&mut self, ctx: &mut ServiceCtx<'_>, from: NodeId, msg: StoreMsg) -> StoreMsg {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.handle(ctx, from, msg);
        }
        let name = handler_span_name(&msg);
        let start_ns = trace::now_ns();
        let reply = self.inner.handle(ctx, from, msg);
        let end_ns = trace::now_ns();
        let (parent, op) = self.board.get(from);
        let id = trace::span_id(self.tid, self.next_local);
        self.next_local += 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            tid: self.tid,
        });
        reply
    }
}
