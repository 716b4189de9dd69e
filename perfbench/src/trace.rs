//! Benchmark-side spans: recorded around calls into each layer, kept in
//! memory per thread, analysed for self time and written out as a
//! Perfetto-loadable Chrome trace at exit.
//!
//! A span has a name (`<layer>.<what>`), start, end, parent and the id of
//! the operation it belongs to. Tracing is switched on per thread, so an
//! untraced run pays one thread-local flag check per would-be span.

use crate::stats::Samples;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Nanoseconds since the first call in this process (one clock for
/// every thread).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fresh thread id for span attribution.
pub fn new_tid() -> u32 {
    NEXT_TID.fetch_add(1, Ordering::Relaxed)
}

/// A span id unique within the process: thread id in the high bits.
pub fn span_id(tid: u32, local: u64) -> u64 {
    (u64::from(tid) << 40) | (local + 1)
}

/// One finished span. `parent == 0` marks an operation's root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Process-unique id.
    pub id: u64,
    /// Enclosing span, or 0.
    pub parent: u64,
    /// Operation (root span) this span belongs to.
    pub op: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Recording thread.
    pub tid: u32,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct ThreadLog {
    on: bool,
    tid: u32,
    next_local: u64,
    /// Open spans: (id, op, name, start).
    stack: Vec<(u64, u64, &'static str, u64)>,
    spans: Vec<Span>,
}

thread_local! {
    static LOG: RefCell<ThreadLog> = RefCell::new(ThreadLog {
        on: false,
        tid: new_tid(),
        next_local: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Switches span recording on or off for the calling thread.
pub fn set_thread_tracing(on: bool) {
    LOG.with(|l| l.borrow_mut().on = on);
}

/// True when the calling thread records spans.
pub fn tracing() -> bool {
    LOG.with(|l| l.borrow().on)
}

/// The innermost open span on this thread as `(span, op)`, or zeros.
pub fn current() -> (u64, u64) {
    LOG.with(|l| {
        l.borrow()
            .stack
            .last()
            .map_or((0, 0), |&(id, op, _, _)| (id, op))
    })
}

fn enter(name: &'static str, root: bool) -> Option<u64> {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return None;
        }
        let id = span_id(l.tid, l.next_local);
        l.next_local += 1;
        let op = match l.stack.last() {
            Some(&(_, op, _, _)) if !root => op,
            _ => NEXT_OP.fetch_add(1, Ordering::Relaxed),
        };
        l.stack.push((id, op, name, now_ns()));
        Some(id)
    })
}

fn exit(id: u64) {
    let end = now_ns();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let top = l.stack.pop().expect("span exit without an open span");
        assert_eq!(top.0, id, "spans close in LIFO order");
        let parent = l.stack.last().map_or(0, |&(p, _, _, _)| p);
        let tid = l.tid;
        l.spans.push(Span {
            id,
            parent,
            op: top.1,
            name: top.2,
            start_ns: top.3,
            end_ns: end,
            tid,
        });
    });
}

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span (or as a new operation's root when none is open). `f` receives
/// the new span's id, 0 when tracing is off.
pub fn span<R>(name: &'static str, f: impl FnOnce(u64) -> R) -> R {
    match enter(name, false) {
        Some(id) => {
            let r = f(id);
            exit(id);
            r
        }
        None => f(0),
    }
}

/// Runs `f` as the root span of a fresh operation.
pub fn op<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    match enter(name, true) {
        Some(id) => {
            let r = f();
            exit(id);
            r
        }
        None => f(),
    }
}

/// Drains the calling thread's finished spans.
pub fn take_thread_spans() -> Vec<Span> {
    LOG.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Spans indexed for self-time analysis.
pub struct Analysis {
    spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl Analysis {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Analysis { spans, children }
    }

    /// Every span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of `span`.
    pub fn children(&self, span: &Span) -> impl Iterator<Item = &Span> {
        self.children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .children(span)
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        span.dur_ns().saturating_sub(covered)
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for sp in self.spans.iter().filter(|sp| sp.name == name) {
            s.push_ns(sp.dur_ns());
        }
        s
    }

    /// Number of descendants of `span` named `name`.
    pub fn count_descendants(&self, span: &Span, name: &str) -> u64 {
        self.children(span)
            .map(|c| u64::from(c.name == name) + self.count_descendants(c, name))
            .sum()
    }

    /// Writes a Chrome trace-event JSON document (loadable by Perfetto)
    /// holding at most about `limit` spans. Whole operations are kept,
    /// earliest first, with the budget split evenly over the kinds of
    /// operation (root span names), so rare operations such as gossip
    /// exchanges are not crowded out by thousands of reads.
    pub fn to_chrome_trace(&self, limit: usize) -> String {
        let mut kind_of: HashMap<u64, &'static str> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == 0) {
            kind_of.insert(s.op, s.name);
        }
        let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_op.entry(s.op).or_default().push(s);
        }
        let kinds: HashSet<&str> = by_op
            .keys()
            .map(|op| kind_of.get(op).copied().unwrap_or(""))
            .collect();
        let budget = limit / kinds.len().max(1);
        let mut used: HashMap<&str, usize> = HashMap::new();
        let mut order: Vec<&Span> = Vec::new();
        for (op, spans) in &by_op {
            let used = used
                .entry(kind_of.get(op).copied().unwrap_or(""))
                .or_default();
            if *used + spans.len() <= budget {
                *used += spans.len();
                order.extend(spans);
            }
        }
        order.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in order.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x.y",
            start_ns: start,
            end_ns: end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let a = Analysis::new(vec![
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),
            sp(4, 1, 90, 120),
        ]);
        // Children cover [10, 50) and [90, 100): 50 ns.
        assert_eq!(a.self_ns(&a.spans()[0]), 50);
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        set_thread_tracing(true);
        op("bench.op", || {
            span("store.call", |_| span("runtime.rpc", |_| ()))
        });
        set_thread_tracing(false);
        let spans = take_thread_spans();
        assert_eq!(spans.len(), 3);
        let root = *spans.iter().find(|s| s.parent == 0).expect("root span");
        assert!(spans.iter().all(|s| s.op == root.op));
        let a = Analysis::new(spans);
        assert_eq!(a.count_descendants(&root, "runtime.rpc"), 1);
        assert!(a.to_chrome_trace(10).contains("\"name\":\"runtime.rpc\""));
        // An operation that does not fit the budget is left out whole.
        assert!(!a.to_chrome_trace(2).contains("runtime.rpc"));
    }
}
