//! The timing wrappers must not change what the program computes: a
//! wrapped, traced run and an unwrapped run with the same seed give the
//! same read results and the same enumerations.

use perfbench::fleet::StoreFleet;
use perfbench::trace;
use perfbench::workloads::iterate::enumerate;
use perfbench::workloads::read_mix::{Inputs, Op};
use perfbench::wrap::TimedRt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use weakset::prelude::{Semantics, WeakSet};
use weakset_store::collection::MemberEntry;
use weakset_store::prelude::StoreRt;

const SEED: u64 = 7;
const OPS: usize = 400;

/// Replays the first [`OPS`] ops of client 0's stream on a fresh fleet
/// and returns every read's sorted membership, then one Snapshot
/// enumeration's sorted yields.
fn replay(wrapped: bool) -> (Vec<Vec<u64>>, Vec<u64>, usize) {
    let inputs = Inputs::generate(SEED, 1);
    let mut fleet = StoreFleet::start(SEED, wrapped);
    let setup = fleet.client("setup");
    fleet.populate(&setup, &inputs.base);
    let client = fleet.client("load.0");
    let view = fleet.rt.clone();
    let mut timed = TimedRt::new(view, Arc::clone(&fleet.board));
    if wrapped {
        fleet.handler_tracing.store(true, Ordering::Relaxed);
        trace::set_thread_tracing(true);
    }
    let rt: &mut StoreRt = if wrapped {
        &mut timed
    } else {
        timed.inner_mut()
    };
    let mut reads = Vec::new();
    let mut present = None;
    let mut next_churn = 0;
    for op in inputs.streams[0].iter().take(OPS) {
        match *op {
            Op::Read(policy) => {
                let read = client
                    .read_members(rt, &fleet.cref, policy)
                    .expect("read on a healthy fleet");
                let mut elems: Vec<u64> = read.entries.iter().map(|e| e.elem.0).collect();
                elems.sort_unstable();
                reads.push(elems);
            }
            Op::Write => match present.take() {
                Some(id) => {
                    client
                        .remove_member(rt, &fleet.cref, id)
                        .expect("remove on a healthy fleet");
                }
                None => {
                    let id = inputs.churn[0][next_churn % inputs.churn[0].len()];
                    next_churn += 1;
                    let home = fleet.home_of(id);
                    client
                        .add_member(rt, &fleet.cref, MemberEntry { elem: id, home })
                        .expect("add on a healthy fleet");
                    present = Some(id);
                }
            },
        }
    }
    let set = WeakSet::new(fleet.client("reader"), fleet.cref.clone());
    for &id in &inputs.churn[0] {
        setup
            .put_object(rt, fleet.home_of(id), perfbench::fleet::object(id))
            .expect("store a churn object");
    }
    let e = enumerate(rt, &set, Semantics::Snapshot);
    assert!(e.done, "a healthy enumeration ends Done");
    let mut yielded: Vec<u64> = e.yielded.iter().map(|id| id.0).collect();
    yielded.sort_unstable();
    trace::set_thread_tracing(false);
    let spans = trace::take_thread_spans().len() + fleet.take_handler_spans().len();
    drop(timed);
    fleet.stop();
    (reads, yielded, spans)
}

#[test]
fn wrapped_and_unwrapped_reads_agree() {
    let (plain_reads, plain_yields, plain_spans) = replay(false);
    let (wrapped_reads, wrapped_yields, wrapped_spans) = replay(true);
    assert_eq!(plain_spans, 0, "the unwrapped run records nothing");
    assert!(wrapped_spans > OPS, "the wrapped run records spans");
    assert!(!plain_reads.is_empty());
    assert_eq!(plain_reads, wrapped_reads);
    assert_eq!(plain_yields, wrapped_yields);
}

#[test]
fn wrapped_services_stay_quiet_when_tracing_is_off() {
    let mut fleet = StoreFleet::start(SEED, true);
    let setup = fleet.client("setup");
    let inputs = Inputs::generate(SEED, 1);
    fleet.populate(&setup, &inputs.base[..8]);
    assert!(fleet.take_handler_spans().is_empty());
    fleet.stop();
}
