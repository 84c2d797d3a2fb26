//! Event-queue equivalence property tests: the calendar queue and the
//! binary heap must produce the *identical* dispatch sequence — same
//! `(time, seq)` pop order, including the same-timestamp sequence-number
//! tie-break — over seeded random event storms, both as bare queues and
//! under a full simulation. This is the lock that makes `QueueKind::Auto`
//! safe: switching data structures at 4096+ nodes cannot change results.

use il_machine::{
    BinaryHeapQueue, CalendarQueue, Event, EventQueue, FaultPlan, FaultSpec, MachineDesc,
    Network, NodeBehavior, NodeCtx, QueueKind, SimTime, Simulator, Stage,
};
use il_testkit::prop::{check, i64s, usizes, vec_of};
use il_testkit::{prop_assert, prop_assert_eq};

/// Interleaved storm on the bare queues: each `(t, burst, pops)` entry
/// pushes a burst of events (several sharing timestamp `t`, to exercise
/// the tie-break) then pops a few from both queues, comparing order.
#[test]
fn bare_queues_pop_identically() {
    let gen = vec_of((i64s(0..200), i64s(1..5), i64s(0..5)), 1..40);
    check("bare_queues_pop_identically", &gen, |ops| {
        let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut seq = 0u64;
        for &(t_raw, burst, pops) in ops {
            // Mostly clustered timestamps (heavy ties, shared buckets),
            // occasionally a far-future jump (direct-search fallback).
            let t = if t_raw < 180 { t_raw as u64 * 500 } else { t_raw as u64 * 50_000_000 };
            for b in 0..burst as u64 {
                let ev = |seq| Event { time: SimTime::ns(t), seq, dst: 0, msg: b };
                heap.push(ev(seq));
                cal.push(ev(seq));
                seq += 1;
            }
            for _ in 0..pops {
                let (a, b) = (heap.pop(), cal.pop());
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!((x.time, x.seq), (y.time, y.seq));
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "queue lengths diverged"),
                }
            }
            prop_assert_eq!(heap.len(), cal.len());
        }
        // Drain: the remaining sequences must match exactly.
        while let Some(a) = heap.pop() {
            let b = cal.pop().expect("calendar drained early");
            prop_assert_eq!((a.time, a.seq), (b.time, b.seq));
        }
        prop_assert!(cal.pop().is_none());
        Ok(())
    });
}

/// A relay that records every `(arrival, ttl)` it sees — any divergence
/// in dispatch order between queue kinds shows up in some node's log.
struct Relay {
    log: Vec<(u64, u32)>,
}

#[derive(Clone, Debug)]
struct Hop {
    ttl: u32,
    stride: usize,
    bytes: u64,
}

impl NodeBehavior<Hop> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hop>, msg: Hop) {
        self.log.push((ctx.arrival().as_ns(), msg.ttl));
        ctx.set_stage(Stage::Network);
        ctx.charge(SimTime::us(1));
        if msg.ttl > 0 {
            let dst = (ctx.node() + msg.stride) % ctx.nodes();
            ctx.send(dst, Hop { ttl: msg.ttl - 1, ..msg }, msg.bytes);
        }
    }
}

type Storm = Vec<(i64, i64, i64, i64)>;

/// Run `storm` to completion on two lanes (even and odd nodes), one event
/// at a time, or, given `limits` (µs), in batches up to each limit in
/// ascending order and then to the end.
fn run_with(
    kind: QueueKind,
    nodes: usize,
    storm: &Storm,
    faults: bool,
    limits: Option<&[i64]>,
) -> impl Eq + std::fmt::Debug {
    let behaviors = (0..nodes).map(|_| Relay { log: Vec::new() }).collect();
    let mut sim = Simulator::new(MachineDesc::piz_daint(nodes), Network::aries(), behaviors)
        .with_queue(kind);
    sim.enable_lanes((0..nodes).map(|n| (n % 2) as u32).collect(), 2);
    if faults {
        let spec = FaultSpec {
            max_crashes: 2,
            slow_nodes: 2,
            crash_window: (SimTime::us(5), SimTime::us(500)),
            ..FaultSpec::default()
        };
        sim.set_fault_plan(FaultPlan::generate(0xF00D, nodes, &spec));
    }
    for &(dst, ttl, stride, at) in storm {
        // Injections at assorted absolute times, many colliding.
        sim.inject(
            SimTime::ns((at as u64 % 8) * 1_000),
            dst as usize % nodes,
            Hop { ttl: ttl as u32, stride: stride as usize % nodes + 1, bytes: 256 },
        );
    }
    match limits {
        None => sim.run(1_000_000),
        Some(limits) => {
            let mut limits = limits.to_vec();
            limits.sort_unstable();
            for limit in limits.into_iter().map(|l| SimTime::us(l as u64)).chain([SimTime::MAX]) {
                while sim.try_step_until(limit).expect("storms never regress time") {}
            }
        }
    }
    let logs: Vec<Vec<(u64, u32)>> = (0..nodes).map(|n| sim.node(n).log.clone()).collect();
    (
        sim.stats().events,
        sim.stats().messages,
        sim.stats().bytes,
        sim.stats().faults,
        sim.makespan(),
        sim.stage_totals(),
        sim.node_stage_busy(),
        sim.lane_stats(0),
        sim.lane_stats(1),
        logs,
    )
}

/// Full-simulation equivalence: calendar vs. heap over random relay
/// storms, fault-free and under a fault plan (crashes, slow nodes,
/// drops, duplicates — duplicates create same-timestamp collisions).
#[test]
fn simulations_dispatch_identically_across_queue_kinds() {
    let gen = (
        usizes(2..12),
        vec_of((i64s(0..12), i64s(0..25), i64s(0..12), i64s(0..8)), 1..8),
    );
    check("simulations_dispatch_identically_across_queue_kinds", &gen, |(nodes, storm)| {
        for faults in [false, true] {
            prop_assert_eq!(
                run_with(QueueKind::BinaryHeap, *nodes, storm, faults, None),
                run_with(QueueKind::Calendar, *nodes, storm, faults, None)
            );
        }
        Ok(())
    });
}

/// Batched dispatch: running a storm with `try_step_until` in batches up
/// to a series of time limits dispatches exactly what stepping one event
/// at a time does — same per-node logs, `stats()` and lane counters — on
/// either queue kind, under a fault plan.
#[test]
fn batched_dispatch_matches_per_event_steps() {
    let gen = (
        usizes(2..12),
        vec_of((i64s(0..12), i64s(0..25), i64s(0..12), i64s(0..8)), 1..8),
        vec_of(i64s(0..80), 0..6),
    );
    check("batched_dispatch_matches_per_event_steps", &gen, |(nodes, storm, limits)| {
        for kind in [QueueKind::BinaryHeap, QueueKind::Calendar] {
            prop_assert_eq!(
                run_with(kind, *nodes, storm, true, None),
                run_with(kind, *nodes, storm, true, Some(limits))
            );
        }
        Ok(())
    });
}
