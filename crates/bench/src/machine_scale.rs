//! Machine-scale weak-scaling sweep of the raw discrete-event simulator.
//!
//! The paper's figures stop at 1024 nodes — the size of Piz Daint's
//! allocation. This sweep measures the *simulator itself* well past
//! that: a relay storm whose event count grows linearly with the node
//! count (weak scaling) is dispatched at 16k–1M simulated nodes, and
//! the wall-clock events-per-second rate is printed per point. Every
//! point is on the calendar-queue side (≥ 4096 nodes) of
//! `QueueKind::Auto`, which the `perfbench` workloads do not reach.
//!
//! Each point runs the identical storm twice over two configurations:
//!
//! * **new** — `QueueKind::Auto` (the calendar queue above 4096 nodes),
//!   table-based O(1) fault lookups, O(active) clock arena;
//! * **legacy** — the pre-PR hot path: `QueueKind::BinaryHeap` plus
//!   [`FaultPlan::with_scan_lookups`], which re-scans the full
//!   crash/slow schedule on every dispatched event.
//!
//! Both runs must dispatch the same number of events (locked by an
//! assert — the queue-equivalence property guarantees it), so the
//! events-per-second ratio is a pure data-structure comparison. The
//! legacy leg is only run at the smaller sizes; its per-event cost is
//! O(faults) and the fault schedule grows with the machine.

use il_machine::{
    FaultPlan, FaultSpec, MachineDesc, Network, NodeBehavior, NodeCtx, QueueKind, SimTime,
    Simulator, Stage,
};
use std::time::Instant;

/// Relay hops per injected seed message. Every hop is one network
/// delivery plus one handler dispatch, so the storm generates
/// `nodes × (TTL + 1)` events.
const TTL: u32 = 8;

/// One measured point of the sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Simulated machine size.
    pub nodes: usize,
    /// Which event queue the run used (`"binary_heap"` / `"calendar"`).
    pub queue: &'static str,
    /// True for the pre-PR baseline (heap queue + linear fault scans).
    pub legacy: bool,
    /// Events dispatched (identical across configurations by design).
    pub events: u64,
    /// Scheduled crash + slow-node entries in the fault plan.
    pub faults: usize,
    /// Wall-clock nanoseconds spent inside `Simulator::run`.
    pub wall_ns: u64,
    /// Dispatch rate.
    pub events_per_sec: f64,
    /// Weak-scaling figure of merit: simulated nodes per wall second.
    pub nodes_per_sec: f64,
}

/// The whole sweep: every measured point plus the per-size speedup of
/// the new path over the legacy baseline (where both were run).
#[derive(Clone, Debug)]
pub struct ScaleSweep {
    /// All measured points, new path first, then legacy baselines.
    pub points: Vec<ScalePoint>,
    /// `(nodes, new events/s ÷ legacy events/s)` for the paired sizes.
    pub speedups: Vec<(usize, f64)>,
}

/// Relay behavior: charge a little network time, forward until the
/// hop budget runs out. Stateless per node, so per-node memory stays
/// in the simulator's clock arena, not the behavior vector.
struct Relay;

#[derive(Clone, Debug)]
struct Hop {
    ttl: u32,
    stride: usize,
}

impl NodeBehavior<Hop> for Relay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hop>, msg: Hop) {
        ctx.set_stage(Stage::Network);
        ctx.charge(SimTime::ns(200));
        if msg.ttl > 0 {
            let dst = (ctx.node() + msg.stride) % ctx.nodes();
            ctx.send(dst, Hop { ttl: msg.ttl - 1, ..msg }, 256);
        }
    }
}

/// A fault schedule that *loads* the lookup path without perturbing the
/// storm: `nodes/4` crashes scheduled far beyond the storm's makespan
/// (so the crash check runs on every event but never fires) plus
/// `nodes/4` slow nodes (which stretch charges identically in both
/// configurations — the plan is a pure function of the seed).
fn storm_plan(nodes: usize) -> FaultPlan {
    let spec = FaultSpec {
        drop_per_mille: 0,
        dup_per_mille: 0,
        max_crashes: nodes / 4,
        slow_nodes: nodes / 4,
        crash_window: (SimTime::secs(3_600), SimTime::secs(7_200)),
        slow_factor: 3,
        corrupt_nodes: 0,
        corrupt_per_mille: 0,
        corrupt_payload_per_mille: 0,
    };
    FaultPlan::generate(0x5CA1E, nodes, &spec)
}

/// Run the relay storm at `nodes` and measure the dispatch rate.
pub fn run_point(nodes: usize, legacy: bool) -> ScalePoint {
    // One CPU per node: the proc arena is per-active-node, but there is
    // no reason to model 13 processors nobody uses.
    let machine = MachineDesc { nodes, cpus_per_node: 1, gpus_per_node: 0 };
    let behaviors = (0..nodes).map(|_| Relay).collect();
    let kind = if legacy { QueueKind::BinaryHeap } else { QueueKind::Auto };
    let mut sim = Simulator::new(machine, Network::aries(), behaviors).with_queue(kind);
    let queue = match sim.queue_kind() {
        QueueKind::BinaryHeap => "binary_heap",
        _ => "calendar",
    };
    let mut plan = storm_plan(nodes);
    if legacy {
        plan = plan.with_scan_lookups();
    }
    let faults = plan.crashes().len() + plan.slow_count();
    sim.set_fault_plan(plan);
    // Every node seeds one relay chain; injection instants are staggered
    // over a 51.2 µs window so the storm spreads across calendar buckets
    // instead of colliding on one timestamp.
    for n in 0..nodes {
        sim.inject(
            SimTime::ns((n % 1_024) as u64 * 50),
            n,
            Hop { ttl: TTL, stride: (n % 7) + 1 },
        );
    }
    let bound = (nodes as u64) * (TTL as u64 + 2) * 4;
    let start = Instant::now();
    let events = sim.try_run(bound).expect("storm exceeded its event bound");
    let wall_ns = start.elapsed().as_nanos() as u64;
    let secs = (wall_ns as f64 / 1e9).max(1e-9);
    ScalePoint {
        nodes,
        queue,
        legacy,
        events,
        faults,
        wall_ns,
        events_per_sec: events as f64 / secs,
        nodes_per_sec: nodes as f64 / secs,
    }
}

/// Node counts for the new path, capped at `max_nodes`.
fn new_sizes(max_nodes: usize) -> Vec<usize> {
    [16_384, 65_536, 262_144, 1_048_576]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect()
}

/// Node counts for the legacy baseline: the O(faults)-per-event scans
/// make larger sizes pointless to wait on.
fn legacy_sizes(max_nodes: usize) -> Vec<usize> {
    [16_384, 65_536].into_iter().filter(|&n| n <= max_nodes).collect()
}

/// Run the full weak-scaling sweep up to `max_nodes` simulated nodes.
pub fn weak_scaling(max_nodes: usize) -> ScaleSweep {
    let mut points: Vec<ScalePoint> = Vec::new();
    for nodes in new_sizes(max_nodes) {
        points.push(run_point(nodes, false));
    }
    for nodes in legacy_sizes(max_nodes) {
        points.push(run_point(nodes, true));
    }
    let mut speedups = Vec::new();
    for p in points.iter().filter(|p| p.legacy) {
        let new = points
            .iter()
            .find(|q| !q.legacy && q.nodes == p.nodes)
            .expect("every legacy size is also run on the new path");
        assert_eq!(
            new.events, p.events,
            "queue kinds diverged at {} nodes: the equivalence property is broken",
            p.nodes
        );
        speedups.push((p.nodes, new.events_per_sec / p.events_per_sec.max(1e-9)));
    }
    ScaleSweep { points, speedups }
}

impl ScaleSweep {
    /// Render the sweep as an ASCII table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("weak scaling: DES dispatch rate vs. machine size\n");
        out.push_str("  nodes      path    queue        events     events/s      wall\n");
        for p in &self.points {
            out.push_str(&format!(
                "  {:>9}  {:6}  {:11}  {:>9}  {:>11.0}  {:>6.2}s\n",
                p.nodes,
                if p.legacy { "legacy" } else { "new" },
                p.queue,
                p.events,
                p.events_per_sec,
                p.wall_ns as f64 / 1e9,
            ));
        }
        for (nodes, s) in &self.speedups {
            out.push_str(&format!("  {nodes} nodes: new path {s:.1}x legacy events/s\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep (below the calendar auto-threshold the sizes
    /// list is empty, so drive the point runner directly): both paths
    /// dispatch the same storm.
    #[test]
    fn paths_agree_on_event_counts() {
        let new = run_point(512, false);
        let legacy = run_point(512, true);
        assert_eq!(new.events, legacy.events);
        assert_eq!(new.events, 512 * (TTL as u64 + 1));
        assert!(new.faults > 0, "the storm must carry a fault schedule");
        assert_eq!(legacy.queue, "binary_heap");
    }

    #[test]
    fn sizes_respect_the_cap() {
        assert_eq!(new_sizes(65_536), vec![16_384, 65_536]);
        assert_eq!(legacy_sizes(16_384), vec![16_384]);
        assert!(new_sizes(8_192).is_empty());
    }
}
