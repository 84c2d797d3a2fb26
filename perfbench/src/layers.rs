//! The traced run: per-layer host time, measured from outside by timing
//! the calls into each layer's public functions, plus the counters those
//! calls return.
//!
//! Layers and the calls that time them:
//! * `il-analysis`: [`analyze_launch`] plus [`DynamicCheckPlan::run`] per
//!   launch, and nothing else (`analysis.verdict_s`);
//! * `il-runtime::depgraph` and `::replay`: [`expand_program`] (or, per
//!   service session, [`expand_program_warm`]), whose [`ExpandProfile`]
//!   buckets split it into analysis, materialization and trace replay;
//! * `il-runtime::exec` with `il-machine`: [`execute`] or [`Service::run`]
//!   minus the expansion they repeat internally (`simulate.wall_s`).
//!
//! [`DynamicCheckPlan::run`]: il_analysis::DynamicCheckPlan::run
//! [`ExpandProfile`]: il_runtime::ExpandProfile
//! [`execute`]: il_runtime::execute
//! [`Service::run`]: il_runtime::Service::run

use crate::workload::{Built, Ran};
use crate::Metric;
use il_analysis::{analyze_launch, HybridVerdict, LaunchArg};
use il_machine::Stage;
use il_runtime::{
    expand_program, expand_program_warm, AnalysisCacheStats, Program, TraceReplayStats, WarmState,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Host seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `num / den`, or 0 when the denominator is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Hybrid-analysis totals over every launch of a program.
#[derive(Default)]
struct Analysis {
    secs: f64,
    dynamic_ops: u64,
    evals: u64,
}

/// Time [`analyze_launch`] plus the dynamic check of every launch of
/// `program`. Building each launch's arguments stays outside the timer.
fn analyze(program: &Program, acc: &mut Analysis) {
    for op in &program.ops {
        let launch = op.launch();
        let args: Vec<LaunchArg> = launch
            .reqs
            .iter()
            .map(|r| LaunchArg {
                partition: r.partition,
                functor: program.functor(r.functor).clone(),
                privilege: r.privilege,
                fields: r.fields.clone(),
            })
            .collect();
        let (evals, secs) =
            timed(
                || match analyze_launch(&program.forest, &launch.domain, &args) {
                    HybridVerdict::NeedsDynamic(plan) => Some(plan.run().unwrap_or(0)),
                    _ => None,
                },
            );
        acc.secs += secs;
        if let Some(evals) = evals {
            acc.dynamic_ops += 1;
            acc.evals += evals;
        }
    }
}

/// Expansion totals over every program of the workload.
#[derive(Default)]
struct Expansion {
    wall: f64,
    analysis: f64,
    materialize: f64,
    replay: f64,
    tasks: u64,
    dep_edges: u64,
    copies: u64,
    /// Warm-state-dependent counters, to compare with the traced run's.
    reuse: Reuse,
}

/// Counters that depend on what a warm state carried over: verdict-cache
/// hits, misses and warm hits, and trace captures, replays and
/// invalidations.
#[derive(Default, Debug, PartialEq)]
struct Reuse([u64; 6]);

impl Reuse {
    fn add(&mut self, cache: &AnalysisCacheStats, trace: &TraceReplayStats) {
        let counts = [
            cache.hits,
            cache.misses,
            cache.warm_hits,
            trace.captured,
            trace.replayed,
            trace.invalidated,
        ];
        for (sum, n) in self.0.iter_mut().zip(counts) {
            *sum += n;
        }
    }
}

/// Key of a service tenant's warm state, as the service derives it: the
/// tenant plus a hash of every launch signature in order. The traced run
/// checks that the expansions keyed this way reuse exactly what the
/// service's own expansions reuse.
fn warm_key(program: &Program, tenant: u32) -> (u32, u64) {
    let mut h = DefaultHasher::new();
    program.ops.len().hash(&mut h);
    for op in &program.ops {
        il_runtime::launch_signature(op.launch(), program).hash(&mut h);
    }
    (tenant, h.finish())
}

/// Time the expansion of every program of `built`. Service sessions are
/// expanded in arrival order with per-tenant warm state, as the service
/// expands them at admission.
fn expand(built: &Built) -> Expansion {
    let mut acc = Expansion::default();
    let mut warm: HashMap<(u32, u64), WarmState> = HashMap::new();
    let sessions = matches!(built, Built::Sessions(_));
    for (program, config, tenant) in built.programs() {
        let (x, secs) = timed(|| {
            if sessions {
                let state = warm.entry(warm_key(program, tenant)).or_default();
                expand_program_warm(program, config, Some(state))
            } else {
                expand_program(program, config)
            }
        });
        acc.wall += secs;
        acc.analysis += x.profile.analysis_ns as f64 / 1e9;
        acc.materialize += x.profile.materialize_ns as f64 / 1e9;
        acc.replay += x.profile.replay_ns as f64 / 1e9;
        acc.tasks += x.len() as u64;
        acc.dep_edges += x.deps.iter().map(|d| d.len() as u64).sum::<u64>();
        acc.copies += x.copies.iter().map(|c| c.len() as u64).sum::<u64>();
        acc.reuse.add(&x.analysis_cache, &x.trace_replay);
    }
    acc
}

/// Result of the traced run.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The traced run's report, for the correctness checks.
    pub ran: Ran,
    /// The traced `execute` / `Service::run` call, in host seconds.
    pub execute_s: f64,
    /// Checks of the traced run that failed.
    pub errors: Vec<String>,
}

/// Run every layer of `built` under its timer, after an untraced run
/// that took `untraced_s` host seconds.
pub fn traced(built: &Built, untraced_s: f64) -> Traced {
    let start = Instant::now();
    let mut an = Analysis::default();
    for (program, _, _) in built.programs() {
        analyze(program, &mut an);
    }
    let ex = expand(built);
    let (ran, exec_s) = timed(|| built.run());
    let traced_s = start.elapsed().as_secs_f64();
    let simulate_s = exec_s - ex.wall;

    let reports = ran.reports();
    let sum = |f: &dyn Fn(&il_runtime::RunReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let named = ex.analysis + ex.materialize + ex.replay;
    let mut reuse = Reuse::default();
    for r in &reports {
        reuse.add(&r.analysis_cache, &r.trace_replay);
    }
    let mut errors = Vec::new();
    if reuse != ex.reuse {
        errors.push(format!(
            "standalone expansions reuse {:?} (cache hits, misses, warm hits, \
             captures, replays, invalidations), the run's reports {:?}",
            ex.reuse.0, reuse.0
        ));
    }
    let captured = sum(&|r| r.trace_replay.captured);
    let replayed = sum(&|r| r.trace_replay.replayed);

    let mut m = vec![
        Metric::new("expand.wall_s", ex.wall, "s"),
        Metric::new("expand.analysis_s", ex.analysis, "s"),
        Metric::new("expand.materialize_s", ex.materialize, "s"),
        Metric::new("expand.replay_s", ex.replay, "s"),
        Metric::new("expand.unattributed_s", ex.wall - named, "s"),
        Metric::new("expand.tasks", ex.tasks as f64, "count"),
        Metric::new("expand.dep_edges", ex.dep_edges as f64, "count"),
        Metric::new("expand.copies", ex.copies as f64, "count"),
        Metric::new("replay.captured", captured, "count"),
        Metric::new("replay.replayed", replayed, "count"),
        Metric::new(
            "replay.invalidated",
            sum(&|r| r.trace_replay.invalidated),
            "count",
        ),
        Metric::new(
            "replay.analyses_skipped",
            sum(&|r| r.trace_replay.analyses_skipped),
            "count",
        ),
        Metric::new(
            "replay.tasks_replayed",
            sum(&|r| r.trace_replay.tasks_replayed),
            "count",
        ),
        Metric::new("replay.payoff", ratio(replayed, captured), "per_capture"),
        Metric::new("simulate.wall_s", simulate_s, "s"),
        Metric::new("sim.messages", sum(&|r| r.messages), "count"),
        Metric::new("sim.bytes", sum(&|r| r.bytes), "bytes"),
        Metric::new("analysis.verdict_s", an.secs, "s"),
        Metric::new("analysis.dynamic_ops", an.dynamic_ops as f64, "count"),
        Metric::new("analysis.dynamic_evals", an.evals as f64, "count"),
        Metric::new(
            "analysis.evals_per_s",
            ratio(an.evals as f64, an.secs),
            "1/s",
        ),
        Metric::new(
            "analysis.evals_per_expand_analysis_s",
            ratio(an.evals as f64, ex.analysis),
            "1/s",
        ),
        Metric::new("cache.hits", sum(&|r| r.analysis_cache.hits), "count"),
        Metric::new("cache.misses", sum(&|r| r.analysis_cache.misses), "count"),
        Metric::new(
            "cache.warm_hits",
            sum(&|r| r.analysis_cache.warm_hits),
            "count",
        ),
    ];
    let recovery =
        |f: &dyn Fn(&il_runtime::RecoveryStats) -> u64| sum(&|r| r.recovery.as_ref().map_or(0, f));
    m.push(Metric::new(
        "recovery.recovery_checks",
        recovery(&|x| x.recovery_checks),
        "count",
    ));
    m.push(Metric::new(
        "recovery.retried_tasks",
        recovery(&|x| x.retried_tasks),
        "count",
    ));
    m.push(Metric::new(
        "recovery.resharded_groups",
        recovery(&|x| x.resharded_groups),
        "count",
    ));

    let (sessions, rejected, rounds, wait_mean) = match &ran {
        Ran::Service(s) => {
            let waits: u64 = s.sessions.iter().map(|x| x.wait_rounds).sum();
            let n = s.sessions.len() as f64;
            (
                n,
                s.rejected.len() as f64,
                s.rounds as f64,
                ratio(waits as f64, n),
            )
        }
        Ran::Program(_) => (0.0, 0.0, 0.0, 0.0),
    };
    m.push(Metric::new("service.sessions", sessions, "count"));
    m.push(Metric::new("service.rejected", rejected, "count"));
    m.push(Metric::new("service.rounds", rounds, "count"));
    m.push(Metric::new("service.wait_rounds_mean", wait_mean, "rounds"));

    for stage in Stage::ALL {
        let busy_ns = sum(&|r| r.stage_busy.get(stage).as_ns());
        m.push(Metric::new(
            &format!("sim.stage.{}.busy_ms", stage.name()),
            busy_ns / 1e6,
            "sim_ms",
        ));
    }

    m.push(Metric::new(
        "coverage.expand_named",
        ratio(named, ex.wall),
        "ratio",
    ));
    m.push(Metric::new("trace.untraced_s", untraced_s, "s"));
    m.push(Metric::new("trace.traced_s", traced_s, "s"));
    m.push(Metric::new("trace.overhead_s", traced_s - untraced_s, "s"));
    Traced {
        metrics: m,
        ran,
        execute_s: exec_s,
        errors,
    }
}
