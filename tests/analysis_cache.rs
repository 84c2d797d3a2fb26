//! The launch-signature analysis cache must be pure memoization: with
//! the cache on (the default) and off, every program produces identical
//! verdicts, identical dependence structure, identical simulated time —
//! byte-identical [`RunReport::stage_json`] output. The only permitted
//! difference is the host-side [`AnalysisCacheStats`] accounting.
//!
//! Locked in over the 500-seed differential-oracle corpus and the four
//! safety-matrix applications, plus a unit test that launches colliding
//! on domain volume (the classic signature-hash trap) still get
//! distinct cache entries, and a service regression that two programs
//! whose partition and functor ids coincide never share a tenant's warm
//! verdicts.

use il_oracle::generate_program;
use il_testkit::SplitMix64;
use index_launch::prelude::*;
use index_launch::runtime::{
    execute, expand_program, policy_by_name, Program, RuntimeConfig, Service, ServiceConfig,
    SessionSpec,
};
use std::rc::Rc;

const NODES: usize = 2;

fn on_off_configs() -> (RuntimeConfig, RuntimeConfig) {
    // Trace replay off on both sides: a replayed op skips the verdict
    // path entirely, which is its own transparency contract
    // (`tests/trace_replay.rs`); this tier isolates the per-launch
    // verdict cache, whose hit/miss counts assume every op resolves a
    // verdict.
    let on = RuntimeConfig::scale(NODES).with_trace_replay(false);
    let off = RuntimeConfig::scale(NODES).with_trace_replay(false).with_analysis_cache(false);
    (on, off)
}

/// Execute `program` with the cache on and off and assert the runs are
/// observationally identical. Returns the cache-on hit count.
fn assert_cache_transparent(name: &str, program: &Program) -> u64 {
    let (cfg_on, cfg_off) = on_off_configs();

    let exp_on = expand_program(program, &cfg_on);
    let exp_off = expand_program(program, &cfg_off);
    assert_eq!(exp_on.safety, exp_off.safety, "{name}: verdicts differ with cache on/off");
    assert_eq!(exp_on.len(), exp_off.len(), "{name}: task counts differ");

    let on = execute(program, &cfg_on);
    let off = execute(program, &cfg_off);
    assert_eq!(on.makespan, off.makespan, "{name}: makespan differs with cache on/off");
    assert_eq!(on.tasks, off.tasks, "{name}: task count differs");
    assert_eq!(
        on.stage_json().to_string(),
        off.stage_json().to_string(),
        "{name}: stage report differs with cache on/off"
    );

    // The off run must be a true control: cache disabled, never hit,
    // every launch analyzed.
    assert!(!off.analysis_cache.enabled, "{name}: off run reports cache enabled");
    assert_eq!(off.analysis_cache.hits, 0, "{name}: off run reports hits");
    assert_eq!(
        off.analysis_cache.misses,
        program.ops.len() as u64,
        "{name}: off run must analyze every launch"
    );
    assert!(on.analysis_cache.enabled, "{name}: on run reports cache disabled");
    assert_eq!(
        on.analysis_cache.hits + on.analysis_cache.misses,
        program.ops.len() as u64,
        "{name}: every launch is either a hit or a miss"
    );
    on.analysis_cache.hits
}

/// 500 seeded random launch programs (the differential-oracle corpus
/// generator): cache on and off agree everywhere. (The generator rarely
/// re-issues a byte-identical launch, so hit counts are not asserted
/// here — the iterative-apps test below pins that hits actually occur.)
#[test]
fn corpus_runs_identically_with_cache_on_and_off() {
    for case in 0..500u64 {
        let seed = SplitMix64::mix(0xCAC4E, case);
        let program = generate_program(seed);
        assert_cache_transparent(&format!("seed {seed:#x}"), &program);
    }
}

/// The four safety-matrix applications: the three paper apps plus an
/// opaque-functor program that exercises the dynamic-check path. The
/// iterative apps re-issue identical launches every timestep, so the
/// cache must hit; the equivalence assertions prove the hits change
/// nothing observable.
#[test]
fn safety_matrix_apps_run_identically_with_cache_on_and_off() {
    use index_launch::apps::{circuit, soleil, stencil};

    let stencil = stencil::build(&stencil::StencilConfig {
        iterations: 3,
        ..stencil::StencilConfig::tiny((2, 2))
    });
    let circuit = circuit::build(&circuit::CircuitConfig {
        iterations: 3,
        ..circuit::CircuitConfig::tiny(4)
    });
    let soleil = soleil::build(&soleil::SoleilConfig {
        iterations: 2,
        ..soleil::SoleilConfig::tiny((2, 1, 1))
    });
    let opaque = opaque_program();

    for (name, program, want_hits) in [
        ("stencil", &stencil.program, true),
        ("circuit", &circuit.program, true),
        ("soleil", &soleil.program, true),
        ("opaque", &opaque, false),
    ] {
        let hits = assert_cache_transparent(name, program);
        if want_hits {
            assert!(hits > 0, "{name}: iterative app never hit the cache");
        }
    }
}

/// A two-launch program whose launches differ only in the projection
/// functor — same task, same domain volume, same partition, same
/// privilege. A signature keyed on volume alone would collide; each
/// launch must get its own cache entry (two misses, zero hits).
#[test]
fn volume_colliding_launches_get_distinct_cache_entries() {
    use index_launch::machine::SimTime;
    use index_launch::runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};

    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let task = b.task_modeled("t");
    let identity = b.identity_functor();
    let reversed = b.functor(ProjExpr::linear(-1, 7));
    for functor in [identity, reversed] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(8),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    let program = b.build();

    let expanded = expand_program(&program, &RuntimeConfig::scale(NODES));
    let stats = expanded.analysis_cache;
    assert!(stats.enabled);
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 2),
        "volume-colliding launches must occupy distinct cache entries"
    );

    // Control: genuinely identical launches do share an entry.
    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let task = b.task_modeled("t");
    let identity = b.identity_functor();
    for _ in 0..2 {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: Domain::range(8),
            reqs: vec![RegionReq {
                partition: blocks,
                functor: identity,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    let program = b.build();
    let stats = expand_program(&program, &RuntimeConfig::scale(NODES)).analysis_cache;
    assert_eq!((stats.hits, stats.misses), (1, 1), "identical launches must share one entry");
}

/// An opaque-functor program (from the safety matrix): one identity
/// launch and one opaque reversed-write launch, forcing the dynamic
/// check path through the cache machinery.
/// Regression: launch signatures once hashed partition and functor *ids*
/// only, so fuzzer programs 106 and 910 — equal ids and launch domains,
/// different colorings — had one program fingerprint, and a tenant
/// running both reused the first program's verdicts for the second. In
/// one order that tripped the expansion's safety assertion ("declared op
/// 0 safe but tasks 0 and 2 interfere"), in the other it silently
/// changed the simulated schedule. Run warm, the second session must
/// equal a cold `execute`.
#[test]
fn warm_verdicts_never_cross_programs_with_equal_ids() {
    let cfg = RuntimeConfig::scale(NODES);
    for (first, second) in [(106, 910), (910, 106)] {
        let programs = [first, second].map(|seed| Rc::new(generate_program(seed)));
        let mut svc = Service::new(
            ServiceConfig {
                slots: 1,
                slot_nodes: NODES,
                queue_cap: 2,
                faults: None,
                replication_overrides: vec![],
            },
            policy_by_name("fifo"),
        );
        let sessions: Vec<SessionSpec> = programs
            .iter()
            .enumerate()
            .map(|(i, program)| SessionSpec {
                tenant: 0,
                priority: 0,
                arrival: SimTime::us(i as u64),
                program: program.clone(),
                config: cfg.clone(),
            })
            .collect();
        let out = svc.run(&sessions);
        assert_eq!(svc.warm_entries(0), 2, "{first} and {second} share a warm entry");
        let warm = &out.sessions[1].report;
        let cold = execute(&programs[1], &cfg);
        assert_eq!(
            (warm.makespan, warm.stage_json().to_string()),
            (cold.makespan, cold.stage_json().to_string()),
            "program {second} after {first}: warm session differs from cold execute"
        );
    }
}

fn opaque_program() -> Program {
    use index_launch::machine::SimTime;
    use index_launch::runtime::{CostSpec, IndexLaunchDesc, ProgramBuilder, RegionReq};

    let mut b = ProgramBuilder::new();
    let mut fsd = FieldSpaceDesc::new();
    let f = fsd.add("x", FieldKind::F64);
    let fs = b.forest.create_field_space(fsd);
    let region = b.forest.create_region(Domain::range(32), fs);
    let blocks = equal_partition_1d(&mut b.forest, region.space, 8);
    let domain = Domain::range(8);
    let task = b.task_modeled("reverse_write");
    for functor in [
        b.identity_functor(),
        b.functor(ProjExpr::opaque(|p| DomainPoint::new1(7 - p.x()))),
    ] {
        b.index_launch(IndexLaunchDesc {
            task,
            domain: domain.clone(),
            reqs: vec![RegionReq {
                partition: blocks,
                functor,
                privilege: Privilege::Write,
                fields: vec![f],
                tree: region.tree,
                field_space: fs,
            }],
            scalars: vec![],
            cost: CostSpec::Uniform(SimTime::us(10)),
            shard: None,
        });
    }
    b.build()
}
