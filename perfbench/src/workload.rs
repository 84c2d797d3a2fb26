//! The three benchmark workloads: how each is built from the seed, run
//! once through the public API, and checked for correctness.

use il_apps::service_mix::{skewed_mix, MixConfig};
use il_apps::{pagerank, stencil};
use il_machine::SimTime;
use il_runtime::{
    execute, policy_by_name, FaultConfig, Program, RunReport, RuntimeConfig, Service,
    ServiceConfig, ServiceReport, SessionSpec,
};
use std::rc::Rc;

/// Simulated nodes of the stencil workload (the paper's largest scale).
const SCALE_NODES: usize = 1024;
/// Launch-domain size of the pagerank workload.
const PAGERANK_PIECES: usize = 100_000;
/// Simulated nodes the pagerank workload runs on.
const PAGERANK_NODES: usize = 4;
/// Service shape: slots × nodes per slot.
const SERVICE_SLOTS: usize = 2;
/// Heavy (burst) and light (Poisson) sessions of the skewed mix.
const SERVICE_HEAVY: usize = 60;
const SERVICE_LIGHT: usize = 9_000;
/// Mean inter-arrival gap of the light sessions, in simulated µs.
const SERVICE_GAP_US: u64 = 900;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pagerank at 10⁵ pieces, 2 iterations, 4 nodes: expansion dominates.
    Pagerank,
    /// Fair-share service over the skewed mix: per-session costs dominate.
    Service,
    /// Stencil `weak(1024)` with a fault runtime armed to inject nothing.
    StencilArmed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Pagerank,
        Workload::Service,
        Workload::StencilArmed,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pagerank => "pagerank-1e5",
            Workload::Service => "service-skewed",
            Workload::StencilArmed => "stencil-armed-1024",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A fault configuration armed with `seed` that schedules nothing: no
/// drops, duplicates, crashes, slow nodes or corruption. Its
/// `ack_timeout` stays at the default on purpose, so spurious retries of
/// healthy tasks stay visible.
fn armed_idle_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        drop_per_mille: 0,
        dup_per_mille: 0,
        max_crashes: 0,
        slow_nodes: 0,
        corrupt_nodes: 0,
        corrupt_per_mille: 0,
        corrupt_payload_per_mille: 0,
        ..FaultConfig::from_seed(seed)
    }
}

/// A built workload: one program on one configuration, or a session
/// stream for the service.
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Built {
    /// A single program executed by [`execute`].
    Program {
        /// The program.
        program: Program,
        /// Its runtime configuration.
        config: RuntimeConfig,
    },
    /// A session stream executed by [`Service::run`].
    Sessions(Vec<SessionSpec>),
}

/// Build workload `w` from `seed`: the pagerank graph, the service mix
/// and the fault seed all derive from it.
pub fn build(w: Workload, seed: u64) -> Built {
    match w {
        Workload::Pagerank => {
            let cfg = pagerank::PagerankConfig {
                iterations: 2,
                seed,
                ..pagerank::PagerankConfig::scale(PAGERANK_PIECES)
            };
            Built::Program {
                program: pagerank::build(&cfg).program,
                config: RuntimeConfig::scale(PAGERANK_NODES),
            }
        }
        Workload::Service => {
            let cfg = MixConfig {
                mean_gap: SimTime::us(SERVICE_GAP_US),
                ..MixConfig::standard(seed)
            };
            Built::Sessions(skewed_mix(&cfg, SERVICE_HEAVY, SERVICE_LIGHT))
        }
        Workload::StencilArmed => Built::Program {
            program: stencil::build(&stencil::StencilConfig::weak(SCALE_NODES)).program,
            config: RuntimeConfig::scale(SCALE_NODES).with_fault_config(armed_idle_faults(seed)),
        },
    }
}

impl Built {
    /// Operations one run attempts: point tasks, or sessions.
    pub fn operations(&self) -> u64 {
        match self {
            Built::Program { program, .. } => program.total_tasks(),
            Built::Sessions(specs) => specs.len() as u64,
        }
    }

    /// Every program the workload runs, with its configuration, in
    /// arrival order.
    pub fn programs(&self) -> Vec<(&Program, &RuntimeConfig, u32)> {
        match self {
            Built::Program { program, config } => vec![(program, config, 0)],
            Built::Sessions(specs) => {
                let mut order: Vec<usize> = (0..specs.len()).collect();
                order.sort_by_key(|&i| (specs[i].arrival, i));
                order
                    .into_iter()
                    .map(|i| (&*specs[i].program, &specs[i].config, specs[i].tenant))
                    .collect()
            }
        }
    }

    /// Run the workload once through the public API.
    pub fn run(&self) -> Ran {
        match self {
            Built::Program { program, config } => Ran::Program(execute(program, config)),
            Built::Sessions(specs) => Ran::Service(service(specs.len()).run(specs)),
        }
    }
}

/// A fresh fair-share service wide enough for the mix, with a queue deep
/// enough that nothing is rejected.
fn service(sessions: usize) -> Service {
    Service::new(
        ServiceConfig {
            slots: SERVICE_SLOTS,
            slot_nodes: MixConfig::standard(0).slot_nodes,
            queue_cap: sessions.max(1),
            faults: None,
            replication_overrides: vec![],
        },
        policy_by_name("fair"),
    )
}

/// The report of one run.
#[allow(clippy::large_enum_variant)] // one or two values per process
pub enum Ran {
    /// From [`execute`].
    Program(RunReport),
    /// From [`Service::run`].
    Service(ServiceReport),
}

impl Ran {
    /// Every run report: the program's, or one per completed session.
    pub fn reports(&self) -> Vec<&RunReport> {
        match self {
            Ran::Program(r) => vec![r],
            Ran::Service(s) => s.sessions.iter().map(|x| &x.report).collect(),
        }
    }

    /// Simulated point tasks executed.
    pub fn tasks(&self) -> u64 {
        self.reports().iter().map(|r| r.tasks).sum()
    }

    /// Simulated makespan of the whole run.
    pub fn makespan(&self) -> SimTime {
        match self {
            Ran::Program(r) => r.makespan,
            Ran::Service(s) => s.makespan,
        }
    }

    /// Simulated arrival-to-completion latency of every session. A single
    /// program is one session arriving at time zero.
    pub fn latencies(&self) -> Vec<SimTime> {
        match self {
            Ran::Program(r) => vec![r.makespan],
            Ran::Service(s) => s.sessions.iter().map(|x| x.latency()).collect(),
        }
    }

    /// The byte-compared simulated observables: makespan plus every
    /// report's `stage_json()`.
    pub fn fingerprint(&self) -> String {
        let mut out = format!("makespan_ns={}", self.makespan().as_ns());
        for r in self.reports() {
            out.push('\n');
            out.push_str(&r.stage_json().to_string());
        }
        out
    }

    /// Check the run against its workload: every program executes all of
    /// its point tasks, and the service finishes every session and
    /// rejects none. Returns one message per failed check.
    pub fn check(&self, built: &Built) -> Vec<String> {
        let mut errors = Vec::new();
        match (self, built) {
            (Ran::Program(r), Built::Program { program, .. }) => {
                if r.tasks != program.total_tasks() {
                    errors.push(format!(
                        "executed {} tasks, program has {}",
                        r.tasks,
                        program.total_tasks()
                    ));
                }
            }
            (Ran::Service(s), Built::Sessions(specs)) => {
                if !s.rejected.is_empty() {
                    errors.push(format!("service rejected {} sessions", s.rejected.len()));
                }
                if s.sessions.len() != specs.len() {
                    errors.push(format!(
                        "service finished {} of {} sessions",
                        s.sessions.len(),
                        specs.len()
                    ));
                }
                for x in &s.sessions {
                    let want = specs[x.submit_idx].program.total_tasks();
                    if x.report.tasks != want {
                        errors.push(format!(
                            "session {} executed {} tasks, program has {want}",
                            x.submit_idx, x.report.tasks
                        ));
                    }
                }
            }
            _ => errors.push("run report does not match the workload kind".into()),
        }
        errors
    }
}

/// Compare computed values with a sequential reference.
fn compare(app: &str, got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{app}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| (a - b).abs() > tol || a.is_nan())
    {
        Some(i) => Err(format!(
            "{app}: value {i} is {}, reference {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// Execute the tiny validate-mode instance of `w`'s application with
/// real kernels and compare its data with the sequential reference.
pub fn validate_tiny(w: Workload, seed: u64) -> Result<(), String> {
    match w {
        Workload::Pagerank => {
            let cfg = pagerank::PagerankConfig {
                seed,
                ..pagerank::PagerankConfig::tiny(4)
            };
            let app = pagerank::build(&cfg);
            let rep = execute(&app.program, &RuntimeConfig::validate(2));
            let want = pagerank::reference(&cfg, &app.edges);
            compare(
                "pagerank",
                &pagerank::extract_ranks(&app, &rep),
                &want,
                1e-12,
            )
        }
        Workload::Service => validate_service(seed),
        Workload::StencilArmed => {
            let cfg = stencil::StencilConfig::tiny((2, 2));
            let app = stencil::build(&cfg);
            let config = RuntimeConfig::validate(4).with_fault_config(armed_idle_faults(seed));
            let rep = execute(&app.program, &config);
            compare(
                "stencil-armed",
                &stencil::extract_fout(&app, &rep),
                &stencil::reference(&cfg),
                1e-9,
            )
        }
    }
}

/// The service's validate-mode instance: tiny stencil and pagerank
/// sessions from two tenants through the same fair-share service shape,
/// each checked against its reference.
fn validate_service(seed: u64) -> Result<(), String> {
    let scfg = stencil::StencilConfig::tiny((2, 2));
    let sapp = stencil::build(&scfg);
    let pcfg = pagerank::PagerankConfig {
        seed,
        ..pagerank::PagerankConfig::tiny(4)
    };
    let papp = pagerank::build(&pcfg);
    // The apps keep the handles the extractors need; the sessions run
    // identical rebuilt programs (building is deterministic).
    let programs = [
        Rc::new(stencil::build(&scfg).program),
        Rc::new(pagerank::build(&pcfg).program),
    ];
    let config = RuntimeConfig::validate(MixConfig::standard(seed).slot_nodes);
    let specs: Vec<SessionSpec> = (0..4u32)
        .map(|i| SessionSpec {
            tenant: i % 2,
            priority: 0,
            arrival: SimTime::us(u64::from(i)),
            program: programs[(i % 2) as usize].clone(),
            config: config.clone(),
        })
        .collect();
    let out = service(specs.len()).run(&specs);
    let sref = stencil::reference(&scfg);
    let pref = pagerank::reference(&pcfg, &papp.edges);
    for x in &out.sessions {
        if x.tenant == 0 {
            compare(
                "service stencil",
                &stencil::extract_fout(&sapp, &x.report),
                &sref,
                1e-9,
            )?;
        } else {
            compare(
                "service pagerank",
                &pagerank::extract_ranks(&papp, &x.report),
                &pref,
                1e-12,
            )?;
        }
    }
    let ran = Ran::Service(out);
    match ran.check(&Built::Sessions(specs)).into_iter().next() {
        Some(e) => Err(format!("service validate: {e}")),
        None => Ok(()),
    }
}
