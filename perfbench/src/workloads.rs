//! The four workloads: their inputs (made from the seed), the untraced
//! end-to-end pipeline through the library's user-facing API, and the
//! traced pipeline through each layer's public functions.
//!
//! Why each workload exists, and which layers it bypasses, is written
//! down in `perfbench/README.md` and in `BENCHMARK.json`.

use crate::trace::Tracer;
use crate::{heap, Checks, Metric};
use fractanet::deadlock::{verify_deadlock_free_tables, ExactConfig};
use fractanet::graph::{LinkClass, LinkId, Network, NodeId};
use fractanet::lint::{Discipline, LintReport, Linter};
use fractanet::metrics::{bisection_estimate, max_link_contention_paths, HopStats};
use fractanet::route::{dor, fractal::fractal_routes, DeadMask, Paths, Routes};
use fractanet::servernet::{certify_tables, heal_mask, table_healing_repairer};
use fractanet::sim::{
    CreditStats, DstPattern, Engine, FaultEvent, FaultKind, MetricsConfig, RetryPolicy, SimConfig,
    SimResult, Workload as Traffic,
};
use fractanet::topo::{Fractahedron, Mesh2D, Topology, Variant};
use fractanet::{System, TopoSpec};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every end-to-end engine run: the serial oracle.
pub const THREADS: usize = 1;
/// Worker threads of the sharded-parity probe in the traced run.
pub const PAR_THREADS: usize = 2;

const MESH_SPARSE_SPEC: &str = "mesh:40x40";
/// Offered load, flits/node/cycle: about half of what this mesh
/// saturates at with 8-flit packets.
const MESH_SPARSE_LOAD: f64 = 0.01;
const MESH_SPARSE_GENERATE: u64 = 10_000;

const FRACTA_SATURATED_SPEC: &str = "fat-fractahedron:3";
/// Several times what this fabric accepts.
const FRACTA_SATURATED_LOAD: f64 = 1.0;
const FRACTA_SATURATED_CYCLES: u64 = 4_000;

const ANALYZE_MESH_SPEC: &str = "mesh:16x16";
const ANALYZE_MESH_K: usize = 16;
const ANALYZE_FRACTA_SPEC: &str = "fat-fractahedron:3";
/// The short clean-run check on each analyzed system.
const ANALYZE_SIM_LOAD: f64 = 0.01;
const ANALYZE_SIM_GENERATE: u64 = 20_000;

const CERTIFY_HEAL_SPEC: &str = "fat-fractahedron:2";
/// Well below what this fabric saturates at.
const CERTIFY_HEAL_LOAD: f64 = 0.05;
const CERTIFY_HEAL_GENERATE: u64 = 100_000;
/// Short enough that slow worms race their speculative copies, so the
/// duplicate-suppression path does work.
const CERTIFY_HEAL_ACK_TIMEOUT: u64 = 32;

const PACKET_FLITS: u32 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MeshSparse,
    FractaSaturated,
    AnalyzeScale,
    CertifyHeal,
}

/// Every workload, in the order the traced layer run visits them.
pub const ALL: [Workload; 4] = [
    Workload::MeshSparse,
    Workload::FractaSaturated,
    Workload::AnalyzeScale,
    Workload::CertifyHeal,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshSparse => "mesh-sparse",
            Workload::FractaSaturated => "fracta-saturated",
            Workload::AnalyzeScale => "analyze-scale",
            Workload::CertifyHeal => "certify-heal",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Spec-to-ready builds timed per repetition on top of the
    /// repetition's own. One build of a short set-up is too brief to
    /// time steadily, so those are timed many times and reported as a
    /// median.
    pub fn extra_setups(self) -> usize {
        match self {
            Workload::MeshSparse => 0,
            Workload::FractaSaturated => 4,
            Workload::AnalyzeScale => 2,
            Workload::CertifyHeal => 8,
        }
    }
}

/// One engine run and what it ran on.
pub struct SimRun {
    pub res: SimResult,
    pub run_s: f64,
    pub nodes: usize,
    pub channels: usize,
}

/// One untraced repetition of a workload, summed over its engine runs.
/// Keeps no `SimResult`, so a run's memory does not grow with the
/// number of repetitions.
pub struct Rep {
    /// Spec string to ready-to-run engine (to built systems on
    /// analyze-scale).
    pub setup_s: f64,
    pub wall_s: f64,
    /// Host time in `Engine::run`.
    pub run_s: f64,
    pub cycles: u64,
    /// Delivered flits per node per cycle.
    pub accepted: f64,
    /// Mean packet latency in cycles.
    pub latency: f64,
    pub delivered_ratio: f64,
    /// Everything about the simulated outcome that must repeat exactly
    /// at a fixed seed.
    pub fingerprint: String,
}

impl Rep {
    fn new(setup_s: f64, wall_s: f64, sims: &[SimRun]) -> Self {
        let sum = |f: &dyn Fn(&SimRun) -> f64| sims.iter().map(f).sum::<f64>();
        let node_cycles = sum(&|s| s.nodes as f64 * s.res.cycles as f64);
        let delivered = sum(&|s| s.res.delivered as f64);
        let fingerprint = sims
            .iter()
            .map(|s| {
                let r = &s.res;
                format!(
                    "{:?} {:x} {} {} {} {};",
                    outcome(r),
                    r.throughput.to_bits(),
                    r.recovery.retries,
                    r.recovery.nacks,
                    r.recovery.duplicates_suppressed,
                    r.recovery.abandoned.len(),
                )
            })
            .collect();
        Rep {
            setup_s,
            wall_s,
            run_s: sum(&|s| s.run_s),
            cycles: sims.iter().map(|s| s.res.cycles).sum(),
            accepted: sum(&|s| s.res.throughput * s.nodes as f64 * s.res.cycles as f64)
                / node_cycles,
            latency: sum(&|s| s.res.avg_latency * s.res.delivered as f64) / delivered,
            delivered_ratio: delivered / sum(&|s| s.res.generated as f64),
            fingerprint,
        }
    }
}

fn system(spec: &str) -> System {
    spec.parse::<TopoSpec>()
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .build()
}

/// A 64-bit mixer (splitmix64): derives independent input streams
/// from the benchmark seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(load: f64, until_cycle: u64) -> Traffic {
    Traffic::Bernoulli {
        injection_rate: load,
        pattern: DstPattern::Uniform,
        until_cycle,
    }
}

/// Open-loop traffic run until every packet has drained.
fn drain_config(seed: u64, generate: u64) -> SimConfig {
    SimConfig::default()
        .with_packet_flits(PACKET_FLITS)
        .with_max_cycles(generate * 4)
        .with_seed(seed)
        .with_threads(THREADS)
}

fn mesh_sparse_inputs(seed: u64) -> (SimConfig, Traffic) {
    (
        drain_config(seed, MESH_SPARSE_GENERATE),
        uniform(MESH_SPARSE_LOAD, MESH_SPARSE_GENERATE),
    )
}

fn fracta_saturated_inputs(seed: u64) -> (SimConfig, Traffic) {
    let cfg = SimConfig::default()
        .with_packet_flits(PACKET_FLITS)
        .with_buffer_depth(4)
        .with_credit_delay(1)
        .with_max_cycles(FRACTA_SATURATED_CYCLES)
        .with_seed(seed)
        .with_threads(THREADS)
        .with_metrics(MetricsConfig::sampling(500).with_topology(FRACTA_SATURATED_SPEC));
    (cfg, uniform(FRACTA_SATURATED_LOAD, FRACTA_SATURATED_CYCLES))
}

fn analyze_sim_inputs(seed: u64, which: u64) -> (SimConfig, Traffic) {
    (
        drain_config(mix(seed ^ which), ANALYZE_SIM_GENERATE),
        uniform(ANALYZE_SIM_LOAD, ANALYZE_SIM_GENERATE),
    )
}

/// Seeded fault schedule: permanent kills of one local and one
/// level-crossing router link, a transient flaky local link and a
/// transient corrupting level-crossing link, all distinct; retry and
/// speculative ACK retransmit on. The seed picks the links; the cycles
/// are fixed. Links of one class are alike under the fractahedron's
/// symmetry, so every seed degrades the fabric by about as much.
fn certify_heal_inputs(seed: u64, net: &Network) -> (SimConfig, Traffic) {
    let class_links = |local: bool| -> Vec<LinkId> {
        net.links()
            .filter(|&l| {
                let info = net.link(l);
                net.is_router(info.a.0)
                    && net.is_router(info.b.0)
                    && (info.class == LinkClass::Local) == local
            })
            .collect()
    };
    let (mut local, mut crossing) = (class_links(true), class_links(false));
    let mut state = mix(seed);
    let mut pick = |links: &mut Vec<LinkId>| {
        state = mix(state);
        links.swap_remove((state % links.len() as u64) as usize)
    };
    let g = CERTIFY_HEAL_GENERATE;
    let faults = vec![
        FaultEvent::kill_link(pick(&mut local), g / 5),
        FaultEvent::kill_link(pick(&mut crossing), 2 * g / 5),
        FaultEvent::flaky_link(pick(&mut local), 50, g / 10).transient(3 * g / 4),
        FaultEvent::corrupt_link(pick(&mut crossing), 50, g / 10).transient(3 * g / 4),
    ];
    let cfg = drain_config(seed, g)
        .with_faults(faults)
        .with_retry(RetryPolicy {
            ack_timeout: CERTIFY_HEAL_ACK_TIMEOUT,
            jitter_seed: mix(seed ^ 0x1A77),
            ..RetryPolicy::default()
        })
        .with_ack_retransmit(true);
    (cfg, uniform(CERTIFY_HEAL_LOAD, g))
}

/// One table install the healing repairer made mid-run, kept so it can
/// be re-certified after the run, outside the timed interval.
struct Install {
    dead_links: Vec<LinkId>,
    dead_routers: Vec<NodeId>,
    tables: Arc<Routes>,
}

/// The engine `System::simulate_healing` builds, with the repairer's
/// installs logged for the certification check.
fn healing_engine<'a>(
    net: &'a Network,
    ends: &'a [NodeId],
    routes: Arc<Routes>,
    cfg: SimConfig,
    log: &'a RefCell<Vec<Install>>,
) -> Engine<'a> {
    let mut repair = table_healing_repairer(net, ends);
    Engine::with_tables(net, ends, routes, cfg)
        .with_table_repairer(move |dead_links, dead_routers| {
            let tables = repair(dead_links, dead_routers)?;
            log.borrow_mut().push(Install {
                dead_links: dead_links.to_vec(),
                dead_routers: dead_routers.to_vec(),
                tables: Arc::clone(&tables),
            });
            Some(tables)
        })
        .with_lint_on_install(ends)
}

fn timed_run(eng: Engine<'_>, traffic: Traffic, net: &Network, nodes: usize) -> SimRun {
    let t0 = Instant::now();
    let res = eng.run(traffic);
    SimRun {
        run_s: t0.elapsed().as_secs_f64(),
        res,
        nodes,
        channels: net.channel_count(),
    }
}

/// One spec-to-ready-to-run build, timed and dropped.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    match w {
        Workload::MeshSparse | Workload::FractaSaturated => {
            let (spec, cfg) = match w {
                Workload::MeshSparse => (MESH_SPARSE_SPEC, mesh_sparse_inputs(seed).0),
                _ => (FRACTA_SATURATED_SPEC, fracta_saturated_inputs(seed).0),
            };
            let sys = system(spec);
            black_box(Engine::with_tables(
                sys.net(),
                sys.end_nodes(),
                sys.shared_routes(),
                cfg,
            ));
        }
        Workload::AnalyzeScale => {
            black_box((system(ANALYZE_MESH_SPEC), system(ANALYZE_FRACTA_SPEC)));
        }
        Workload::CertifyHeal => {
            let sys = system(CERTIFY_HEAL_SPEC);
            let (cfg, _) = certify_heal_inputs(seed, sys.net());
            let log = RefCell::new(Vec::new());
            black_box(healing_engine(
                sys.net(),
                sys.end_nodes(),
                sys.shared_routes(),
                cfg,
                &log,
            ));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// One untraced repetition through the user-facing API. The wall clock
/// stops before the output checks that cost more than a comparison.
pub fn run(w: Workload, seed: u64, checks: &mut Checks) -> Rep {
    let t0 = Instant::now();
    let wall = || t0.elapsed().as_secs_f64();
    let setup_s;
    let (wall_s, sims) = match w {
        Workload::MeshSparse => {
            let (cfg, traffic) = mesh_sparse_inputs(seed);
            let sys = system(MESH_SPARSE_SPEC);
            let eng = Engine::with_tables(sys.net(), sys.end_nodes(), sys.shared_routes(), cfg);
            setup_s = wall();
            let run = timed_run(eng, traffic, sys.net(), sys.end_nodes().len());
            let wall_s = wall();
            check_clean(checks, "mesh-sparse", &run.res);
            (wall_s, vec![run])
        }
        Workload::FractaSaturated => {
            let (cfg, traffic) = fracta_saturated_inputs(seed);
            let sys = system(FRACTA_SATURATED_SPEC);
            let eng = Engine::with_tables(sys.net(), sys.end_nodes(), sys.shared_routes(), cfg);
            setup_s = wall();
            let run = timed_run(eng, traffic, sys.net(), sys.end_nodes().len());
            let prom = render_prom(&run.res);
            let wall_s = wall();
            check_fracta_saturated(checks, &run.res, &prom);
            (wall_s, vec![run])
        }
        Workload::AnalyzeScale => {
            let mesh = system(ANALYZE_MESH_SPEC);
            let fracta = system(ANALYZE_FRACTA_SPEC);
            setup_s = wall();
            for (spec, sys, k) in [
                (ANALYZE_MESH_SPEC, &mesh, Some(ANALYZE_MESH_K)),
                (ANALYZE_FRACTA_SPEC, &fracta, None),
            ] {
                let a = sys.analyze();
                let lint = sys.lint();
                check_analysis(checks, spec, a.deadlock_free, a.worst_contention, &lint, k);
            }
            let sims: Vec<SimRun> = [&mesh, &fracta]
                .into_iter()
                .zip(0..)
                .map(|(sys, which)| {
                    let (cfg, traffic) = analyze_sim_inputs(seed, which);
                    let eng =
                        Engine::with_tables(sys.net(), sys.end_nodes(), sys.shared_routes(), cfg);
                    timed_run(eng, traffic, sys.net(), sys.end_nodes().len())
                })
                .collect();
            let wall_s = wall();
            for run in &sims {
                check_clean(checks, "analyze-scale sim", &run.res);
            }
            (wall_s, sims)
        }
        Workload::CertifyHeal => {
            let sys = system(CERTIFY_HEAL_SPEC);
            let (net, ends) = (sys.net(), sys.end_nodes());
            let (cfg, traffic) = certify_heal_inputs(seed, net);
            let log = RefCell::new(Vec::new());
            let eng = healing_engine(net, ends, sys.shared_routes(), cfg, &log);
            setup_s = wall();
            let a = sys.analyze();
            let lint = sys.lint();
            let exact = sys.lint_exact();
            let run = timed_run(eng, traffic, net, ends.len());
            let wall_s = wall();
            check_analysis(
                checks,
                CERTIFY_HEAL_SPEC,
                a.deadlock_free,
                a.worst_contention,
                &lint,
                None,
            );
            checks.check("certify-heal: exact certificate clean", exact.is_clean());
            check_certify_heal(checks, net, ends, &run.res, &log.borrow());
            (wall_s, vec![run])
        }
    };
    Rep::new(setup_s, wall_s, &sims)
}

fn render_prom(res: &SimResult) -> String {
    fractanet_telemetry::to_prometheus(res.metrics.as_ref().expect("metrics were on"))
}

/// No deadlock, no duplicate delivery, everything generated delivered.
fn check_clean(checks: &mut Checks, what: &str, res: &SimResult) {
    checks.check(&format!("{what}: no deadlock"), res.deadlock.is_none());
    checks.check(
        &format!("{what}: no duplicate delivery"),
        res.delivered <= res.generated,
    );
    checks.check(
        &format!("{what}: delivers all it generates"),
        res.is_clean(),
    );
}

fn check_fracta_saturated(checks: &mut Checks, res: &SimResult, prom: &str) {
    checks.check("fracta-saturated: no deadlock", res.deadlock.is_none());
    checks.check(
        "fracta-saturated: no duplicate delivery",
        res.delivered <= res.generated,
    );
    let rep = res.metrics.as_ref().expect("metrics were on");
    let t = &rep.totals;
    checks.check(
        "fracta-saturated: metrics totals equal the SimResult counts",
        rep.cycles == res.cycles
            && t.generated == res.generated as u64
            && t.delivered == res.delivered as u64
            && t.retries == res.recovery.retries
            && t.nacks == res.recovery.nacks
            && t.dups_suppressed == res.recovery.duplicates_suppressed
            && t.credit_stalls == res.credits.stalls,
    );
    checks.check(
        "fracta-saturated: Prometheus exposition rendered",
        prom.contains("fractanet_"),
    );
}

/// The analysis verdicts: deadlock-free, lint clean, and on a k×k mesh
/// the §3.1 closed form (2k−2):1 for worst-case contention.
fn check_analysis(
    checks: &mut Checks,
    spec: &str,
    deadlock_free: bool,
    worst: usize,
    lint: &LintReport,
    mesh_k: Option<usize>,
) {
    checks.check(&format!("{spec}: deadlock-free"), deadlock_free);
    checks.check(&format!("{spec}: lint clean"), lint.is_clean());
    if let Some(k) = mesh_k {
        checks.check(
            &format!("{spec}: worst contention {worst} is (2k-2) = {}", 2 * k - 2),
            worst == 2 * k - 2,
        );
    }
}

fn check_certify_heal(
    checks: &mut Checks,
    net: &Network,
    ends: &[NodeId],
    res: &SimResult,
    log: &[Install],
) {
    checks.check("certify-heal: no deadlock", res.deadlock.is_none());
    checks.check("certify-heal: is_recovered", res.is_recovered());
    checks.check(
        "certify-heal: recovery observed",
        res.recovery.time_to_recover.is_some(),
    );
    checks.check(
        "certify-heal: every install logged",
        log.len() as u64 == res.recovery.repairs_installed && !log.is_empty(),
    );
    for i in log {
        let mask = DeadMask::from_dead(net, &i.dead_links, &i.dead_routers);
        checks.check(
            "certify-heal: heal install certified",
            certify_tables(net, ends, &mask, &i.tables).is_ok(),
        );
    }
}

/// The permanent kills of a schedule as cumulative dead masks: after
/// the first kill, after the first two, and so on.
fn cumulative_masks(net: &Network, faults: &[FaultEvent]) -> Vec<DeadMask> {
    let mut kills: Vec<&FaultEvent> = faults.iter().filter(|f| f.is_permanent()).collect();
    kills.sort_by_key(|f| f.at_cycle);
    let mut mask = DeadMask::new(net);
    kills
        .into_iter()
        .map(|f| {
            match f.kind {
                FaultKind::Link(l) => mask.kill_link(l),
                FaultKind::Router(r) => mask.kill_router(r),
                _ => unreachable!("only link and router kills are permanent here"),
            }
            mask.clone()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The traced layer run.

/// A topology built directly, as `TopoSpec::build` builds it.
enum Topo {
    Mesh(Mesh2D),
    Fracta(Fractahedron),
}

impl Topo {
    fn topo(&self) -> &dyn Topology {
        match self {
            Topo::Mesh(m) => m,
            Topo::Fracta(f) => f,
        }
    }

    fn discipline(&self) -> Discipline {
        match self {
            Topo::Mesh(m) => Discipline::mesh_xy(m),
            Topo::Fracta(f) => Discipline::fractahedral(f),
        }
    }
}

/// Spec parse, then the topology and its canonical tables in their own
/// spans: the calls `System::mesh` and `System::fat_fractahedron`
/// make.
fn traced_build(tr: &mut Tracer, spec: &str) -> (Topo, Arc<Routes>) {
    let spec: TopoSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    let topo = tr.span("topo.build", || match spec {
        TopoSpec::Mesh { cols, rows } => {
            Topo::Mesh(Mesh2D::new(cols, rows, 2, 6).expect("valid mesh"))
        }
        TopoSpec::FatFractahedron { levels } => Topo::Fracta(
            Fractahedron::new(levels, Variant::Fat, false).expect("valid configuration"),
        ),
        _ => unreachable!("the benchmark builds meshes and fat fractahedra only"),
    });
    let routes = tr.span("route.tables", || {
        Arc::new(match &topo {
            Topo::Mesh(m) => dor::mesh_xy_routes(m),
            Topo::Fracta(f) => fractal_routes(f),
        })
    });
    (topo, routes)
}

/// What `System::analyze` and `System::lint` (and, with `exact`,
/// `System::lint_exact`) compute, one layer call per span. Returns the
/// contention kernel's peak heap in MB.
fn traced_analysis(
    tr: &mut Tracer,
    checks: &mut Checks,
    spec: &str,
    topo: &Topo,
    routes: &Routes,
    mesh_k: Option<usize>,
    exact: bool,
) -> f64 {
    let t = topo.topo();
    let (net, ends) = (t.net(), t.end_nodes());
    let hops = tr.span("metrics.hops", || {
        HopStats::routed_tables(net, ends, routes)
    });
    checks.check(&format!("{spec}: hop statistics"), hops.is_some());
    let (cont, heap_mb) = tr.span("metrics.contention", || {
        heap::peak_above_start(|| max_link_contention_paths(net, Paths::tables(net, ends, routes)))
    });
    black_box(tr.span("metrics.bisection", || bisection_estimate(net, ends, 4)));
    let deadlock_free = tr.span("deadlock.verify", || {
        verify_deadlock_free_tables(net, ends, routes).is_ok()
    });
    let linter = || {
        Linter::new(net, ends)
            .with_subject(t.name())
            .with_discipline(topo.discipline())
    };
    let lint = tr.span("lint.check", || linter().check_tables(routes));
    check_analysis(checks, spec, deadlock_free, cont.worst, &lint, mesh_k);
    if exact {
        let report = tr.span("lint.exact", || {
            linter()
                .with_exact(ExactConfig::default())
                .check_tables(routes)
        });
        checks.check(
            &format!("{spec}: exact certificate clean"),
            report.is_clean(),
        );
    }
    heap_mb
}

/// What the parity probes compare: generated, delivered, cycles, mean
/// latency (bit for bit) and the credit ledger.
fn outcome(r: &SimResult) -> (usize, usize, u64, u64, CreditStats) {
    (
        r.generated,
        r.delivered,
        r.cycles,
        r.avg_latency.to_bits(),
        r.credits,
    )
}

/// The per-layer metrics of one workload, named `<workload>.<name>`.
struct Report<'a> {
    w: Workload,
    out: &'a mut Vec<Metric>,
}

impl Report<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let name = format!("{}.{name}", self.w.name());
        self.out.push(Metric::new(name, value, unit));
    }
}

/// The per-cycle engine counters of one traced run.
fn engine_metrics(rep: &mut Report, run: &SimRun) {
    let r = &run.res;
    let hops: u64 = r.channel_busy.iter().sum();
    rep.put("sim.run_s", run.run_s, "s");
    rep.put("sim.ns_per_cycle", run.run_s * 1e9 / r.cycles as f64, "ns");
    rep.put("sim.ns_per_flit_hop", run.run_s * 1e9 / hops as f64, "ns");
    rep.put("sim.flit_hops", hops as f64, "count");
    rep.put(
        "sim.channel_util",
        hops as f64 / (run.channels as f64 * r.cycles as f64),
        "ratio",
    );
    rep.put("sim.packets_generated", r.generated as f64, "count");
}

/// Set-up layer times of a traced pipeline whose set-up span sits at
/// `setup`: topology build, tables, engine build.
fn setup_metrics(rep: &mut Report, tr: &Tracer, setup: &str) {
    let secs = |s: &str| tr.self_secs(&format!("{setup}/{s}"));
    rep.put("topo.build_s", secs("topo.build"), "s");
    rep.put("route.tables_s", secs("route.tables"), "s");
    rep.put("sim.engine_build_s", secs("sim.engine_build"), "s");
}

/// Runs `w`'s traced pipeline under a root span named after it (probes
/// that the untraced pipeline does not run sit under `<name>.probes`)
/// and appends its layer metrics to `out`.
pub fn trace(w: Workload, seed: u64, tr: &mut Tracer, checks: &mut Checks, out: &mut Vec<Metric>) {
    let name = w.name();
    let mut rep = Report { w, out };
    let root = tr.enter(name);
    match w {
        Workload::MeshSparse => {
            let (cfg, traffic) = mesh_sparse_inputs(seed);
            let setup = tr.enter("setup");
            let (topo, routes) = traced_build(tr, MESH_SPARSE_SPEC);
            let t = topo.topo();
            let eng = tr.span("sim.engine_build", || {
                Engine::with_tables(t.net(), t.end_nodes(), Arc::clone(&routes), cfg)
            });
            tr.exit(setup);
            let (run, heap_mb) = tr.span("sim.run", || {
                heap::peak_above_start(|| timed_run(eng, traffic, t.net(), t.end_nodes().len()))
            });
            tr.exit(root);
            check_clean(checks, "mesh-sparse", &run.res);

            setup_metrics(&mut rep, tr, &format!("{name}/setup"));
            rep.put(
                "route.resident_mb",
                routes.resident_bytes() as f64 / 1e6,
                "MB",
            );
            engine_metrics(&mut rep, &run);
            rep.put("sim.run_heap_mb", heap_mb, "MB");
        }
        Workload::FractaSaturated => {
            let (cfg, traffic) = fracta_saturated_inputs(seed);
            let setup = tr.enter("setup");
            let (topo, routes) = traced_build(tr, FRACTA_SATURATED_SPEC);
            let t = topo.topo();
            let (net, ends) = (t.net(), t.end_nodes());
            let engine = |cfg: SimConfig| Engine::with_tables(net, ends, Arc::clone(&routes), cfg);
            let eng = tr.span("sim.engine_build", || engine(cfg.clone()));
            tr.exit(setup);
            let run = tr.span("sim.run", || {
                timed_run(eng, traffic.clone(), net, ends.len())
            });
            let prom = tr.span("telemetry.prom_render", || render_prom(&run.res));
            tr.exit(root);
            check_fracta_saturated(checks, &run.res, &prom);

            let probes = tr.enter("fracta-saturated.probes");
            let par = tr.span("sim.par.run", || {
                let eng = engine(cfg.clone().with_threads(PAR_THREADS));
                timed_run(eng, traffic.clone(), net, ends.len())
            });
            let off = tr.span("sim.metrics_off.run", || {
                let eng = engine(cfg.clone().with_metrics(MetricsConfig::off()));
                timed_run(eng, traffic.clone(), net, ends.len())
            });
            tr.exit(probes);
            // The speed-up is only reported for a run proven to do the
            // same work.
            checks.check(
                "fracta-saturated: threads-2 run bit-identical to threads-1",
                outcome(&par.res) == outcome(&run.res),
            );
            checks.check(
                "fracta-saturated: metrics-off run bit-identical to metrics-on",
                outcome(&off.res) == outcome(&run.res),
            );

            let r = &run.res;
            setup_metrics(&mut rep, tr, &format!("{name}/setup"));
            engine_metrics(&mut rep, &run);
            rep.put(
                "sim.backlog_packets",
                (r.generated - r.delivered) as f64,
                "count",
            );
            rep.put(
                "sim.credit_stall_ratio",
                r.credits.stalls as f64 / r.credits.consumed as f64,
                "ratio",
            );
            rep.put(
                "sim.credits_held",
                (r.credits.consumed - r.credits.returned) as f64,
                "count",
            );
            rep.put("sim.par.run_s", par.run_s, "s");
            rep.put("sim.par.speedup", run.run_s / par.run_s, "ratio");
            rep.put("telemetry.metrics_overhead", run.run_s / off.run_s, "ratio");
            let prom_s = tr.self_secs(&format!("{name}/telemetry.prom_render"));
            rep.put("telemetry.prom_render_s", prom_s, "s");
        }
        Workload::AnalyzeScale => {
            let systems = [
                ("mesh", ANALYZE_MESH_SPEC, Some(ANALYZE_MESH_K)),
                ("fracta", ANALYZE_FRACTA_SPEC, None),
            ];
            let mut built = Vec::new();
            for (label, spec, k) in systems {
                let id = tr.enter(label);
                let (topo, routes) = traced_build(tr, spec);
                let heap_mb = traced_analysis(tr, checks, spec, &topo, &routes, k, false);
                tr.exit(id);
                built.push((topo, routes, heap_mb));
            }
            let mut run_s = 0.0;
            for ((topo, routes, _), which) in built.iter().zip(0..) {
                let t = topo.topo();
                let (cfg, traffic) = analyze_sim_inputs(seed, which);
                let eng = Engine::with_tables(t.net(), t.end_nodes(), Arc::clone(routes), cfg);
                let run = tr.span("sim.run", || {
                    timed_run(eng, traffic, t.net(), t.end_nodes().len())
                });
                check_clean(checks, "analyze-scale sim", &run.res);
                run_s += run.run_s;
            }
            tr.exit(root);

            for ((label, _, _), (topo, routes, heap_mb)) in systems.iter().zip(&built) {
                let path = |s: &str| format!("{name}/{label}/{s}");
                let secs = |s: &str| tr.self_secs(&path(s));
                let m = |s: &str| format!("{label}.{s}");
                let n = topo.topo().end_nodes().len() as f64;
                let contention_s = secs("metrics.contention");
                rep.put(&m("topo.build_s"), secs("topo.build"), "s");
                rep.put(&m("route.tables_s"), secs("route.tables"), "s");
                rep.put(
                    &m("route.resident_mb"),
                    routes.resident_bytes() as f64 / 1e6,
                    "MB",
                );
                rep.put(&m("metrics.hops_s"), secs("metrics.hops"), "s");
                rep.put(&m("metrics.contention_s"), contention_s, "s");
                rep.put(&m("metrics.bisection_s"), secs("metrics.bisection"), "s");
                rep.put(
                    &m("metrics.pairs_per_s"),
                    n * (n - 1.0) / contention_s,
                    "1/s",
                );
                rep.put(&m("metrics.contention_heap_mb"), *heap_mb, "MB");
                rep.put(&m("deadlock.verify_s"), secs("deadlock.verify"), "s");
                rep.put(&m("lint.check_s"), secs("lint.check"), "s");
            }
            rep.put("sim.run_s", run_s, "s");
        }
        Workload::CertifyHeal => {
            let setup = tr.enter("setup");
            let (topo, routes) = traced_build(tr, CERTIFY_HEAL_SPEC);
            let t = topo.topo();
            let (net, ends) = (t.net(), t.end_nodes());
            let (cfg, traffic) = certify_heal_inputs(seed, net);
            let faults = cfg.faults.clone();
            let log = RefCell::new(Vec::new());
            let eng = tr.span("sim.engine_build", || {
                healing_engine(net, ends, Arc::clone(&routes), cfg, &log)
            });
            tr.exit(setup);
            traced_analysis(tr, checks, CERTIFY_HEAL_SPEC, &topo, &routes, None, true);
            let run = tr.span("sim.run", || timed_run(eng, traffic, net, ends.len()));
            tr.exit(root);
            check_certify_heal(checks, net, ends, &run.res, &log.borrow());

            let probes = tr.enter("certify-heal.probes");
            let masks = cumulative_masks(net, &faults);
            let heals: Vec<bool> = masks
                .iter()
                .map(|mask| tr.span("servernet.heal", || heal_mask(net, ends, mask).is_ok()))
                .collect();
            tr.exit(probes);
            for ok in heals {
                checks.check("certify-heal: heal_mask certifies the cumulative mask", ok);
            }

            let r = &run.res;
            let rec = &r.recovery;
            let secs = |s: &str| tr.self_secs(&format!("{name}/{s}"));
            setup_metrics(&mut rep, tr, &format!("{name}/setup"));
            rep.put("metrics.hops_s", secs("metrics.hops"), "s");
            rep.put("metrics.contention_s", secs("metrics.contention"), "s");
            rep.put("metrics.bisection_s", secs("metrics.bisection"), "s");
            rep.put("deadlock.verify_s", secs("deadlock.verify"), "s");
            rep.put("lint.check_s", secs("lint.check"), "s");
            rep.put("lint.exact_s", secs("lint.exact"), "s");
            let heal_s = tr.self_secs("certify-heal.probes/servernet.heal");
            rep.put("servernet.heal_s", heal_s, "s");
            rep.put(
                "servernet.repairs_installed",
                rec.repairs_installed as f64,
                "count",
            );
            rep.put("sim.run_s", run.run_s, "s");
            rep.put("sim.ns_per_cycle", run.run_s * 1e9 / r.cycles as f64, "ns");
            rep.put("sim.fault.retries", rec.retries as f64, "count");
            rep.put(
                "sim.fault.goodput_ratio",
                r.delivered as f64 / (r.delivered as f64 + rec.retries as f64),
                "ratio",
            );
            rep.put("sim.fault.nacks", rec.nacks as f64, "count");
            rep.put("sim.fault.dropped_worms", rec.dropped_worms as f64, "count");
            rep.put(
                "sim.fault.dup_suppressed",
                rec.duplicates_suppressed as f64,
                "count",
            );
            rep.put("sim.fault.abandoned", rec.abandoned.len() as f64, "count");
            let ttr = rec.time_to_recover.unwrap_or(0);
            rep.put("sim.fault.time_to_recover_cy", ttr as f64, "cy");
        }
    }
    rep.put("bench.self_s", tr.self_secs(name), "s");
}
