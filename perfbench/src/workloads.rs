//! The four benchmark workloads, each runnable untraced (the timed path,
//! which calls the simulator exactly as its users do) or traced (the same
//! work split into spans around calls into each layer).
//!
//! Why each workload exists is written down in `perfbench/README.md`.

use crate::trace::{Layer, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use upp_baselines::composable::Composable;
use upp_baselines::remote::{RemoteControl, RemoteControlConfig};
use upp_bench::experiments::{cfg, rates_1vc, rates_4vc, windows, SEED};
use upp_bench::sweep::{set_default_jobs, SweepEngine};
use upp_core::{Upp, UppConfig, UppStats};
use upp_noc::ni::ConsumePolicy;
use upp_noc::routing::ChipletRouting;
use upp_noc::sim::{RunOutcome, System};
use upp_noc::topology::ChipletSystemSpec;
use upp_noc::{Network, Scheme};
use upp_workloads::coherence::{run_benchmark, CoherenceEngine};
use upp_workloads::profiles::{benchmark, BenchmarkProfile};
use upp_workloads::runner::{
    build_system, presaturation_latency, run_point, BuiltSystem, SchemeKind, SweepPoint,
    SweepWindows,
};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

/// Sweep workers for `fig7_quick` (what `repro --jobs 2` would use).
pub const FIG7_WORKERS: usize = 2;

/// Cycle budget for draining an open-loop run once injection stops.
const DRAIN_CAP: u64 = 200_000;

/// Cycle cap for a coherence run (Fig. 8's cap).
const COHERENCE_CAP: u64 = 20_000_000;

/// NI consumption latency of `grid16_hotspot` (`fig_scaling`'s recipe).
const GRID16_CONSUME_LATENCY: u64 = 120;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Baseline system, UPP, 1 VC, uniform random at 0.15 flits/node/cycle.
    UppSaturated,
    /// Baseline system, UPP, 4 VCs, MESI coherence on `blackscholes`.
    CoherenceLight,
    /// 16x16-chiplet grid, composable routing, slow-consumption hotspot.
    Grid16Hotspot,
    /// `repro fig7 --quick` on two sweep workers.
    Fig7Quick,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `coherence_light`
    /// (see `perfbench/README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::UppSaturated,
        Workload::CoherenceLight,
        Workload::Grid16Hotspot,
        Workload::Fig7Quick,
    ];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UppSaturated => "upp_saturated",
            Workload::CoherenceLight => "coherence_light",
            Workload::Grid16Hotspot => "grid16_hotspot",
            Workload::Fig7Quick => "fig7_quick",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The work one operation does. `smoke` shrinks it for tests.
    pub fn plan(self, smoke: bool) -> Plan {
        match self {
            Workload::UppSaturated => Plan::Synthetic(SynthPlan {
                spec: ChipletSystemSpec::baseline(),
                vcs: 1,
                kind: SchemeKind::Upp(UppConfig::default()),
                consume: ConsumePolicy::Immediate { latency: 1 },
                pattern: Pattern::UniformRandom,
                rate: 0.15,
                inject_cycles: if smoke { 1_500 } else { 20_000 },
                runs: 1,
            }),
            Workload::CoherenceLight => {
                let mut profile = benchmark("blackscholes").expect("built-in profile");
                if smoke {
                    profile.transactions = 20;
                }
                Plan::Coherence(CoherencePlan {
                    spec: ChipletSystemSpec::baseline(),
                    vcs: 4,
                    kind: SchemeKind::Upp(UppConfig::default()),
                    profile,
                })
            }
            Workload::Grid16Hotspot => {
                let spec = ChipletSystemSpec::grid(16, 16).expect("16x16 is a valid grid");
                Plan::Synthetic(SynthPlan {
                    rate: 7.8 / grid_routers(&spec) as f64,
                    spec,
                    vcs: 1,
                    kind: SchemeKind::Composable,
                    consume: ConsumePolicy::Immediate {
                        latency: GRID16_CONSUME_LATENCY,
                    },
                    pattern: Pattern::Hotspot,
                    inject_cycles: if smoke { 150 } else { 800 },
                    runs: if smoke { 2 } else { 4 },
                })
            }
            Workload::Fig7Quick => Plan::Fig7(Fig7Plan { smoke }),
        }
    }
}

/// Router count of a grid spec (`fig_scaling` scales its rate by it).
fn grid_routers(spec: &ChipletSystemSpec) -> usize {
    spec.build(0).expect("valid spec").num_nodes()
}

/// What one operation of a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Open-loop synthetic traffic, then a drain.
    Synthetic(SynthPlan),
    /// Closed-loop coherence run to completion.
    Coherence(CoherencePlan),
    /// The quick Fig. 7 sweep.
    Fig7(Fig7Plan),
}

/// Open-loop synthetic runs: inject for `inject_cycles`, then drain;
/// `runs` independent runs (seeds derived from the operation's seed) make
/// one operation.
#[derive(Debug, Clone)]
pub struct SynthPlan {
    /// System shape.
    pub spec: ChipletSystemSpec,
    /// VCs per VNet.
    pub vcs: usize,
    /// Deadlock-freedom scheme.
    pub kind: SchemeKind,
    /// NI consumption policy.
    pub consume: ConsumePolicy,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Offered load, flits/node/cycle.
    pub rate: f64,
    /// Cycles of injection before the drain.
    pub inject_cycles: u64,
    /// Independent runs per operation. Hotspot latency and drain length
    /// vary from seed to seed far more than uniform traffic does, so
    /// `grid16_hotspot` averages four runs per operation.
    pub runs: u64,
}

/// A closed-loop coherence run to completion.
#[derive(Debug, Clone)]
pub struct CoherencePlan {
    /// System shape.
    pub spec: ChipletSystemSpec,
    /// VCs per VNet.
    pub vcs: usize,
    /// Deadlock-freedom scheme.
    pub kind: SchemeKind,
    /// Application profile.
    pub profile: BenchmarkProfile,
}

/// The quick Fig. 7 sweep. The untraced operation is
/// `upp_bench::run("fig7", true)`; the traced one replays the same curves
/// through `SweepEngine` and `run_point` so each point gets a span.
#[derive(Debug, Clone)]
pub struct Fig7Plan {
    /// Tests run one pattern with short windows, traced path only.
    pub smoke: bool,
}

impl Fig7Plan {
    fn patterns(&self) -> Vec<Pattern> {
        if self.smoke {
            vec![Pattern::UniformRandom]
        } else {
            vec![Pattern::UniformRandom, Pattern::Transpose]
        }
    }

    fn windows(&self) -> SweepWindows {
        if self.smoke {
            SweepWindows {
                warmup: 100,
                measure: 400,
            }
        } else {
            windows(true)
        }
    }
}

/// Simulated results an operation's layers produced; all deterministic
/// for a given seed.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Packets created by the workload.
    pub packets_created: u64,
    /// UPP recovery statistics (zero for other schemes).
    pub upp: UppStats,
    /// Control-signal link traversals.
    pub control_hops: u64,
    /// Bypass (upward flit) hops.
    pub bypass_hops: u64,
    /// Kernel heap bytes at the end of the run (`Network::mem_report`).
    pub mem_bytes: u64,
    /// Packet-descriptor arena high water.
    pub arena_high_water: u64,
    /// Cycles stepped phase by phase (before any drain).
    pub stepped_cycles: u64,
    /// Router steps during those cycles.
    pub router_ticks: f64,
    /// Routers in the system.
    pub routers: u64,
    /// Cycles spent in `run_until_drained`.
    pub drain_cycles: u64,
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Host seconds of stepping and draining (set-up excluded).
    pub step_s: f64,
    /// Host seconds of the whole operation.
    pub wall_s: f64,
    /// Simulated cycles until the workload completed.
    pub sim_cycles: u64,
    /// Delivered flits.
    pub flits: u64,
    /// Mean packet latency in simulated cycles (creation to ejection).
    pub latency: f64,
    /// Packets the latency is averaged over.
    pub packets: u64,
    /// Digest of every simulated statistic.
    pub digest: u64,
    /// Output check verdict.
    pub check: Result<(), String>,
    /// Per-layer simulated counts.
    pub counts: Counts,
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a system the way `runner::build_system` does; with a tracer, the
/// same fault-free construction split at the layer boundaries.
fn build(
    spec: &ChipletSystemSpec,
    vcs: usize,
    kind: &SchemeKind,
    consume: ConsumePolicy,
    seed: u64,
    tr: Option<&mut Tracer>,
) -> BuiltSystem {
    let Some(tr) = tr else {
        return build_system(spec, cfg(vcs), kind, 0, seed, consume);
    };
    let setup = tr.enter(Layer::Setup);
    let topo = tr.span(Layer::Topology, || {
        spec.build(seed).expect("valid system spec")
    });
    let (scheme, routing, upp_stats): (Box<dyn Scheme>, ChipletRouting, _) = match kind {
        SchemeKind::Upp(c) => {
            let routing = tr.span(Layer::Routing, ChipletRouting::xy);
            let upp = Upp::new(*c);
            let handle = upp.stats_handle();
            (Box::new(upp), routing, Some(handle))
        }
        SchemeKind::Composable => {
            let (scheme, routing) = tr.span(Layer::Routing, || {
                Composable::build(&topo).expect("composable search succeeds")
            });
            (Box::new(scheme), routing, None)
        }
        SchemeKind::RemoteControl => {
            let routing = tr.span(Layer::Routing, ChipletRouting::xy);
            let rc = RemoteControl::new(RemoteControlConfig::default());
            (Box::new(rc), routing, None)
        }
        SchemeKind::None => unreachable!("every workload runs a deadlock-freedom scheme"),
    };
    let net = tr.span(Layer::NetworkNew, || {
        Network::new(cfg(vcs), topo, Arc::new(routing), consume, seed)
    });
    tr.exit(setup);
    BuiltSystem {
        sys: System::new(net, scheme),
        upp_stats,
    }
}

/// One cycle in exactly `System::step`'s order, each phase its own span.
fn step_traced(tr: &mut Tracer, sys: &mut System) {
    let (net, scheme) = sys.parts_mut();
    tr.span(Layer::BeginCycle, || net.begin_cycle());
    tr.span(Layer::PreCycle, || scheme.pre_cycle(net));
    tr.span(Layer::FinishCycle, || net.finish_cycle());
    tr.span(Layer::PostCycle, || scheme.post_cycle(net));
}

/// Router steps so far (`active_router_fraction` is ticks over
/// `cycle x routers`).
fn router_ticks(net: &Network) -> f64 {
    net.active_router_fraction() * net.cycle() as f64 * net.topo().num_nodes() as f64
}

/// One operation on one system: build it, let `drive` run the workload
/// (filling the stepping counts and returning its own verdict), then read
/// out the simulated results and check conservation.
fn system_op(
    spec: &ChipletSystemSpec,
    vcs: usize,
    kind: &SchemeKind,
    consume: ConsumePolicy,
    seed: u64,
    mut tr: Option<&mut Tracer>,
    drive: impl FnOnce(&mut System, Option<&mut Tracer>, &mut Counts) -> Result<(), String>,
) -> OpResult {
    let t0 = Instant::now();
    let op = tr.as_deref_mut().map(|t| t.enter(Layer::Op));
    let BuiltSystem { mut sys, upp_stats } =
        build(spec, vcs, kind, consume, seed, tr.as_deref_mut());
    let t1 = Instant::now();
    let mut counts = Counts::default();
    let verdict = drive(&mut sys, tr.as_deref_mut(), &mut counts);
    let t2 = Instant::now();
    let stats = sys.net().stats().clone();
    let upp = upp_stats
        .as_ref()
        .map(UppStats::snapshot)
        .unwrap_or_default();
    let mem = sys.net().mem_report();
    if let (Some(tr), Some(op)) = (tr, op) {
        tr.exit(op);
    }
    let t3 = Instant::now();
    let cycle = sys.net().cycle();
    counts.packets_created = stats.packets_created;
    counts.upp = upp;
    counts.control_hops = stats.control_hops;
    counts.bypass_hops = stats.bypass_hops;
    counts.mem_bytes = mem.total_bytes as u64;
    counts.arena_high_water = mem.arena_high_water as u64;
    counts.routers = sys.net().topo().num_nodes() as u64;
    let check = verdict.and_then(|()| {
        if stats.packets_created == stats.packets_ejected {
            Ok(())
        } else {
            Err(format!(
                "{} packets created but {} ejected",
                stats.packets_created, stats.packets_ejected
            ))
        }
    });
    OpResult {
        step_s: (t2 - t1).as_secs_f64(),
        wall_s: (t3 - t0).as_secs_f64(),
        sim_cycles: cycle,
        flits: stats.flits_ejected,
        latency: stats.avg_total_latency(),
        packets: stats.packets_ejected,
        digest: fnv1a(format!("{stats:?}|{upp:?}|{cycle}").as_bytes()),
        check,
        counts,
    }
}

impl OpResult {
    /// Folds a further run of the same operation into this one.
    fn absorb(&mut self, o: OpResult) {
        let packets = self.packets + o.packets;
        if packets > 0 {
            self.latency = (self.latency * self.packets as f64 + o.latency * o.packets as f64)
                / packets as f64;
        }
        self.packets = packets;
        self.step_s += o.step_s;
        self.wall_s += o.wall_s;
        self.sim_cycles += o.sim_cycles;
        self.flits += o.flits;
        self.digest = fnv1a(&[self.digest.to_le_bytes(), o.digest.to_le_bytes()].concat());
        self.check = self.check.clone().and(o.check);
        let (c, d) = (&mut self.counts, o.counts);
        c.packets_created += d.packets_created;
        c.upp.upward_packets += d.upp.upward_packets;
        c.upp.popups_completed += d.upp.popups_completed;
        c.upp.stops_sent += d.upp.stops_sent;
        c.upp.acks_dropped += d.upp.acks_dropped;
        c.control_hops += d.control_hops;
        c.bypass_hops += d.bypass_hops;
        c.mem_bytes = c.mem_bytes.max(d.mem_bytes);
        c.arena_high_water = c.arena_high_water.max(d.arena_high_water);
        c.stepped_cycles += d.stepped_cycles;
        c.router_ticks += d.router_ticks;
        c.drain_cycles += d.drain_cycles;
    }
}

impl SynthPlan {
    fn run(&self, seed: u64, mut tr: Option<&mut Tracer>) -> OpResult {
        let mut op = self.run_once(seed, tr.as_deref_mut());
        for i in 1..self.runs {
            let sub_seed = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            op.absorb(self.run_once(sub_seed, tr.as_deref_mut()));
        }
        op
    }

    fn run_once(&self, seed: u64, tr: Option<&mut Tracer>) -> OpResult {
        let (spec, kind) = (&self.spec, &self.kind);
        system_op(
            spec,
            self.vcs,
            kind,
            self.consume,
            seed,
            tr,
            |sys, mut tr, counts| {
                let mut traffic =
                    SyntheticTraffic::new(sys.net().topo(), self.pattern, self.rate, seed);
                for _ in 0..self.inject_cycles {
                    match tr.as_deref_mut() {
                        None => {
                            traffic.tick(sys);
                            sys.step();
                        }
                        Some(tr) => {
                            tr.span(Layer::Tick, || traffic.tick(sys));
                            step_traced(tr, sys);
                        }
                    }
                }
                counts.stepped_cycles = self.inject_cycles;
                counts.router_ticks = router_ticks(sys.net());
                let outcome = match tr {
                    None => sys.run_until_drained(DRAIN_CAP),
                    Some(tr) => tr.span(Layer::Drain, || sys.run_until_drained(DRAIN_CAP)),
                };
                counts.drain_cycles = sys.net().cycle() - self.inject_cycles;
                match outcome {
                    RunOutcome::Drained { .. } => Ok(()),
                    other => Err(format!("drain ended in {other:?}")),
                }
            },
        )
    }
}

impl CoherencePlan {
    fn run(&self, seed: u64, tr: Option<&mut Tracer>) -> OpResult {
        let consume = ConsumePolicy::External;
        system_op(
            &self.spec,
            self.vcs,
            &self.kind,
            consume,
            seed,
            tr,
            |sys, tr, counts| {
                let incomplete = match tr {
                    None => run_benchmark(sys, self.profile, seed, COHERENCE_CAP).incomplete,
                    Some(tr) => {
                        // `run_benchmark`'s loop, phase by phase.
                        let mut engine = CoherenceEngine::new(sys, self.profile, seed);
                        let mut incomplete = false;
                        while !engine.done(sys) {
                            if sys.net().cycle() >= COHERENCE_CAP || sys.net().stalled() {
                                incomplete = true;
                                break;
                            }
                            tr.span(Layer::Tick, || engine.tick(sys));
                            step_traced(tr, sys);
                        }
                        tr.span(Layer::Tick, || engine.tick(sys));
                        incomplete
                    }
                };
                let cycle = sys.net().cycle();
                counts.stepped_cycles = cycle;
                counts.router_ticks = router_ticks(sys.net());
                if incomplete {
                    Err(format!("coherence run incomplete at cycle {cycle}"))
                } else {
                    Ok(())
                }
            },
        )
    }
}

/// One Fig. 7 curve's identity and points.
struct Curve {
    kind: SchemeKind,
    points: Vec<SweepPoint>,
    presat_latency: f64,
}

impl Fig7Plan {
    /// `fig7::collect`'s curve order: pattern, then VCs, then scheme.
    fn curve_keys(&self) -> Vec<(Pattern, usize, SchemeKind)> {
        let mut keys = Vec::new();
        for pattern in self.patterns() {
            for vcs in [1usize, 4] {
                for kind in SchemeKind::evaluated() {
                    keys.push((pattern, vcs, kind));
                }
            }
        }
        keys
    }

    fn curves_untraced(&self) -> Vec<Curve> {
        assert!(
            !self.smoke,
            "the untraced fig7 operation is the full quick run"
        );
        set_default_jobs(FIG7_WORKERS);
        let result = upp_bench::run("fig7", true).expect("fig7 is an experiment id");
        let curves = result
            .json
            .get("curves")
            .and_then(|c| c.as_array())
            .expect("fig7 artifact has curves");
        self.curve_keys()
            .into_iter()
            .zip(curves)
            .map(|((_, _, kind), c)| {
                let points = c
                    .get("points")
                    .and_then(|p| p.as_array())
                    .expect("curve has points")
                    .iter()
                    .map(|p| {
                        <SweepPoint as upp_bench::sweep::FromJsonValue>::from_json_value(p)
                            .expect("artifact points parse")
                    })
                    .collect();
                Curve {
                    kind,
                    points,
                    presat_latency: c
                        .get("presat_latency")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(f64::NAN),
                }
            })
            .collect()
    }

    fn curves_traced(&self, tr: &mut Tracer) -> Vec<Curve> {
        let spec = ChipletSystemSpec::baseline();
        let w = self.windows();
        let sweep = SweepEngine::new(FIG7_WORKERS);
        let mut out = Vec::new();
        for (pattern, vcs, kind) in self.curve_keys() {
            let mut rates = if vcs == 1 {
                rates_1vc(true)
            } else {
                rates_4vc(true)
            };
            if self.smoke {
                rates.truncate(2);
            }
            let curve = tr.enter(Layer::Curve);
            let timed = sweep.map(&rates, |_, &rate| {
                let start = Instant::now();
                let p = run_point(&spec, &cfg(vcs), &kind, 0, pattern, rate, w, SEED);
                (p, start, Instant::now())
            });
            let mut points = Vec::with_capacity(timed.len());
            for (p, start, end) in timed {
                tr.record(Layer::Point, start, end);
                points.push(p);
            }
            tr.exit(curve);
            out.push(Curve {
                presat_latency: presaturation_latency(&points),
                kind,
                points,
            });
        }
        out
    }

    fn run(&self, tr: Option<&mut Tracer>) -> OpResult {
        let t0 = Instant::now();
        let curves = match tr {
            None => self.curves_untraced(),
            Some(tr) => {
                let op = tr.enter(Layer::Op);
                let c = self.curves_traced(tr);
                tr.exit(op);
                c
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let w = self.windows();
        let nodes = ChipletSystemSpec::baseline()
            .build(SEED)
            .expect("baseline builds")
            .num_endpoints() as f64;
        let mut text = String::new();
        let mut counts = Counts::default();
        let (mut sim_cycles, mut flits, mut points) = (0u64, 0u64, 0usize);
        let mut upp_latency = Vec::new();
        let mut check = Ok(());
        for c in &curves {
            text.push_str(
                &serde_json::to_string(&serde_json::to_value(&c.points).expect("points serialise"))
                    .expect("points render"),
            );
            if matches!(c.kind, SchemeKind::Upp(_)) {
                upp_latency.push(c.presat_latency);
            }
            for p in &c.points {
                points += 1;
                sim_cycles += w.warmup + w.measure;
                flits += (p.throughput * w.measure as f64 * nodes).round() as u64;
                counts.upp.upward_packets += p.upward_packets;
                counts.control_hops += p.control_hops;
                if p.deadlocked || p.packets_ejected == 0 {
                    check = Err(format!(
                        "{} point at rate {} deadlocked or delivered nothing",
                        c.kind.label(),
                        p.rate
                    ));
                }
            }
        }
        let expected = self.curve_keys().len() * if self.smoke { 2 } else { 4 };
        if points != expected {
            check = Err(format!("{points} sweep points, expected {expected}"));
        }
        OpResult {
            step_s: wall_s,
            wall_s,
            sim_cycles,
            flits,
            latency: upp_latency.iter().sum::<f64>() / upp_latency.len() as f64,
            packets: 0,
            digest: fnv1a(text.as_bytes()),
            check,
            counts,
        }
    }
}

impl Plan {
    /// Runs one operation; with a tracer, every layer call gets a span.
    /// `seed` drives every random choice except in `fig7_quick`, whose
    /// experiment pins its own seed.
    pub fn run(&self, seed: u64, tr: Option<&mut Tracer>) -> OpResult {
        match self {
            Plan::Synthetic(p) => p.run(seed, tr),
            Plan::Coherence(p) => p.run(seed, tr),
            Plan::Fig7(p) => p.run(tr),
        }
    }

    /// Builds the workload's system(s) once, as its set-up; returns host
    /// seconds. `fig7_quick` builds one system per evaluated scheme, which
    /// is the set-up each column of its sweep repeats inside `run_point`.
    pub fn setup(&self, seed: u64, mut tr: Option<&mut Tracer>) -> f64 {
        let t0 = Instant::now();
        match self {
            Plan::Synthetic(p) => {
                let consume = p.consume;
                drop(build(&p.spec, p.vcs, &p.kind, consume, seed, tr));
            }
            Plan::Coherence(p) => {
                drop(build(
                    &p.spec,
                    p.vcs,
                    &p.kind,
                    ConsumePolicy::External,
                    seed,
                    tr,
                ));
            }
            Plan::Fig7(_) => {
                let spec = ChipletSystemSpec::baseline();
                let consume = ConsumePolicy::Immediate { latency: 1 };
                for kind in SchemeKind::evaluated() {
                    drop(build(&spec, 1, &kind, consume, SEED, tr.as_deref_mut()));
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Runs UPP on the `grid16_hotspot` system and traffic, untimed, and
/// reports whether it completed its output check. UPP's Fig. 4 signal
/// carries an 8-bit destination, so on grids above 4x4 chiplets the first
/// popup request to a far node panics; the panic is caught and returned as
/// the failure.
pub fn upp_large_grid_check(seed: u64) -> Result<(), String> {
    let Plan::Synthetic(mut plan) = Workload::Grid16Hotspot.plan(false) else {
        unreachable!("grid16_hotspot is a synthetic workload")
    };
    plan.kind = SchemeKind::Upp(UppConfig::default());
    plan.runs = 1;
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(|| plan.run(seed, None)));
    std::panic::set_hook(prev);
    match r {
        Ok(op) => op.check,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panicked: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Phase-split traced stepping must reproduce `System::step` bit for
    /// bit: the traced run's spans are only meaningful if it does the same
    /// simulated work.
    #[test]
    fn traced_ops_match_untraced_digests() {
        for w in [
            Workload::UppSaturated,
            Workload::CoherenceLight,
            Workload::Grid16Hotspot,
        ] {
            let plan = w.plan(true);
            for seed in [1, 977] {
                let plain = plan.run(seed, None);
                let mut tr = Tracer::new();
                let traced = plan.run(seed, Some(&mut tr));
                assert_eq!(plain.digest, traced.digest, "{} seed {seed}", w.name());
                assert!(!tr.spans().is_empty());
            }
        }
    }

    /// The traced fig7 replay (`SweepEngine` + `run_point`) must produce
    /// the artifact `upp_bench::run("fig7", true)` produces.
    #[test]
    fn traced_fig7_matches_repro_fig7_quick() {
        let plan = Workload::Fig7Quick.plan(false);
        let plain = plan.run(0, None);
        let mut tr = Tracer::new();
        let traced = plan.run(0, Some(&mut tr));
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(tr.durations(Layer::Point).len(), 48);
    }

    #[test]
    fn smoke_runs_pass_their_output_checks() {
        for w in Workload::ALL {
            let plan = w.plan(true);
            for seed in [3, 20_221] {
                let mut tr = Tracer::new();
                let traced = plan.run(seed, Some(&mut tr));
                assert_eq!(traced.check, Ok(()), "{} seed {seed}", w.name());
                assert!(traced.sim_cycles > 0 && traced.flits > 0, "{}", w.name());
                if w != Workload::Fig7Quick {
                    let again = plan.run(seed, None);
                    assert_eq!(again.check, Ok(()), "{} seed {seed}", w.name());
                    assert_eq!(again.digest, traced.digest, "{} seed {seed}", w.name());
                }
            }
        }
    }

    #[test]
    fn saturated_upp_pops_packets_up() {
        let op = Workload::UppSaturated.plan(true).run(5, None);
        assert!(op.counts.upp.upward_packets > 0, "{:?}", op.counts.upp);
    }
}
