//! Simulation-kernel throughput bench: how many network cycles per second
//! the simulator steps, and how the sweep engine scales with `--jobs`.
//!
//! Besides the criterion-style console report, the bench writes a machine
//! readable summary to `BENCH_sweep.json` at the workspace root so kernel
//! or sweep regressions are visible in PRs. Set `UPP_BENCH_QUICK=1` for a
//! reduced grid (used by CI).

use criterion::{black_box, criterion_group, Criterion};
use std::time::Instant;
use upp_bench::sweep::SweepEngine;
use upp_core::UppConfig;
use upp_noc::config::NocConfig;
use upp_noc::ni::ConsumePolicy;
use upp_noc::topology::ChipletSystemSpec;
use upp_workloads::runner::{build_system, run_point, SchemeKind, SweepWindows};
use upp_workloads::synthetic::{Pattern, SyntheticTraffic};

fn quick() -> bool {
    std::env::var("UPP_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn measure_cycles(quick: bool) -> u64 {
    if quick {
        3_000
    } else {
        12_000
    }
}

/// Steps one `(scheme, vcs, rate)` configuration for a fixed number of
/// cycles and returns the wall-clock cycles/sec of the kernel.
fn kernel_cycles_per_sec(kind: &SchemeKind, vcs: usize, rate: f64, cycles: u64) -> f64 {
    let spec = ChipletSystemSpec::baseline();
    let cfg = NocConfig::default().with_vcs_per_vnet(vcs);
    let windows = SweepWindows {
        warmup: cycles / 10,
        measure: cycles,
    };
    let start = Instant::now();
    black_box(run_point(
        &spec,
        &cfg,
        kind,
        0,
        Pattern::UniformRandom,
        rate,
        windows,
        2022,
    ));
    let total = windows.warmup + windows.measure;
    total as f64 / start.elapsed().as_secs_f64()
}

/// Times a small rate sweep on the engine with a given worker count.
fn sweep_seconds(jobs: usize, rates: &[f64], cycles: u64) -> f64 {
    let spec = ChipletSystemSpec::baseline();
    let cfg = NocConfig::default();
    let kind = SchemeKind::Upp(UppConfig::default());
    let windows = SweepWindows {
        warmup: cycles / 10,
        measure: cycles,
    };
    let start = Instant::now();
    black_box(SweepEngine::new(jobs).map(rates, |_, &rate| {
        run_point(
            &spec,
            &cfg,
            &kind,
            0,
            Pattern::UniformRandom,
            rate,
            windows,
            2022,
        )
    }));
    start.elapsed().as_secs_f64()
}

/// Cycles/sec of the UPP kernel with the telemetry registry disabled vs
/// enabled, on identical traffic. `off` runs every obs call site behind
/// the closed gate — the configuration the perf gate pins — so the
/// on/off ratio is the registry's whole cost.
fn obs_cycles_per_sec(enable: bool, cycles: u64) -> f64 {
    let spec = ChipletSystemSpec::baseline();
    let built = build_system(
        &spec,
        NocConfig::default(),
        &SchemeKind::Upp(UppConfig::default()),
        0,
        2022,
        ConsumePolicy::Immediate { latency: 1 },
    );
    let mut sys = built.sys;
    if enable {
        sys.net_mut().enable_obs();
    }
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, 0.06, 2022);
    let start = Instant::now();
    for c in 0..cycles {
        traffic.tick(&mut sys);
        sys.step();
        if c.is_multiple_of(100) {
            sys.observe();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(sys.net().stats().flits_ejected);
    cycles as f64 / secs
}

/// End-of-run kernel memory footprint of one benched configuration.
/// Unlike the cycles/sec numbers this is *deterministic* — same config,
/// seed and cycle count give byte-identical reports on any machine — so
/// regressions here are exact, not statistical.
fn mem_footprint(vcs: usize, cycles: u64) -> upp_noc::network::MemReport {
    let spec = ChipletSystemSpec::baseline();
    let built = build_system(
        &spec,
        NocConfig::default().with_vcs_per_vnet(vcs),
        &SchemeKind::Upp(UppConfig::default()),
        0,
        2022,
        ConsumePolicy::Immediate { latency: 1 },
    );
    let mut sys = built.sys;
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, 0.06, 2022);
    for _ in 0..cycles {
        traffic.tick(&mut sys);
        sys.step();
    }
    sys.net().mem_report()
}

/// One active-set-scheduler scenario: injects uniform-random traffic at
/// `rate` for `inject_cycles`, optionally drains the tail afterwards, and
/// returns `(cycles/sec, mean active-router fraction)`. The scheduler is
/// toggled per run (no env vars), so on/off pairs are directly comparable.
fn scheduler_scenario(
    kind: &SchemeKind,
    rate: f64,
    inject_cycles: u64,
    drain_tail: bool,
    scheduler: bool,
) -> (f64, f64) {
    let spec = ChipletSystemSpec::baseline();
    let cfg = NocConfig::default();
    let built = build_system(
        &spec,
        cfg,
        kind,
        0,
        2022,
        ConsumePolicy::Immediate { latency: 1 },
    );
    let mut sys = built.sys;
    sys.net_mut().set_active_scheduler(scheduler);
    let mut traffic = SyntheticTraffic::new(sys.net().topo(), Pattern::UniformRandom, rate, 2022);
    let start = Instant::now();
    for _ in 0..inject_cycles {
        traffic.tick(&mut sys);
        sys.step();
    }
    if drain_tail {
        black_box(sys.run_until_drained(1_000_000));
    }
    let secs = start.elapsed().as_secs_f64();
    let cycles = sys.net().cycle();
    (cycles as f64 / secs, sys.net().active_router_fraction())
}

/// Scenario record for `BENCH_sweep.json`: scheduler-on vs always-tick
/// cycles/sec, their ratio, and the scheduler's mean active-router
/// fraction.
struct ScenarioSummary {
    name: &'static str,
    cps_on: f64,
    cps_off: f64,
    active_fraction: f64,
}

impl ScenarioSummary {
    fn measure(
        name: &'static str,
        kind: &SchemeKind,
        rate: f64,
        inject_cycles: u64,
        drain_tail: bool,
    ) -> Self {
        let (cps_on, active_fraction) =
            scheduler_scenario(kind, rate, inject_cycles, drain_tail, true);
        let (cps_off, _) = scheduler_scenario(kind, rate, inject_cycles, drain_tail, false);
        Self {
            name,
            cps_on,
            cps_off,
            active_fraction,
        }
    }

    fn json(&self) -> String {
        format!(
            "\"{}\": {{\"cycles_per_sec\": {:.0}, \"always_tick_cycles_per_sec\": {:.0}, \
             \"speedup\": {:.2}, \"active_router_fraction\": {:.4}}}",
            self.name,
            self.cps_on,
            self.cps_off,
            self.cps_on / self.cps_off,
            self.active_fraction,
        )
    }
}

fn sim_throughput(c: &mut Criterion) {
    let cycles = measure_cycles(quick());
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("upp_1vc", |b| {
        b.iter(|| kernel_cycles_per_sec(&SchemeKind::Upp(UppConfig::default()), 1, 0.06, cycles))
    });
    group.bench_function("upp_4vc", |b| {
        b.iter(|| kernel_cycles_per_sec(&SchemeKind::Upp(UppConfig::default()), 4, 0.06, cycles))
    });
    group.bench_function("no_scheme_1vc", |b| {
        b.iter(|| kernel_cycles_per_sec(&SchemeKind::None, 1, 0.03, cycles))
    });
    group.finish();
}

criterion_group!(benches, sim_throughput);

/// Runs the criterion report, then records the machine-readable summary.
fn main() {
    benches();

    let q = quick();
    let cycles = measure_cycles(q);
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let upp = SchemeKind::Upp(UppConfig::default());
    let upp_1vc = kernel_cycles_per_sec(&upp, 1, 0.06, cycles);
    let upp_4vc = kernel_cycles_per_sec(&upp, 4, 0.06, cycles);
    let none_1vc = kernel_cycles_per_sec(&SchemeKind::None, 1, 0.03, cycles);
    let obs_off = obs_cycles_per_sec(false, cycles);
    let obs_on = obs_cycles_per_sec(true, cycles);

    let rates: Vec<f64> = if q {
        vec![0.02, 0.05, 0.08, 0.11]
    } else {
        vec![0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15]
    };
    let serial = sweep_seconds(1, &rates, cycles);
    let jobs4 = sweep_seconds(4, &rates, cycles);

    // Kernel heap footprint of the two pinned configurations (exact,
    // machine-independent numbers — see `mem_footprint`).
    let mem_1vc = serde_json::to_string(&mem_footprint(1, cycles))
        .expect("mem report serialization is infallible");
    let mem_4vc = serde_json::to_string(&mem_footprint(4, cycles))
        .expect("mem report serialization is infallible");

    // Active-set scheduler scenarios (on vs always-tick, same seed and
    // traffic): a saturated run where most routers stay busy, a
    // low-injection-rate run where most sit idle, and a drain tail where
    // injection stops and the quiescent gaps fast-forward.
    let scenarios = [
        ScenarioSummary::measure("saturated", &upp, 0.10, cycles, false),
        ScenarioSummary::measure("low_rate", &upp, 0.02, cycles, false),
        ScenarioSummary::measure("drain_tail", &upp, 0.06, cycles / 4, true),
    ];
    let scenarios_json = scenarios
        .iter()
        .map(|s| format!("    {}", s.json()))
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"quick\": {q},\n  \
         \"hardware_threads\": {threads},\n  \"measure_cycles\": {cycles},\n  \
         \"cycles_per_sec\": {{\n    \"upp_1vc\": {upp_1vc:.0},\n    \
         \"upp_4vc\": {upp_4vc:.0},\n    \"no_scheme_1vc\": {none_1vc:.0},\n    \
         \"upp_1vc_obs_off\": {obs_off:.0}\n  }},\n  \
         \"obs\": {{\n    \"cycles_per_sec_disabled\": {obs_off:.0},\n    \
         \"cycles_per_sec_enabled\": {obs_on:.0},\n    \
         \"enabled_over_disabled\": {:.3}\n  }},\n  \
         \"mem\": {{\n    \"upp_1vc\": {mem_1vc},\n    \
         \"upp_4vc\": {mem_4vc}\n  }},\n  \
         \"sweep\": {{\n    \"rates\": {},\n    \"serial_secs\": {serial:.3},\n    \
         \"jobs4_secs\": {jobs4:.3},\n    \"speedup_jobs4\": {:.2}\n  }},\n  \
         \"scheduler_scenarios\": {{\n{scenarios_json}\n  }}\n}}\n",
        obs_on / obs_off,
        rates.len(),
        serial / jobs4,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}
