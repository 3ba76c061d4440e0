//! `soak` — the SLO-gated workload soak the CI smoke job runs.
//!
//! Builds a hierarchical MHRP world, drives the workload engine's
//! random-waypoint mobility plus mixed open/closed-loop traffic through
//! it, evaluates the run against the SLO thresholds, prints the
//! machine-readable report, and exits non-zero on any SLO breach.
//!
//! ```text
//! cargo run --release -p bench --bin soak                    # default 1k world
//! cargo run --release -p bench --bin soak -- --out slo_report.json
//! cargo run --release -p bench --bin soak -- --budget-seconds 120
//! cargo run --release -p bench --bin soak -- --regions 1 --fas 4 --mobiles 32
//! ```
//!
//! * `--out PATH` also writes the JSON report to `PATH` (the CI
//!   `slo_report.json` artifact).
//! * `--budget-seconds N` exits non-zero if the whole run (build +
//!   warmup + soak) takes more than `N` wall-clock seconds.
//! * `--regions/--fas/--mobiles` size the world (defaults 2 × 10 × 500 —
//!   the 1k-host hierarchy the `simcore` soak case also runs).
//! * `--duration-secs N` sets the simulated soak length (default 8).
//! * `--shards N` (`N` ≥ 1) runs the soak on the sharded engine
//!   (DESIGN.md §10) with `N` region-owned shards and region-confined
//!   mobility; `N = 1` (the default) runs one classic world whose
//!   mobiles wander every cell.
//! * `--hierarchical` runs the world with the regional registration
//!   tier (DESIGN.md §12): regional routers own their region's visitor
//!   bindings and cell foreign agents register visitors regionally. The
//!   same SLOs apply — the tier must not cost delivery or latency.
//! * `--adversarial` runs the soak under attack (DESIGN.md §13): one
//!   attacker host floods forged registrations and cache-poisoning
//!   updates at region 0 while the authentication extension is on. The
//!   ordinary SLOs still gate the run — the defense must neutralise
//!   the attack — and an extra `auth_rejected_min` check fails the run
//!   if no forgery was ever rejected (i.e. the attack never engaged).
//!   CI publishes this run's report as `slo_report_adv.json`.

use mhrp::MhrpConfig;
use netsim::time::SimDuration;
use scenarios::hierarchy::HierarchyParams;
use scenarios::soak::{run_random_waypoint_soak, RwSoakConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        }
    }
}

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a number, got {v}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag_value(&args, "--out");
    let budget: Option<f64> =
        flag_value(&args, "--budget-seconds").map(|v| parse_or_die("--budget-seconds", v));
    let regions: usize = flag_value(&args, "--regions").map_or(2, |v| parse_or_die("--regions", v));
    let fas: usize = flag_value(&args, "--fas").map_or(10, |v| parse_or_die("--fas", v));
    let mobiles: usize =
        flag_value(&args, "--mobiles").map_or(500, |v| parse_or_die("--mobiles", v));
    let duration: u64 =
        flag_value(&args, "--duration-secs").map_or(8, |v| parse_or_die("--duration-secs", v));
    let shards: usize = flag_value(&args, "--shards").map_or(1, |v| match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: --shards wants a number ≥ 1, got {v}");
            std::process::exit(2);
        }
    });
    let hierarchical = args.iter().any(|a| a == "--hierarchical");
    let adversarial = args.iter().any(|a| a == "--adversarial");

    let harness_start = std::time::Instant::now();
    let hosts = regions * mobiles;
    let mut thresholds = scenarios::soak::RwSoakConfig::default().thresholds;
    // Population-dependent objectives: every wandering host registers and
    // provokes location updates (§4.3 rate-limits them *per host*), and a
    // fixed-size correspondent cache over a large population pays the
    // §6.1 home triangle (12 B inner + 8 B outer) on most packets.
    thresholds.max_update_rate_per_sec = (hosts as f64 * 0.5).max(50.0);
    // With the regional tier (DESIGN.md §12) a tunneled packet crosses
    // one extra agent (home agent → regional → cell FA), and every
    // re-tunnel appends one 4 B previous-source entry — so the expected
    // steady-state overhead shifts up by exactly that hop. Delivery and
    // latency objectives are identical across modes.
    thresholds.max_overhead_per_packet = if hierarchical { 28.0 } else { 24.0 };
    // Handoff loss scales with the offered rate: a handoff's physical
    // registration outage is ~200 ms (E11), so an open-loop flow at R
    // pkt/s expects up to ~0.2·R losses per handoff. Gate at a 350 ms
    // outage bound — generous for healthy registration, still tripped by
    // retry storms or stale-cache loops (the §5 ≤1-per-stale-hop claim
    // itself is verified in the low-rate regime by E15).
    let rate = RwSoakConfig::default().open_rate_per_sec;
    thresholds.max_handoff_loss_per_handoff = (rate * 0.35).max(1.0);
    let cfg = RwSoakConfig {
        params: HierarchyParams {
            regions,
            fas_per_region: fas,
            mobiles_per_region: mobiles,
            hierarchical,
            attackers: usize::from(adversarial),
            config: MhrpConfig {
                // The adversarial gate only makes sense with the §13
                // defense on: without it the forged registrations
                // simply win and every delivery SLO breaches.
                auth_key: adversarial.then_some(0x1994_0d0c_5bad_c0de),
                ..Default::default()
            },
            ..Default::default()
        },
        duration: SimDuration::from_secs(duration),
        thresholds,
        shards,
        adversarial,
        ..RwSoakConfig::default()
    };
    let run = run_random_waypoint_soak(&cfg);
    let harness_seconds = harness_start.elapsed().as_secs_f64();

    let json = run.report.to_json();
    println!("{json}");
    eprintln!(
        "soak: {} events in {:.2}s of measured window ({:.0} events/s), {:.1}s total",
        run.events,
        run.wall_seconds,
        run.events as f64 / run.wall_seconds.max(1e-9),
        harness_seconds,
    );
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    let mut failed = false;
    if let Some(limit) = budget {
        if harness_seconds > limit {
            eprintln!("budget exceeded: {harness_seconds:.1}s > {limit:.1}s");
            failed = true;
        } else {
            eprintln!("within budget: {harness_seconds:.1}s <= {limit:.1}s");
        }
    }
    if !run.report.pass {
        for c in run.report.checks.iter().filter(|c| !c.pass) {
            eprintln!(
                "SLO BREACH: {} measured {:.4} vs threshold {:.4}",
                c.name, c.measured, c.threshold
            );
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("all SLOs met");
}
