//! `simcore` — measures raw simulator event throughput and emits the
//! machine-readable JSON recorded in `BENCH_simcore.json`, giving every
//! PR a comparable perf trajectory for the `netsim` hot path.
//!
//! ```text
//! cargo run --release -p bench --bin simcore            # print JSON
//! cargo run --release -p bench --bin simcore -- --out BENCH_simcore.json
//! cargo run --release -p bench --bin simcore -- --only mega_world_10k \
//!     --budget-seconds 120                              # CI smoke-scale
//! ```
//!
//! Each workload runs several times; the best run is reported (minimum
//! wall time — standard practice for throughput benches, since noise is
//! strictly additive). The big `mega_world` cases run fewer times to keep
//! the harness itself fast.
//!
//! * `--only SUBSTR` runs just the cases whose name contains `SUBSTR`.
//! * `--budget-seconds N` exits non-zero if the selected cases take more
//!   than `N` wall-clock seconds in total (the CI scale gate).
//! * `--floor NAME=EVENTS_PER_SEC` (repeatable) exits non-zero if the
//!   named case's best run falls below the given throughput — the CI
//!   perf-regression gate for the scheduler hot path.
//! * `--shards N` (`N` ≥ 1, default 1) runs every `mega_world_*` scale
//!   case over `N` region-owned shards (`ShardedHierarchy`, DESIGN.md
//!   §10); one shard runs exactly as a classic world. The fixed
//!   `mega_world_100k_s{2,4,8}` cases form the shard-scaling sweep and
//!   ignore the flag.

use bench::cache_churn::{cache_churn, CacheImpl};
use bench::megaworld::mega_world;
use bench::simworlds::{
    broadcast_fanout, broadcast_fanout_with, timer_churn, unicast_pingpong, unicast_pingpong_with,
    Telemetry, Throughput,
};
use netsim::time::SimDuration;
use scenarios::hierarchy::HierarchyParams;
use scenarios::soak::{run_random_waypoint_soak, RwSoakConfig};

const RUNS: usize = 5;
const SEED: u64 = 1994;
const CHURN_OPS: u64 = 1_000_000;

struct Case {
    name: &'static str,
    detail: &'static str,
    runs: usize,
    work: Box<dyn Fn() -> Throughput>,
}

fn best_of(runs: usize, f: &dyn Fn() -> Throughput) -> Throughput {
    (0..runs)
        .map(|_| f())
        .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
        .expect("at least one run")
}

fn churn_case(name: &'static str, detail: &'static str, which: CacheImpl, cap: usize) -> Case {
    Case { name, detail, runs: RUNS, work: Box::new(move || cache_churn(which, cap, CHURN_OPS)) }
}

fn cases(shards: usize) -> Vec<Case> {
    vec![
        Case {
            name: "broadcast_fanout",
            detail: "32 nodes, 256B payload, 1ms beacons, 2s simulated",
            runs: RUNS,
            work: Box::new(|| broadcast_fanout(SEED, 32, 256, 2_000)),
        },
        Case {
            name: "unicast_pingpong",
            detail: "16 pairs, 256B payload, 2s simulated",
            runs: RUNS,
            work: Box::new(|| unicast_pingpong(SEED, 16, 256, 2_000)),
        },
        Case {
            name: "timer_churn",
            detail: "32 nodes x 8 timer chains, 2s simulated",
            runs: RUNS,
            work: Box::new(|| timer_churn(SEED, 32, 8, 2_000)),
        },
        Case {
            name: "unicast_pingpong_tele",
            detail: "16 pairs, 256B payload, 2s simulated, telemetry on (64Ki ring)",
            runs: RUNS,
            work: Box::new(|| {
                unicast_pingpong_with(SEED, 16, 256, 2_000, Telemetry::On { ring: 1 << 16 })
            }),
        },
        Case {
            name: "broadcast_fanout_tele",
            detail: "32 nodes, 256B payload, 1ms beacons, 2s simulated, telemetry on (64Ki ring)",
            runs: RUNS,
            work: Box::new(|| {
                broadcast_fanout_with(SEED, 32, 256, 2_000, Telemetry::On { ring: 1 << 16 })
            }),
        },
        churn_case(
            "location_cache_churn_linear_256",
            "old linear-scan eviction, capacity 256, 1M ops",
            CacheImpl::Linear,
            256,
        ),
        churn_case(
            "location_cache_churn_lru_256",
            "O(1) list eviction, capacity 256, 1M ops",
            CacheImpl::Lru,
            256,
        ),
        churn_case(
            "location_cache_churn_linear_4096",
            "old linear-scan eviction, capacity 4096, 1M ops",
            CacheImpl::Linear,
            4096,
        ),
        churn_case(
            "location_cache_churn_lru_4096",
            "O(1) list eviction, capacity 4096, 1M ops",
            CacheImpl::Lru,
            4096,
        ),
        churn_case(
            "location_cache_churn_linear_16384",
            "old linear-scan eviction, capacity 16384, 1M ops",
            CacheImpl::Linear,
            16384,
        ),
        churn_case(
            "location_cache_churn_lru_16384",
            "O(1) list eviction, capacity 16384, 1M ops",
            CacheImpl::Lru,
            16384,
        ),
        Case {
            name: "soak_rw_1k",
            detail: "random-waypoint soak, hierarchy 2 regions x 10 cells x 500 mobiles, \
                     8 flows, 8s simulated (workload engine + SLO evaluation included)",
            runs: 2,
            work: Box::new(|| {
                let run = run_random_waypoint_soak(&RwSoakConfig {
                    params: HierarchyParams {
                        regions: 2,
                        fas_per_region: 10,
                        mobiles_per_region: 500,
                        ..Default::default()
                    },
                    duration: SimDuration::from_secs(8),
                    ..RwSoakConfig::default()
                });
                Throughput { events: run.events, wall_seconds: run.wall_seconds }
            }),
        },
        Case {
            name: "mega_world_1k",
            detail: "hierarchy 2 regions x 10 cells x 500 mobiles, 6s simulated",
            runs: 3,
            work: Box::new(move || mega_world(SEED, 2, 10, 500, 6_000, shards, false)),
        },
        Case {
            name: "mega_world_10k",
            detail: "hierarchy 4 regions x 50 cells x 2500 mobiles, 6s simulated",
            runs: 2,
            work: Box::new(move || mega_world(SEED, 4, 50, 2_500, 6_000, shards, false)),
        },
        Case {
            name: "mega_world_100k",
            detail: "hierarchy 8 regions x 250 cells x 12500 mobiles, 6s simulated",
            runs: 1,
            work: Box::new(move || mega_world(SEED, 8, 250, 12_500, 6_000, shards, false)),
        },
        Case {
            name: "mega_world_100k_hier",
            detail: "hierarchy 8 regions x 250 cells x 12500 mobiles, 6s simulated, \
                     regional registration tier on (DESIGN.md S12)",
            runs: 1,
            work: Box::new(move || mega_world(SEED, 8, 250, 12_500, 6_000, shards, true)),
        },
        Case {
            name: "mega_world_100k_s2",
            detail: "hierarchy 8 regions x 250 cells x 12500 mobiles, 6s simulated, 2 shards",
            runs: 1,
            work: Box::new(|| mega_world(SEED, 8, 250, 12_500, 6_000, 2, false)),
        },
        Case {
            name: "mega_world_100k_s4",
            detail: "hierarchy 8 regions x 250 cells x 12500 mobiles, 6s simulated, 4 shards",
            runs: 1,
            work: Box::new(|| mega_world(SEED, 8, 250, 12_500, 6_000, 4, false)),
        },
        Case {
            name: "mega_world_100k_s8",
            detail: "hierarchy 8 regions x 250 cells x 12500 mobiles, 6s simulated, 8 shards",
            runs: 1,
            work: Box::new(|| mega_world(SEED, 8, 250, 12_500, 6_000, 8, false)),
        },
        Case {
            name: "mega_world_1m",
            detail: "hierarchy 40 regions x 250 cells x 25000 mobiles, 6s simulated \
                     (the DESIGN.md S10 1M-mobile target; minutes of wall time - run \
                     it explicitly with --only mega_world_1m, CI excludes it)",
            runs: 1,
            work: Box::new(move || mega_world(SEED, 40, 250, 25_000, 6_000, shards, false)),
        },
    ]
}

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

/// Parses every `--floor NAME=EVENTS_PER_SEC` occurrence.
fn floor_values(args: &[String]) -> Vec<(String, f64)> {
    let mut floors = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a != "--floor" {
            continue;
        }
        let Some(spec) = args.get(i + 1) else {
            eprintln!("error: --floor requires NAME=EVENTS_PER_SEC");
            std::process::exit(2);
        };
        let parsed = spec
            .split_once('=')
            .and_then(|(name, v)| v.parse::<f64>().ok().map(|floor| (name.to_string(), floor)));
        match parsed {
            Some(pair) => floors.push(pair),
            None => {
                eprintln!("error: --floor wants NAME=EVENTS_PER_SEC, got {spec}");
                std::process::exit(2);
            }
        }
    }
    floors
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = flag_value(&args, "--out");
    let only = flag_value(&args, "--only");
    let budget: Option<f64> = flag_value(&args, "--budget-seconds").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --budget-seconds wants a number, got {v}");
            std::process::exit(2);
        })
    });
    let shards: usize = flag_value(&args, "--shards").map_or(1, |v| match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: --shards wants a number ≥ 1, got {v}");
            std::process::exit(2);
        }
    });

    // The 1M-mobile world takes minutes and ~10x the memory of every
    // other case combined; it only runs when named exactly, so that
    // neither the default sweep nor `--only mega_world` trips over it.
    let selected: Vec<Case> = cases(shards)
        .into_iter()
        .filter(|c| only.as_deref().is_none_or(|o| c.name.contains(o)))
        .filter(|c| c.name != "mega_world_1m" || only.as_deref() == Some("mega_world_1m"))
        .collect();
    if selected.is_empty() {
        eprintln!("error: --only {:?} matches no case", only.unwrap_or_default());
        std::process::exit(2);
    }

    let harness_start = std::time::Instant::now();
    let results: Vec<(&Case, Throughput)> =
        selected.iter().map(|c| (c, best_of(c.runs, &*c.work))).collect();
    let harness_seconds = harness_start.elapsed().as_secs_f64();

    let mut json = String::from("{\n  \"bench\": \"simcore\",\n  \"cases\": [\n");
    for (i, (c, best)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"events\": {}, \
             \"wall_seconds\": {:.6}, \"events_per_sec\": {:.0}}}{}\n",
            c.name,
            c.detail,
            best.events,
            best.wall_seconds,
            best.events_per_sec(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    print!("{json}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(limit) = budget {
        if harness_seconds > limit {
            eprintln!("budget exceeded: {harness_seconds:.1}s > {limit:.1}s");
            std::process::exit(1);
        }
        eprintln!("within budget: {harness_seconds:.1}s <= {limit:.1}s");
    }
    for (name, floor) in floor_values(&args) {
        let Some((_, best)) = results.iter().find(|(c, _)| c.name == name) else {
            eprintln!("error: --floor {name} names a case that did not run");
            std::process::exit(2);
        };
        let got = best.events_per_sec();
        if got < floor {
            eprintln!("throughput floor violated: {name} ran {got:.0} ev/s < {floor:.0} ev/s");
            std::process::exit(1);
        }
        eprintln!("above floor: {name} ran {got:.0} ev/s >= {floor:.0} ev/s");
    }
}
