//! Runs workloads and reports them.
//!
//! One process measures one workload, so peak RSS is the workload's own
//! and the first-touch page faults of a 900 MB world are paid by an
//! untimed warm-up repetition, not by a timed one. `run` without
//! `--workload` re-executes this binary once per workload (and once more
//! per workload with `--traced`) and merges what the children wrote.
//!
//! An untraced pass is one untimed warm-up repetition and then
//! `--seconds / 5` timed ones (each timed window is sized to about 5 s
//! on the reference box); every end-to-end metric is the median over the
//! timed repetitions, taken with the tracer off. A traced pass is one
//! traced repetition beside untraced ones, the kernels, and the layers
//! worked out from them.
//!
//! The last line on standard output is the driver's: one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Everything else a
//! pass learned goes to `out/<workload>[-traced].json`, the spans to
//! `out/trace-<workload>.json`, and a table to standard error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use workload::json::Json;
use workload::SloCheck;

use crate::layers::{self, Layers, SimExtras};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::sim::{self, Digest, SimRep, SimSpec};
use crate::spans::Tracer;
use crate::{kernels, live, stats};

/// Host seconds one timed window is sized to; `--seconds` buys
/// `seconds / WINDOW_SECONDS` timed repetitions.
const WINDOW_SECONDS: u64 = 5;

/// What `run` was asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// This pass is the traced one (`--trace 1`).
    pub trace: bool,
    /// Without `--workload`: follow every untraced pass with a traced one.
    pub traced: bool,
    pub quick: bool,
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and when the numbers were taken. A run that starts on a busy
/// host says so.
fn header(args: &RunArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("load_average_1m", Json::Num(load1)),
        ("noisy", Json::Bool(load1 > 0.5 * nproc as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("quick", Json::Bool(args.quick)),
    ])
}

/// One pass over one workload, ready to print.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)`, in table order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else, merged into the detail document.
    detail: Vec<(&'static str, Json)>,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn checks_json(checks: &[SloCheck]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::Str(c.name.clone())),
                    ("measured", Json::Num(finite(c.measured))),
                    ("threshold", Json::Num(finite(c.threshold))),
                    ("pass", Json::Bool(c.pass)),
                ])
            })
            .collect(),
    )
}

/// The repetitions of a simulator workload must agree on every
/// simulated statistic: the simulator is deterministic, so a difference
/// is a bug in it (or in this harness).
pub fn digests_agree(digests: &[Digest]) -> SloCheck {
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    SloCheck {
        name: "digest_identical_across_reps".into(),
        measured: f64::from(u8::from(same)),
        threshold: 1.0,
        pass: same,
    }
}

/// End-to-end values of one simulator repetition, in [`END_TO_END`]
/// order but for `peak_rss_mb`, which belongs to the process.
fn sim_values(rep: &SimRep) -> [(&'static str, f64); 5] {
    [
        ("wall_s_per_sim_s", rep.window_s / rep.sim_s),
        ("setup_s", rep.setup_s),
        // A simulator workload has no offered rate to set low or high
        // and no packet to time on the host's clock: both latencies read
        // the host time one unit of delivered work cost (a registration,
        // a delivered probe). A discrete-event simulator always runs
        // flat out, so its saturated throughput is events per host second.
        ("lo_p50_us", rep.window_s * 1e6 / rep.delivered_units() as f64),
        ("hi_p50_us", rep.window_s * 1e6 / rep.delivered_units() as f64),
        ("flood_goodput_pps", rep.digest.events as f64 / rep.window_s),
    ]
}

fn live_values(rep: &live::LiveRep) -> [(&'static str, f64); 5] {
    [
        // The fleet runs on the wall clock, so a protocol second is a
        // wall second; what it costs the host is CPU time.
        ("wall_s_per_sim_s", rep.cpu_s_per_s),
        ("setup_s", rep.setup_s),
        ("lo_p50_us", rep.stage("lo").p50_us()),
        ("hi_p50_us", rep.stage("hi").p50_us()),
        ("flood_goodput_pps", rep.stage("flood").goodput_pps()),
    ]
}

/// Medians over the timed repetitions, plus what `compare` needs to
/// judge a difference: each repetition's value.
fn end_to_end_pass(
    per_rep: &[[(&'static str, f64); 5]],
    correct: bool,
    ops: (u64, u64),
    mut detail: Vec<(&'static str, Json)>,
) -> Pass {
    let mut metrics = Vec::new();
    let mut reps_json = Vec::new();
    let mut spread_json = Vec::new();
    for m in &END_TO_END {
        let values: Vec<f64> = if m.name == "peak_rss_mb" {
            vec![sim::proc_status_mb("VmHWM")]
        } else {
            per_rep
                .iter()
                .map(|r| r.iter().find(|v| v.0 == m.name).expect("every metric").1)
                .collect()
        };
        metrics.push((m.name, m.unit, finite(stats::median(&values))));
        let (max, min) = (
            values.iter().copied().fold(f64::MIN, f64::max),
            values.iter().copied().fold(f64::MAX, f64::min),
        );
        spread_json.push((
            m.name,
            Json::obj(vec![
                ("max_over_min", Json::Num(finite(max / min))),
                ("max", Json::Num(finite(max))),
                ("min", Json::Num(finite(min))),
            ]),
        ));
        reps_json
            .push((m.name, Json::Arr(values.into_iter().map(|v| Json::Num(finite(v))).collect())));
    }
    detail.push(("reps", Json::obj(reps_json)));
    detail.push(("bench.rep_spread", Json::obj(spread_json)));
    Pass { correct, attempted: ops.0, failed: ops.1, metrics, detail }
}

fn sim_untraced(spec: &SimSpec, args: &RunArgs, reps: u64) -> Pass {
    let mut off = Tracer::new(false);
    let mut all: Vec<SimRep> = Vec::new();
    for rep in 0..=reps {
        let r = sim::run_rep(spec, args.seed, spec.telemetry, &mut off);
        eprintln!(
            "  {} rep {rep}{}: setup {:.3} s, window {:.3} s for {} sim s, {} events",
            spec.name,
            if rep == 0 { " (warm-up, untimed)" } else { "" },
            r.setup_s,
            r.window_s,
            r.sim_s,
            r.digest.events
        );
        all.push(r);
    }
    let digests: Vec<Digest> = all.iter().map(|r| r.digest.clone()).collect();
    let mut checks = all[1].checks.clone();
    checks.push(digests_agree(&digests));
    let timed = &all[1..];
    let per_rep: Vec<_> = timed.iter().map(sim_values).collect();
    let detail = vec![("digest", digests[0].to_json()), ("checks", checks_json(&checks))];
    let correct = checks.iter().all(|c| c.pass);
    end_to_end_pass(&per_rep, correct, (timed[0].attempted, timed[0].failed), detail)
}

fn live_untraced(args: &RunArgs, reps: u64) -> Pass {
    let mut off = Tracer::new(false);
    let mut timed = Vec::new();
    for rep in 0..=reps {
        let r = live::run_rep(args.seed, args.quick, &mut off);
        eprintln!(
            "  live_fig1 rep {rep}{}: lo p50 {:.1} us, hi p50 {:.1} us, flood {:.0} pkt/s, cpu {:.3} s/s",
            if rep == 0 { " (warm-up, untimed)" } else { "" },
            r.stage("lo").p50_us(),
            r.stage("hi").p50_us(),
            r.stage("flood").goodput_pps(),
            r.cpu_s_per_s
        );
        if rep > 0 {
            timed.push(r);
        }
    }
    let checks: Vec<SloCheck> = timed.iter().flat_map(live::LiveRep::checks).collect();
    let ops = timed.iter().map(live::LiveRep::ops).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let per_rep: Vec<_> = timed.iter().map(live_values).collect();
    let stages = Json::Arr(timed.iter().map(live_stages_json).collect());
    let detail = vec![("checks", checks_json(&checks)), ("stages", stages)];
    end_to_end_pass(&per_rep, checks.iter().all(|c| c.pass), ops, detail)
}

/// A repetition's stages: the median, and the highest percentile its
/// sample count supports, with that count.
fn live_stages_json(rep: &live::LiveRep) -> Json {
    Json::Arr(
        rep.stages
            .iter()
            .map(|s| {
                let top = stats::top_percentile(s.latency_us.len()).unwrap_or(50.0);
                Json::obj(vec![
                    ("stage", Json::Str(s.stage.name.to_owned())),
                    ("offered_pps", Json::Num(s.stage.rate as f64)),
                    ("offered", Json::Num(s.offered as f64)),
                    ("delivered", Json::Num(s.delivered as f64)),
                    ("delivered_in_stage", Json::Num(s.delivered_in_stage() as f64)),
                    ("samples", Json::Num(s.latency_us.len() as f64)),
                    ("p50_us", Json::Num(s.p50_us())),
                    ("top_percentile", Json::Num(top)),
                    ("top_percentile_us", Json::Num(stats::quantile(&s.latency_us, top / 100.0))),
                    ("gen_late_p50_us", Json::Num(stats::quantile(&s.gen_late_us, 0.5))),
                    ("goodput_pps", Json::Num(s.goodput_pps())),
                ])
            })
            .collect(),
    )
}

fn layers_pass(
    l: Layers,
    checks: Vec<SloCheck>,
    ops: (u64, u64),
    mut detail: Vec<(&'static str, Json)>,
) -> Pass {
    let metrics =
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit, finite(l.values[name]))).collect();
    let bases: Vec<(&str, Json)> = l.bases.iter().map(|(k, v)| (*k, v.clone())).collect();
    detail.push(("ratio_bases", Json::obj(bases)));
    detail.push(("checks", checks_json(&checks)));
    Pass {
        correct: checks.iter().all(|c| c.pass),
        attempted: ops.0,
        failed: ops.1,
        metrics,
        detail,
    }
}

fn spans_json(spans: &layers::Spans) -> Json {
    Json::obj(
        spans
            .iter()
            .map(|(name, (self_s, calls))| {
                (
                    *name,
                    Json::obj(vec![
                        ("self_s", Json::Num(*self_s)),
                        ("calls", Json::Num(*calls as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn sim_traced(spec: &SimSpec, args: &RunArgs) -> Pass {
    let k = kernels::run_all();
    let mut off = Tracer::new(false);
    let mut untraced_rep = || sim::run_rep(spec, args.seed, spec.telemetry, &mut off);
    let rss_before = sim::proc_status_mb("VmRSS");
    let cold = untraced_rep();
    // Repetitions get faster as the allocator warms: the traced one sits
    // between the two untraced ones it is compared with.
    let before = untraced_rep();
    let mut tracer = Tracer::new(true);
    let traced = sim::run_rep(spec, args.seed, spec.telemetry, &mut tracer);
    let after = untraced_rep();
    let spans = tracer.self_times();
    write_out(&format!("trace-{}.json", spec.name), &tracer.to_json());
    drop(tracer);

    let mut digests: Vec<Digest> =
        [&cold, &before, &traced, &after].iter().map(|r| r.digest.clone()).collect();
    let extras = SimExtras {
        untraced_window_s: (before.window_s + after.window_s) / 2.0,
        telemetry_off_window_s: spec.telemetry.then(|| {
            let r = sim::run_rep(spec, args.seed, false, &mut off);
            // Telemetry only watches: the run it watched is the same run.
            digests.push(r.digest);
            r.window_s
        }),
        // Two shards on two threads is all a 2-core box can say.
        sharded_window_s: spec
            .traffic
            .is_none()
            .then(|| sim::sharded_storm_window_s(spec, args.seed, 2)),
        first_rep_rss_mb: (cold.rss_after_mb - rss_before).max(0.0),
    };
    let mut checks = traced.checks.clone();
    checks.push(digests_agree(&digests));
    let l = layers::sim_layers(spec, &traced, &spans, &k, &extras);
    let detail = vec![("digest", traced.digest.to_json()), ("spans", spans_json(&spans))];
    layers_pass(l, checks, (traced.attempted, traced.failed), detail)
}

fn live_traced(args: &RunArgs) -> Pass {
    let k = kernels::run_all();
    let untraced = live::run_rep(args.seed, args.quick, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = live::run_rep(args.seed, args.quick, &mut tracer);
    let spans = tracer.self_times();
    write_out("trace-live_fig1.json", &tracer.to_json());
    let l = layers::live_layers(&traced, &untraced, &spans, &k);
    let detail = vec![("spans", spans_json(&spans)), ("stages", live_stages_json(&traced))];
    layers_pass(l, traced.checks(), traced.ops(), detail)
}

/// One line, as the driver reads it.
fn one_line(doc: &Json) -> String {
    // `render` breaks lines only between tokens (strings are escaped),
    // so joining the trimmed lines is the same document.
    doc.render().lines().map(str::trim_start).collect()
}

fn contract_json(pass: &Pass) -> Json {
    let metrics = pass
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_owned()))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(pass.correct)),
        ("attempted", Json::Num(pass.attempted.max(1) as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Runs one pass over `name` in this process. Returns the exit code.
fn run_one(name: &str, args: &RunArgs) -> i32 {
    let reps = (args.seconds / WINDOW_SECONDS).max(1);
    let head = header(args);
    eprintln!(
        "{name}: seed {}, {}",
        args.seed,
        if args.trace { "traced pass" } else { "untraced pass" }
    );
    if head.get("noisy").and_then(Json::as_bool) == Some(true) {
        eprintln!("warning: load average above half the cores before starting; this run is noisy");
    }
    let pass = match (sim::spec(name, args.quick), name, args.trace) {
        (Some(spec), _, false) => sim_untraced(&spec, args, reps),
        (Some(spec), _, true) => sim_traced(&spec, args),
        (None, "live_fig1", false) => live_untraced(args, reps),
        (None, "live_fig1", true) => live_traced(args),
        _ => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!("error: unknown workload {name}; the workloads are {}", known.join(", "));
            return 2;
        }
    };

    for &(metric, unit, value) in &pass.metrics {
        eprintln!("  {metric:<40} {value:>16.4} {unit}");
    }
    let contract = contract_json(&pass);
    let mut doc = vec![
        ("header", head),
        ("workload", Json::Str(name.to_owned())),
        ("traced", Json::Bool(args.trace)),
        ("result", contract.clone()),
    ];
    doc.extend(pass.detail);
    write_out(
        &format!("{name}{}.json", if args.trace { "-traced" } else { "" }),
        &Json::obj(doc).render(),
    );
    if !pass.correct {
        eprintln!("{name}: an output check failed; see \"checks\" in the detail file");
    }
    println!("{}", one_line(&contract));
    i32::from(!pass.correct)
}

/// `run`: one workload in this process, or every workload in a child
/// process each.
pub fn run(args: &RunArgs) -> i32 {
    if let Some(name) = &args.workload {
        return run_one(name, args);
    }
    let exe = std::env::current_exe().expect("this binary has a path");
    let mut code = 0;
    let mut merged: BTreeMap<String, Json> = BTreeMap::new();
    let passes: &[bool] = if args.traced { &[false, true] } else { &[false] };
    for (name, _) in WORKLOADS {
        let mut docs = Vec::new();
        for &trace in passes {
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", name]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            child.args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            // The child's last line is for a driver; its detail file is for us.
            let status = child.stdout(std::process::Stdio::null()).status();
            if !status.as_ref().is_ok_and(|s| s.success()) {
                eprintln!("{name}: pass failed ({status:?})");
                code = 1;
            }
            let file = out_dir().join(format!("{name}{}.json", if trace { "-traced" } else { "" }));
            let doc = std::fs::read_to_string(&file).ok().and_then(|t| Json::parse(&t).ok());
            docs.push((if trace { "traced" } else { "untraced" }, doc.unwrap_or(Json::Null)));
        }
        merged.insert(name.to_owned(), Json::obj(docs));
    }
    let doc = Json::obj(vec![("header", header(args)), ("workloads", Json::Obj(merged))]).render();
    write_out("run.json", &doc);
    println!("{doc}");
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_mismatch_fails_the_run() {
        let a = Digest { events: 10, sent: 4, ..Digest::default() };
        let b = Digest { events: 11, ..a.clone() };
        assert!(digests_agree(&[a.clone(), a.clone(), a.clone()]).pass);
        assert!(!digests_agree(&[a.clone(), a.clone(), b]).pass);
        assert!(digests_agree(&[a]).pass);
    }

    /// A missed delivery floor makes the pass incorrect, which is what
    /// `run_one` turns into a non-zero exit.
    #[test]
    fn a_missed_floor_makes_the_pass_incorrect() {
        let mut spec = sim::spec("tunnel_1k", true).unwrap();
        let args = RunArgs {
            workload: None,
            seed: 1994,
            seconds: 5,
            trace: false,
            traced: false,
            quick: true,
        };
        assert!(sim_untraced(&spec, &args, 1).correct);
        spec.min_delivery = 1.01;
        let pass = sim_untraced(&spec, &args, 1);
        assert!(!pass.correct);
        assert_eq!(contract_json(&pass).get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn the_last_line_is_one_line_with_exactly_the_four_keys() {
        let pass = Pass {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.8127), ("peak_rss_mb", "MB", 894.0)],
            detail: Vec::new(),
        };
        let line = one_line(&contract_json(&pass));
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        let Json::Obj(map) = &back else { panic!("not an object") };
        assert_eq!(
            map.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        // `attempted` is at least 1 whatever happened.
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
