//! `compare A B`: is B, measured with the same benchmark, worse than A?
//!
//! Each side is a document written by `run` (`out/run.json`) or a
//! directory of them. One row per (end-to-end metric, workload): both
//! medians, the change, the metric's bound and a verdict. A side's
//! sample is its runs' medians, or a single run's timed repetitions;
//! the run-to-run spread is the distance between the sample's quartiles
//! as a share of its median, the wider side counting.
//!
//! * `regressed` — B's median is worse than A's by more than the bound,
//!   and the spread is within the bound (or every value of B is worse
//!   than every value of A);
//! * `unresolved` — the spread is wider than the bound, so neither a
//!   regression nor its absence can be read off, unless every value of
//!   B is better than every value of A;
//! * `ok` — otherwise.
//!
//! The simulated-statistics digests are diffed beside the table: a
//! change meant only to make the simulator faster must leave them alone.

use std::path::Path;

use workload::json::Json;

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse = |x: f64, than: f64| match m.better {
        Better::Lower => x > than,
        Better::Higher => x < than,
    };
    let worse_by = match m.better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let every_b =
        |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| pred(y, x)));
    let verdict = if worse_by > m.bound {
        if spread <= m.bound || every_b(&|y, x| worse(y, x)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if spread > m.bound && !every_b(&|y, x| worse(x, y)) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row { median_a, median_b, worse_by, spread, verdict }
}

/// The run documents at `path`: the file, or every `*.json` in the
/// directory that parses as one.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        doc.get("workloads")
            .is_some()
            .then_some(doc)
            .ok_or(format!("{}: not a run document", p.display()))
    };
    let p = Path::new(path);
    if !p.is_dir() {
        return Ok(vec![read(p)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(p)
        .map_err(|e| format!("{path}: {e}"))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|f| f.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let docs: Vec<Json> = files.iter().filter_map(|f| read(f).ok()).collect();
    if docs.is_empty() {
        return Err(format!("{path}: no run documents"));
    }
    Ok(docs)
}

fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)?.get("untraced")
}

/// A side's sample of `metric` on `workload`.
fn sample(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    let floats =
        |v: &Json| v.as_arr().map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<_>>());
    let reps = |d: &Json| untraced(d, workload)?.get("reps")?.get(metric).and_then(floats);
    if let [only] = docs {
        return reps(only).unwrap_or_default();
    }
    docs.iter()
        .filter_map(|d| {
            untraced(d, workload)?
                .get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn digest_diff(a: &Json, b: &Json, workload: &str) -> Vec<String> {
    let digest = |d: &Json| untraced(d, workload).and_then(|u| u.get("digest")).cloned();
    let (Some(Json::Obj(da)), Some(Json::Obj(db))) = (digest(a), digest(b)) else {
        return Vec::new();
    };
    da.iter()
        .filter_map(|(key, va)| {
            let vb = db.get(key)?;
            (va != vb).then(|| format!("{workload}: {key} {} -> {}", va.render(), vb.render()))
        })
        .collect()
}

/// Prints the table; the exit code is non-zero on any `regressed`.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return 2;
        }
    };
    let seed = |d: &Json| d.get("header").and_then(|h| h.get("seed")).and_then(Json::as_u64);
    println!("A: {path_a} ({} run(s))   B: {path_b} ({} run(s))", a.len(), b.len());
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread"
    );
    let mut regressed = 0;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (sample(&a, workload, m.name), sample(&b, workload, m.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{workload:<10} {:<18} missing on one side", m.name);
                continue;
            }
            let row = judge(m, &sa, &sb);
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{workload:<10} {:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                m.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                m.bound * 100.0,
                row.spread * 100.0,
                row.verdict.as_str()
            );
        }
    }
    // Digests are a function of commit and seed: diff first run to first
    // run, and only where the seeds agree.
    let diffs: Vec<String> = if seed(&a[0]) == seed(&b[0]) {
        WORKLOADS.iter().flat_map(|(w, _)| digest_diff(&a[0], &b[0], w)).collect()
    } else {
        vec!["seeds differ between A and B: digests not compared".to_owned()]
    };
    println!(
        "simulated-statistics digests: {}",
        if diffs.is_empty() { "identical" } else { "DIFFER" }
    );
    for d in &diffs {
        println!("  {d}");
    }
    i32::from(regressed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with bounds of the tests' own, whatever the tables say.
    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd { name: "m", unit: "u", better, bound }
    }

    #[test]
    fn verdicts() {
        let wall = &metric(Better::Lower, 0.10);
        let steady = [1.00, 1.01, 0.99];
        assert_eq!(judge(wall, &steady, &[1.02, 1.03, 1.01]).verdict, Verdict::Ok);
        assert_eq!(judge(wall, &steady, &[1.20, 1.21, 1.19]).verdict, Verdict::Regressed);
        // Better by any margin is never a regression.
        assert_eq!(judge(wall, &steady, &[0.50, 0.51, 0.49]).verdict, Verdict::Ok);
        // Spread wider than the bound: a small difference cannot be read...
        let wide = [1.00, 1.15, 0.90];
        assert_eq!(judge(wall, &wide, &[1.02, 1.10, 0.95]).verdict, Verdict::Unresolved);
        // ...nor can a large one while the samples overlap...
        assert_eq!(judge(wall, &wide, &[1.14, 1.30, 1.05]).verdict, Verdict::Unresolved);
        // ...unless every B is on one side of every A.
        assert_eq!(judge(wall, &wide, &[1.40, 1.60, 1.30]).verdict, Verdict::Regressed);
        assert_eq!(judge(wall, &wide, &[0.80, 0.85, 0.70]).verdict, Verdict::Ok);

        let goodput = &metric(Better::Higher, 0.15);
        let row = judge(goodput, &[66e3, 67e3, 65e3], &[50e3, 51e3, 49e3]);
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse_by - 16.0 / 66.0).abs() < 1e-9);
        assert_eq!(judge(goodput, &[66e3, 67e3, 65e3], &[80e3, 81e3, 79e3]).verdict, Verdict::Ok);
        // A single value per side has no spread.
        let rss = &metric(Better::Lower, 0.05);
        assert_eq!(judge(rss, &[894.0], &[900.0]).verdict, Verdict::Ok);
        assert_eq!(judge(rss, &[894.0], &[960.0]).verdict, Verdict::Regressed);
    }

    fn run_doc(seed: u64, wall: [f64; 3], events: u64) -> Json {
        let reps = Json::obj(vec![(
            "wall_s_per_sim_s",
            Json::Arr(wall.iter().map(|&v| Json::Num(v)).collect()),
        )]);
        let value = Json::obj(vec![("value", Json::Num(stats::median(&wall)))]);
        let result = Json::obj(vec![("metrics", Json::obj(vec![("wall_s_per_sim_s", value)]))]);
        let digest =
            Json::obj(vec![("events", Json::Num(events as f64)), ("sent", Json::Num(0.0))]);
        let untraced = Json::obj(vec![("reps", reps), ("result", result), ("digest", digest)]);
        let workloads = Json::obj(vec![("storm_25k", Json::obj(vec![("untraced", untraced)]))]);
        Json::obj(vec![
            ("header", Json::obj(vec![("seed", Json::Num(seed as f64))])),
            ("workloads", workloads),
        ])
    }

    #[test]
    fn samples_and_digest_diffs_come_out_of_run_documents() {
        let a = run_doc(7, [0.9, 1.0, 1.1], 100);
        let b = run_doc(7, [1.9, 2.0, 2.1], 101);
        // One run: its repetitions. Several: each run's median.
        assert_eq!(
            sample(std::slice::from_ref(&a), "storm_25k", "wall_s_per_sim_s"),
            [0.9, 1.0, 1.1]
        );
        assert_eq!(sample(&[a.clone(), b.clone()], "storm_25k", "wall_s_per_sim_s"), [1.0, 2.0]);
        assert!(sample(std::slice::from_ref(&a), "tunnel_1k", "wall_s_per_sim_s").is_empty());
        assert!(digest_diff(&a, &a, "storm_25k").is_empty());
        assert_eq!(digest_diff(&a, &b, "storm_25k"), ["storm_25k: events 100 -> 101"]);
    }
}
