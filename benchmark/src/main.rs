//! The repo benchmark: four workloads, six end-to-end metrics with
//! regression bounds, and an outside-in attribution of where the time
//! goes by layer. See `README.md` beside this package.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--quick]
//! benchmark compare A B
//! ```
//!
//! `run --workload W` measures one workload in this process and ends
//! its standard output with the one JSON line a driver reads; `--trace 1`
//! makes it the traced pass (per-layer metrics) instead of the untraced
//! one (end-to-end metrics). `run` without `--workload` runs every
//! workload, each in a child process, adds the traced passes with
//! `--traced`, and prints one merged document. Either exits non-zero
//! when an output check fails. `compare` judges run B against run A.

mod compare;
mod harness;
mod kernels;
mod layers;
mod live;
mod metrics;
mod sim;
mod spans;
mod stats;

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--quick]
  benchmark compare A B        (each a run document or a directory of them)";

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> harness::RunArgs {
    let mut run = harness::RunArgs {
        workload: None,
        seed: 1994,
        // Three timed repetitions.
        seconds: 15,
        trace: false,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |v: &String| {
            v.parse::<u64>().unwrap_or_else(|_| usage(&format!("{flag} wants a number, got {v}")))
        };
        match flag.as_str() {
            "--workload" => run.workload = Some(value().clone()),
            "--seed" => run.seed = number(value()),
            "--seconds" => run.seconds = number(value()),
            "--trace" => run.trace = number(value()) != 0,
            "--traced" => run.traced = true,
            "--quick" => run.quick = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    run
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => harness::run(&parse_run(&args[1..])),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => usage("compare takes two paths"),
        },
        _ => usage("expected `run` or `compare`"),
    };
    std::process::exit(code);
}
