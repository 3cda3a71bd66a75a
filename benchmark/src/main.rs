//! The repository's benchmark. One command, one schema:
//!
//! ```text
//! sn-benchmark run    [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! sn-benchmark repeat N [--workload W] [--seed N] [--seconds S] [--vary-seed]
//! ```
//!
//! `run` prints, per workload, a report line (every metric with unit,
//! direction, bound and sample count, plus a host block) and then the result
//! line `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! without `--trace`, per-layer metrics with it. See README.md for what the
//! workloads and metrics are and why.

mod alloc;
mod harness;
mod host;
mod metrics;
mod refk;
mod repeat;
mod rng;
#[cfg(test)]
mod smoke;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{Checks, Outcome, Workload};
use metrics::{quote, Values, END_TO_END, PER_LAYER};
use workloads::plan_cold::PlanCold;
use workloads::plan_reuse::PlanReuse;
use workloads::serve_mixed::ServeMixed;
use workloads::train_exec::TrainExec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed a bare `run` uses (the driver always passes its own).
pub const DEFAULT_SEED: u64 = 20_180_224;
/// `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub vary_seed: bool,
}

fn usage() -> String {
    format!(
        "usage: sn-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n\
         \x20      sn-benchmark repeat N [--workload W] [--seed N] [--seconds S] [--vary-seed]\n\
         workloads: {}",
        workloads::NAMES.join(" ")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        vary_seed: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                // Any 64-bit integer is a seed; a negative one wraps.
                let v = value("a whole number")?;
                a.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--vary-seed" => a.vary_seed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn host_json(nproc: usize, pinned: Option<usize>, keeps_memory: bool) -> String {
    format!(
        "{{\"nproc\": {}, \"pinned_cpu\": {}, \"keeps_freed_memory\": {}, \"cpu_model\": {}, \
         \"git_rev\": {}}}",
        nproc,
        pinned.map_or("null".into(), |c| c.to_string()),
        keeps_memory,
        quote(&host::cpu_model()),
        quote(&host::git_rev())
    )
}

/// A workload's unit of work and the reason it exists.
fn about(name: &str) -> (&'static str, &'static str) {
    match name {
        PlanCold::NAME => (PlanCold::UNIT, PlanCold::WHY),
        PlanReuse::NAME => (PlanReuse::UNIT, PlanReuse::WHY),
        TrainExec::NAME => (TrainExec::UNIT, TrainExec::WHY),
        ServeMixed::NAME => (ServeMixed::UNIT, ServeMixed::WHY),
        other => unreachable!("{other} is not a workload"),
    }
}

/// `BENCHMARK.json`, from the catalogue and the workloads' own constants:
/// `sn-benchmark manifest > BENCHMARK.json` is how the file is written, and a
/// test fails when the two drift apart.
fn manifest() -> String {
    let workloads: Vec<String> = workloads::NAMES
        .iter()
        .map(|name| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(name),
                quote(about(name).1)
            )
        })
        .collect();
    let defs = |defs: &[metrics::Def]| {
        defs.iter()
            .map(|d| {
                let bound = if d.bound > 0.0 {
                    format!(", \"bound\": {}", metrics::num(d.bound))
                } else {
                    String::new()
                };
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(d.name),
                    quote(d.unit),
                    quote(d.better.as_str())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        metrics::num(DEFAULT_SECONDS),
        workloads.join(",\n"),
        defs(END_TO_END),
        defs(PER_LAYER)
    )
}

/// Print the report line and the result line of one workload's run.
fn emit(name: &str, args: &Args, out: &Outcome, defs: &[metrics::Def], host: &str) {
    let missing = out.values.missing(defs);
    assert!(missing.is_empty(), "metrics not measured: {missing:?}");
    println!(
        "{{\"workload\": {}, \"unit_of_work\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"quick\": {}, \"host\": {}, \"report\": {}}}",
        quote(name),
        quote(about(name).0),
        quote(about(name).1),
        args.seed,
        metrics::num(args.seconds),
        args.trace,
        args.quick,
        host,
        out.values.report_json()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.values.result_json(defs)
    );
}

/// The traced run: every workload contributes its own layers' metrics from
/// a short traced stretch; the selected one gets most of the time and also
/// reports the harness metrics, the time shares and the trace file.
fn traced_run(selected: &str, args: &Args) -> Outcome {
    let mut values = Values::default();
    let mut checks = Checks::default();
    let others = (workloads::NAMES.len() - 1) as f64;
    let budget = |name: &str| {
        if name == selected {
            args.seconds * 0.55
        } else {
            args.seconds * 0.45 / others
        }
    };
    fn one<W: Workload>(
        selected: &str,
        args: &Args,
        seconds: f64,
        values: &mut Values,
        checks: &mut Checks,
    ) {
        let is_selected = W::NAME == selected;
        let spans =
            harness::traced::<W>(args.seed, seconds, args.quick, is_selected, values, checks);
        if is_selected {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{}.json", W::NAME);
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace::to_json(&spans, 50_000)));
            match written {
                Ok(()) => eprintln!("trace: {} spans -> {path}", spans.len()),
                Err(e) => eprintln!("trace: could not write {path}: {e}"),
            }
        }
    }
    one::<PlanCold>(
        selected,
        args,
        budget(PlanCold::NAME),
        &mut values,
        &mut checks,
    );
    one::<PlanReuse>(
        selected,
        args,
        budget(PlanReuse::NAME),
        &mut values,
        &mut checks,
    );
    one::<TrainExec>(
        selected,
        args,
        budget(TrainExec::NAME),
        &mut values,
        &mut checks,
    );
    one::<ServeMixed>(
        selected,
        args,
        budget(ServeMixed::NAME),
        &mut values,
        &mut checks,
    );
    Outcome {
        values,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
    }
}

fn run_one(name: &str, args: &Args, host: &str) -> bool {
    let out = if args.trace {
        traced_run(name, args)
    } else {
        let (seed, seconds, quick) = (args.seed, args.seconds, args.quick);
        match name {
            "plan_cold" => harness::end_to_end::<PlanCold>(seed, seconds, quick),
            "plan_reuse" => harness::end_to_end::<PlanReuse>(seed, seconds, quick),
            "train_exec" => harness::end_to_end::<TrainExec>(seed, seconds, quick),
            "serve_mixed" => harness::end_to_end::<ServeMixed>(seed, seconds, quick),
            other => unreachable!("{other} passed the argument check"),
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    emit(name, args, &out, defs, host);
    out.correct()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse(&argv[1..]).map(|args| {
            let names: Vec<&str> = match &args.workload {
                Some(w) => vec![w.as_str()],
                None => workloads::NAMES.to_vec(),
            };
            // Count the CPUs before giving all but one of them up.
            let nproc = host::nproc();
            let host = host_json(nproc, host::pin_to_one_cpu(), host::keep_freed_memory());
            // Run them all even after a failure: every workload's numbers
            // are worth seeing.
            let oks: Vec<bool> = names.iter().map(|n| run_one(n, &args, &host)).collect();
            oks.iter().all(|ok| *ok)
        }),
        Some("repeat") => match argv.get(1).and_then(|n| n.parse::<usize>().ok()) {
            Some(n) if n >= 2 => parse(&argv[2..]).and_then(|args| repeat::repeat(n, &args)),
            _ => Err("repeat needs a count of at least 2".into()),
        },
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => Err("expected `run` or `repeat`".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&v)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload serve_mixed --seed 42 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, false));
        assert!(args("--workload plan_cold --trace 1").unwrap().trace);
        assert!(args("--trace --quick").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert_eq!(args("--seed -1").unwrap().seed, u64::MAX);
        assert!(args("--seed x").is_err());
    }

    /// `BENCHMARK.json` is generated (`sn-benchmark manifest`); this keeps the
    /// committed file in step with the catalogue, and both inside the
    /// contract's limits.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            file,
            manifest(),
            "run `sn-benchmark manifest > BENCHMARK.json`"
        );
        assert!(file.len() <= 64 * 1024);
        for why in [
            PlanCold::WHY,
            PlanReuse::WHY,
            TrainExec::WHY,
            ServeMixed::WHY,
        ] {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(
            workloads::NAMES,
            [
                PlanCold::NAME,
                PlanReuse::NAME,
                TrainExec::NAME,
                ServeMixed::NAME
            ]
        );
    }
}
