//! `repeat N`: run a workload N times, each in a process of its own (peak
//! RSS is per process), and print what the bounds in `BENCHMARK.json` are
//! judged by: per metric the median, the quartiles as Python's
//! `statistics.quantiles(n=4)` gives them, and their distance as a share of
//! the median.
//!
//! With one seed (the default) every exact metric must read the same to the
//! last digit in all N runs, or the command fails. With `--vary-seed` run `i`
//! uses seed + i, the driver's procedure, and the spreads include what the
//! inputs contribute.

use std::process::{Command, Stdio};

use crate::metrics::{num, END_TO_END};
use crate::{stats, workloads, Args};

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let start = rest.find("\"value\": ")? + "\"value\": ".len();
    let end = rest[start..].find([',', '}'])?;
    rest[start..start + end].trim().parse().ok()
}

/// One run in a child process: its report line and its result line.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &num(seconds)])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or("").to_string();
    let report = lines.next().unwrap_or("").to_string();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}, result line {last}",
            out.status.code()
        ));
    }
    Ok((report, last))
}

pub fn repeat(n: usize, args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        let mut lines = Vec::with_capacity(n);
        for i in 0..n {
            let seed = if args.vary_seed {
                args.seed + i as u64
            } else {
                args.seed
            };
            lines.push(run_child(name, seed, args.seconds)?);
        }
        let seeds = if args.vary_seed {
            format!("seeds {}..={}", args.seed, args.seed + n as u64 - 1)
        } else {
            format!("seed {}", args.seed)
        };
        println!(
            "\n### {name} — {n} runs of {} s, {seeds}\n",
            num(args.seconds)
        );
        println!("| metric | unit | median | q1 | q3 | spread | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|");
        for d in END_TO_END {
            let v: Vec<f64> = lines
                .iter()
                .map(|(_, l)| metric(l, d.name).ok_or_else(|| format!("{}: no {}", name, d.name)))
                .collect::<Result<_, _>>()?;
            let (q1, q3) = stats::quartiles(&v);
            let spread = stats::spread(&v);
            let identical = v.iter().all(|x| *x == v[0]);
            let verdict = if d.exact && !args.vary_seed && !identical {
                ok = false;
                "NOT EXACT"
            } else if d.name != "setup_s" && spread > d.bound {
                ok = false;
                "TOO NOISY"
            } else if identical {
                "identical"
            } else if spread * 3.0 <= d.bound {
                "steady"
            } else {
                "within bound"
            };
            println!(
                "| `{}` | {} | {} | {} | {} | {:.4} | {} | {verdict} |",
                d.name,
                d.unit,
                num(stats::median(&v)),
                num(q1),
                num(q3),
                spread,
                num(d.bound)
            );
        }
        // Not gated, and the reason `ref_cost` exists: the raw rate of the
        // same runs, and each run's calibrated cost beside it.
        let column = |from: fn(&(String, String)) -> &String, metric_name: &str| {
            lines
                .iter()
                .filter_map(|l| metric(from(l), metric_name))
                .collect::<Vec<f64>>()
        };
        let raw = column(|l| &l.0, "host.units_per_s");
        let cost = column(|l| &l.1, "ref_cost");
        if raw.len() == n {
            println!(
                "\nraw `host.units_per_s`: median {:.0}, spread {:.4} (`ref_cost` spread {:.4})",
                stats::median(&raw),
                stats::spread(&raw),
                stats::spread(&cost)
            );
        }
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("`ref_cost` by run: {}", list(&cost));
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_are_read_off_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
            {\"ref_cost\": {\"value\": 6.25, \"unit\": \"ref/pass\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        assert_eq!(metric(line, "ref_cost"), Some(6.25));
        assert_eq!(metric(line, "setup_s"), Some(0.8127));
        assert_eq!(metric(line, "fit_share"), None);
    }
}
