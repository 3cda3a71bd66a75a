//! Experiment harness CLI: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run --release -p sn-bench --bin experiments -- all
//! cargo run --release -p sn-bench --bin experiments -- table4
//! cargo run --release -p sn-bench --bin experiments -- table5 --quick
//! ```

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for id in which {
        let text = if id == "all" {
            sn_bench::run_all(quick)
        } else if let Some((_, run)) = sn_bench::EXPERIMENTS.iter().find(|(known, _)| *known == id)
        {
            run(quick)
        } else {
            let known: Vec<&str> = sn_bench::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "unknown experiment '{id}'; known: {} all  (flag: --quick)",
                known.join(" ")
            );
            std::process::exit(2);
        };
        writeln!(lock, "{text}").unwrap();
    }
}
