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
        let text = match id {
            "fig2" => sn_bench::fig2(),
            "fig8" => sn_bench::fig8(),
            "fig10" => sn_bench::fig10(),
            "table1" => sn_bench::table1(),
            "table2" => sn_bench::table2(),
            "table3" => sn_bench::table3(),
            "fig11" => sn_bench::fig11(),
            "fig12" => sn_bench::fig12(),
            "table4" => sn_bench::table4(quick),
            "table5" => sn_bench::table5(quick),
            "fig13" => sn_bench::fig13(quick),
            "fig14" => sn_bench::fig14(quick),
            "ablation" => sn_bench::run_ablations(),
            "overlap" => sn_bench::overlap(quick),
            "cluster" => sn_bench::cluster(quick),
            "plan" => sn_bench::plan(quick),
            "dataparallel" => sn_bench::dataparallel(quick),
            "precision" => sn_bench::precision(quick),
            "trace" => sn_bench::trace(quick),
            "service" => sn_bench::service(quick),
            "faults" => sn_bench::faults(quick),
            "tune" => sn_bench::tune(quick),
            "all" => sn_bench::run_all(quick),
            other => {
                eprintln!(
                    "unknown experiment '{other}'; known: fig2 fig8 fig10 table1 table2 table3 \
                     fig11 fig12 table4 table5 fig13 fig14 ablation overlap cluster plan \
                     dataparallel precision trace service faults tune all  (flag: --quick)"
                );
                std::process::exit(2);
            }
        };
        writeln!(lock, "{text}").unwrap();
    }
}
