//! # sn-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§4). Each
//! returns the formatted report it prints, so integration tests can assert
//! on the *shape* of the results (who wins, by roughly what factor, where
//! the crossovers fall) without duplicating the measurement code.
//!
//! Run everything with `cargo run --release -p sn-bench --bin experiments --
//! all` (or a single experiment id, e.g. `table4`). Experiments that emit a
//! `BENCH_<id>.json` artifact write it through one
//! [`record::BenchRecord`]; how fast the stack runs on the host is the repo
//! benchmark's job (`benchmark/`).

pub mod ablation;
pub mod cluster;
pub mod dataparallel;
pub mod experiments;
pub mod faults;
pub mod overlap;
pub mod plan;
pub mod precision;
pub mod record;
pub mod service;
pub mod table;
pub mod trace;
pub mod tune;

pub use experiments::*;
