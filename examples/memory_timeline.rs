//! Memory timeline inspector: print the Fig. 10-style stepwise resident
//! memory and live-tensor series for any network/policy as CSV.
//!
//! ```text
//! cargo run --release --example memory_timeline [net] [batch] [policy]
//!   net    = alexnet | vgg16 | resnet50 | inception (default alexnet)
//!   batch  = default 64
//!   policy = baseline | liveness | offload | full | superneurons (default)
//! ```

use superneurons::runtime::Executor;
use superneurons::{DeviceSpec, Policy};

fn main() {
    let mut args = std::env::args().skip(1);
    let net_name = args.next().unwrap_or_else(|| "alexnet".into());
    let batch: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let policy_name = args.next().unwrap_or_else(|| "superneurons".into());

    let net = match net_name.as_str() {
        "alexnet" => superneurons::models::alexnet(batch),
        "vgg16" => superneurons::models::vgg16(batch),
        "resnet50" => superneurons::models::resnet50(batch),
        "inception" => superneurons::models::inception_v4(batch),
        other => {
            eprintln!("unknown net '{other}'");
            std::process::exit(2);
        }
    };
    let policy = match policy_name.as_str() {
        "baseline" => Policy::baseline(),
        "liveness" => Policy::liveness_only(),
        "offload" => Policy::liveness_offload(),
        "full" => Policy::full_memory(),
        "superneurons" => Policy::superneurons(),
        other => {
            eprintln!("unknown policy '{other}'");
            std::process::exit(2);
        }
    };

    let mut ex = Executor::new(&net, DeviceSpec::k40c(), policy).unwrap_or_else(|e| {
        eprintln!("cannot start: {e}");
        std::process::exit(1);
    });
    match ex.run_iteration() {
        Ok(r) => {
            let trace = ex.last_trace();
            println!("step,phase,layer,resident_mb,live_tensors,free_mb");
            for rec in &trace.records {
                println!(
                    "{},{},{},{:.2},{},{:.2}",
                    rec.step,
                    match rec.phase {
                        superneurons::sim::trace::Phase::Forward => "fwd",
                        superneurons::sim::trace::Phase::Backward => "bwd",
                    },
                    rec.layer,
                    rec.resident_bytes as f64 / 1e6,
                    rec.live_tensors,
                    rec.free_bytes as f64 / 1e6
                );
            }
            eprintln!(
                "# peak {:.2} MB at '{}'; iteration {:.1} ms; traffic {:.1} MB",
                r.peak_bytes as f64 / 1e6,
                trace
                    .peak_step()
                    .map(|p| p.layer.clone())
                    .unwrap_or_default(),
                r.iter_time.as_ms_f64(),
                (r.h2d_bytes + r.d2h_bytes) as f64 / 1e6
            );
        }
        Err(e) => eprintln!("iteration failed: {e}"),
    }
}
