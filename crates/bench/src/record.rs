//! The one artifact envelope: every `BENCH_<experiment>.json` is a
//! [`BenchRecord`] printed through [`Json`].
//!
//! ```json
//! {"experiment":"plan","mode":"full",
//!  "gates":{"all_peaks_match":"pass"},
//!  "deterministic":{...}}
//! ```
//!
//! `deterministic` holds what the source alone decides (simulated times,
//! bytes, counts), and no field holds what the host decides (clock
//! readings): two runs of one commit print the whole file byte for byte, and
//! CI `cmp`s it. A gate prints `pass` or `fail`; every gate is one the source
//! alone decides, so none needs a third word.

use sn_telemetry::Json;

/// One experiment's artifact.
pub struct BenchRecord {
    pub experiment: &'static str,
    pub quick: bool,
    /// Named checks and whether each held.
    pub gates: Vec<(&'static str, bool)>,
    /// An object: what the source alone decides.
    pub deterministic: Json,
}

impl BenchRecord {
    pub fn json(self) -> Json {
        let mut gates = Json::object();
        for (name, held) in self.gates {
            gates = gates.with(name, if held { "pass" } else { "fail" });
        }
        Json::object()
            .with("experiment", self.experiment)
            .with("mode", if self.quick { "quick" } else { "full" })
            .with("gates", gates)
            .with("deterministic", self.deterministic)
    }

    /// Write `BENCH_<experiment>.json` into the current directory; returns
    /// the line the experiment's report ends with.
    pub fn write(self) -> String {
        let path = format!("BENCH_{}.json", self.experiment);
        write_artifact(&path, &self.json().to_string())
    }
}

/// Write one artifact file, reporting the outcome as a line of text (an
/// experiment still prints its tables when the directory is read-only).
pub fn write_artifact(path: &str, contents: &str) -> String {
    match std::fs::write(path, contents) {
        Ok(()) => format!("wrote {path}\n"),
        Err(e) => format!("could not write {path}: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_prints_identically_twice() {
        let record = || BenchRecord {
            experiment: "example",
            quick: true,
            gates: vec![("peaks_match", true), ("ordering", false)],
            deterministic: Json::object().with("rows", Json::array([1u64, 2])),
        };
        let text = record().json().to_string();
        assert_eq!(text, record().json().to_string());
        assert_eq!(
            text,
            "{\"experiment\":\"example\",\"mode\":\"quick\",\
             \"gates\":{\"peaks_match\":\"pass\",\"ordering\":\"fail\"},\
             \"deterministic\":{\"rows\":[1,2]}}"
        );
    }
}
