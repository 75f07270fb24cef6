//! Workload trace serialization.
//!
//! Workloads round-trip through JSON so experiments can be archived and
//! replayed bit-identically.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::submission::Submission;

/// A saved workload with provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Free-form description (generator name, seed, intent).
    pub description: String,
    /// Seed used to generate it, if any.
    pub seed: Option<u64>,
    /// The submissions, time-ordered.
    pub submissions: Vec<Submission>,
}

impl Trace {
    /// Wraps a workload in a trace envelope.
    pub fn new(
        description: impl Into<String>,
        seed: Option<u64>,
        submissions: Vec<Submission>,
    ) -> Self {
        Trace {
            description: description.into(),
            seed,
            submissions,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace types are serde-safe")
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads a trace from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{paper_workload, PaperWorkloadParams};

    #[test]
    fn json_round_trip() {
        let t = Trace::new(
            "paper workload",
            None,
            paper_workload(PaperWorkloadParams::default()),
        );
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.submissions.len(), 65);
    }

    #[test]
    fn file_round_trip() {
        // A directory of this test's own, removed whatever the outcome.
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            TempDir(std::env::temp_dir().join(format!("meryn-trace-test-{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("w.json");
        let t = Trace::new(
            "gen",
            Some(42),
            crate::generators::generate(
                &crate::generators::GeneratorConfig::datacenter(
                    20,
                    meryn_sim::SimDuration::from_secs(5),
                ),
                42,
            ),
        );
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Trace::from_json("{not json").is_err());
    }
}
