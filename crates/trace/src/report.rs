//! The versioned metrics document.
//!
//! [`metrics_document`] assembles everything the collectors hold — scalar
//! counters, the GEMM matrix, completed spans, events — together with the
//! run- and cache-level facts only the caller knows, into one JSON
//! document. `repro --metrics <path>` writes it via [`write_metrics`];
//! the `metrics_check` validator and CI consume it.
//!
//! Schema (version [`SCHEMA_VERSION`]):
//!
//! ```text
//! {
//!   "schema": "lrd-metrics",
//!   "schema_version": 2,
//!   "run":      { command, wall_s, workers, samples, steps, kernel_backend },
//!   "cache":    { hits, misses, lookups, hit_rate, distinct_factors },
//!   "counters": { <name>: <u64>, … },                 // every ALL name, always
//!   "gemm":     [ { variant, backend, dtype, calls, flops }, … ],
//!   "spans":    [ { id, parent, name, label, start_us, dur_us }, … ],
//!   "events":   [ { name, label, <field>: <f64>, … }, … ]
//! }
//! ```
//!
//! Invariants the validator enforces: every number finite,
//! `cache.lookups == cache.hits + cache.misses`, span durations fit
//! inside the run, counters present for every [`crate::counters::ALL`]
//! name.

use crate::json::Json;
use crate::{counters, event, span};

/// Version of the metrics document layout. Bump on any breaking change to
/// the key structure above and describe the change in `DESIGN.md` §8.
///
/// v2: `run.kernel_gflops` is gone with the timer that measured it;
/// kernel throughput is perfbench's and the criterion benches' to time.
pub const SCHEMA_VERSION: u64 = 2;

/// Identifying string in the document's `schema` key.
pub const SCHEMA_NAME: &str = "lrd-metrics";

/// Run-level facts only the driver binary knows.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// The repro subcommand and flags, e.g. `"fig9 --fast"`.
    pub command: String,
    /// End-to-end wall-clock seconds.
    pub wall_s: f64,
    /// Worker processes/threads the sweep ran with.
    pub workers: u64,
    /// Eval samples per benchmark task.
    pub samples: u64,
    /// Calibration steps.
    pub steps: u64,
    /// Resolved kernel backend name.
    pub kernel_backend: String,
}

/// Decomposition-cache totals, summed across every executor in the run.
///
/// Feed this from `DecompositionCache::stats()` so the document matches
/// the cache's own accounting exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheInfo {
    /// Lookups served from a memoized factor.
    pub hits: u64,
    /// Lookups that ran the SVD.
    pub misses: u64,
    /// Distinct factor entries resident at the end of the run.
    pub distinct_factors: u64,
}

impl CacheInfo {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Assembles the full metrics document from the caller's run/cache facts
/// plus snapshots of every process-global collector.
pub fn metrics_document(run: &RunInfo, cache: &CacheInfo) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA_NAME)),
        ("schema_version", Json::uint(SCHEMA_VERSION)),
        (
            "run",
            Json::obj([
                ("command", Json::str(run.command.clone())),
                ("wall_s", Json::num(run.wall_s)),
                ("workers", Json::uint(run.workers)),
                ("samples", Json::uint(run.samples)),
                ("steps", Json::uint(run.steps)),
                ("kernel_backend", Json::str(run.kernel_backend.clone())),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::uint(cache.hits)),
                ("misses", Json::uint(cache.misses)),
                ("lookups", Json::uint(cache.lookups())),
                ("hit_rate", Json::num(cache.hit_rate())),
                ("distinct_factors", Json::uint(cache.distinct_factors)),
            ]),
        ),
        (
            "counters",
            Json::Obj(
                counters::snapshot()
                    .into_iter()
                    .map(|(name, value)| (name.to_string(), Json::uint(value)))
                    .collect(),
            ),
        ),
        (
            "gemm",
            Json::Arr(
                counters::gemm_snapshot()
                    .into_iter()
                    .map(|g| {
                        Json::obj([
                            ("variant", Json::str(g.variant)),
                            ("backend", Json::str(g.backend)),
                            ("dtype", Json::str(g.dtype)),
                            ("calls", Json::uint(g.calls)),
                            ("flops", Json::uint(g.flops)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(span::snapshot().into_iter().map(span_json).collect()),
        ),
        (
            "events",
            Json::Arr(event::snapshot().into_iter().map(event_json).collect()),
        ),
    ])
}

fn span_json(s: span::SpanRecord) -> Json {
    Json::obj([
        ("id", Json::uint(s.id)),
        ("parent", s.parent.map(Json::uint).unwrap_or(Json::Null)),
        ("name", Json::str(s.name)),
        ("label", Json::str(s.label)),
        ("start_us", Json::uint(s.start_us)),
        ("dur_us", Json::uint(s.dur_us)),
    ])
}

fn event_json(e: event::EventRecord) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("name".to_string(), Json::str(e.name)),
        ("label".to_string(), Json::str(e.label)),
    ];
    pairs.extend(
        e.fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::num(v))),
    );
    Json::Obj(pairs)
}

/// Renders and writes the metrics document to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_metrics(
    path: &std::path::Path,
    run: &RunInfo,
    cache: &CacheInfo,
) -> std::io::Result<()> {
    std::fs::write(path, metrics_document(run, cache).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn test_run() -> RunInfo {
        RunInfo {
            command: "fig9 --fast".into(),
            wall_s: 23.9,
            workers: 1,
            samples: 60,
            steps: 8,
            kernel_backend: "scalar".into(),
        }
    }

    #[test]
    fn document_has_schema_and_all_counters() {
        let cache = CacheInfo {
            hits: 819,
            misses: 224,
            distinct_factors: 224,
        };
        let doc = metrics_document(&test_run(), &cache);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        assert_eq!(
            doc.get("schema_version").unwrap().as_num(),
            Some(SCHEMA_VERSION as f64)
        );
        let counters_obj = doc.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters_obj.len(), counters::ALL.len());
        for c in counters::ALL {
            assert!(
                doc.get("counters").unwrap().get(c.name()).is_some(),
                "counter {} missing",
                c.name()
            );
        }
        let cache_obj = doc.get("cache").unwrap();
        assert_eq!(cache_obj.get("lookups").unwrap().as_num(), Some(1043.0));
        let hit_rate = cache_obj.get("hit_rate").unwrap().as_num().unwrap();
        assert!((hit_rate - 819.0 / 1043.0).abs() < 1e-12);
    }

    #[test]
    fn document_round_trips_through_parser() {
        let doc = metrics_document(&test_run(), &CacheInfo::default());
        let text = doc.render();
        let back = json::parse(&text).expect("document parses");
        assert_eq!(back.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        assert!(back
            .get("run")
            .unwrap()
            .get("wall_s")
            .unwrap()
            .as_num()
            .is_some());
        assert!(back.get("gemm").unwrap().as_arr().is_some());
        assert!(back.get("spans").unwrap().as_arr().is_some());
        assert!(back.get("events").unwrap().as_arr().is_some());
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let cache = CacheInfo::default();
        assert_eq!(cache.hit_rate(), 0.0);
        assert_eq!(cache.lookups(), 0);
    }
}
