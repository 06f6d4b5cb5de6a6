//! Durable run journal: crash-safe checkpoint/resume for sweeps.
//!
//! Every completed (or permanently failed) [`StudyPoint`] is appended to a
//! JSONL file — one self-describing, schema-versioned record per line,
//! rendered compactly via the `lrd-trace` JSON writer. On `--resume` the
//! journal is reloaded and points whose `(figure, fingerprint)` key matches
//! a journaled record are *not* recomputed; their results are restored
//! from the record, bit-identically:
//!
//! * `param_reduction_pct` survives exactly because the JSON writer uses
//!   Rust's shortest-round-trip `f64` formatting;
//! * accuracies are `(correct, total)` integer pairs, exact by nature.
//!
//! The fingerprint ([`fingerprint`]) hashes everything that determines a
//! point's value — the label, the full decomposition configuration
//! (layers, tensors, pruned ranks), the benchmark names, and the eval
//! sample count and seed — so a journal recorded under different settings
//! can never masquerade as valid checkpoints. It is serialized as a hex
//! *string* because JSON numbers are `f64` and cannot carry 64 bits.
//!
//! Crash safety: appends rewrite the whole journal to a sibling tmp file,
//! fsync it, and `rename(2)` it over the old one — readers never observe a
//! torn record from *our* writes. A journal truncated by the crash itself
//! (e.g. `kill -9` mid-write on a non-atomic filesystem, or a partial copy)
//! is still loadable: unparsable lines — in particular a torn final line —
//! are dropped, never fatal; each drop is warned about with its line
//! number and counted (`journal_lines_dropped`), so a corrupted shard
//! cannot masquerade as a short-but-clean one.
//!
//! Beyond crash recovery the journal is the sweep suite's *distribution*
//! mechanism: [`Shard`] deterministically partitions a figure's points by
//! fingerprint so coordinator-free workers compute disjoint subsets, and
//! [`Journal::merge`] combines the shard journals back into one journal
//! whose resumed result table is bit-identical to an unsharded run
//! (DESIGN.md §14).

use crate::space::DecompositionConfig;
use crate::study::{DynBenchmark, StudyPoint};
use lrd_eval::harness::EvalOptions;
use lrd_eval::Accuracy;
use lrd_trace::json::{self, Json};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One worker's deterministic slice of a sweep: shard `index` of `count`
/// owns exactly the points whose [`fingerprint`] satisfies
/// `fingerprint % count == index`.
///
/// The partition is a pure function of the spec fingerprint, so it is
/// stable across hosts, worker-pool sizes, and repeated runs: every
/// shard of a figure computes a disjoint subset and the union over
/// `0..count` covers every point exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: u64,
    count: u64,
}

impl Shard {
    /// Builds a shard, rejecting degenerate shapes.
    ///
    /// # Errors
    ///
    /// Returns a message when `count == 0` (no shards exist) or
    /// `index >= count` (the shard would own nothing and alias nothing).
    pub fn new(index: u64, count: u64) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (valid: 0..{count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Parses an `i/n` spec (e.g. `"0/3"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the defect: missing `/`, non-numeric
    /// parts, `n == 0`, or `i >= n`.
    pub fn parse(spec: &str) -> Result<Shard, String> {
        let Some((i, n)) = spec.split_once('/') else {
            return Err("expected i/n (e.g. 0/3)".into());
        };
        let index: u64 = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index {i:?} is not a non-negative integer"))?;
        let count: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count {n:?} is not a non-negative integer"))?;
        Shard::new(index, count)
    }

    /// This shard's 0-based index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether this shard owns the point with the given fingerprint.
    pub fn owns(&self, fingerprint: u64) -> bool {
        // `new`/`parse` reject count == 0, so the modulo cannot trap.
        self.count != 0 && fingerprint % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Identifying string in every record's `schema` key.
pub const SCHEMA_NAME: &str = "lrd-journal";

/// Version of the record layout. Bump on any breaking change and describe
/// it in `DESIGN.md` §10.
pub const SCHEMA_VERSION: u64 = 1;

/// One journaled sweep point: the resume key plus everything needed to
/// reconstruct the [`StudyPoint`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The figure/driver the point belongs to (`"fig9"`, `"bert"`, …).
    pub figure: String,
    /// [`fingerprint`] of the point's full specification.
    pub fingerprint: u64,
    /// Human-readable configuration label.
    pub label: String,
    /// Uniform pruned rank (0 for the undecomposed baseline).
    pub rank: usize,
    /// Decomposed layers.
    pub layers: Vec<usize>,
    /// Decomposed tensor indices.
    pub tensors: Vec<usize>,
    /// Parameter reduction versus the dense model, percent.
    pub param_reduction_pct: f64,
    /// `(benchmark name, correct, total)` per evaluated benchmark.
    pub results: Vec<(String, u64, u64)>,
    /// Why the point failed, if it did.
    pub error: Option<String>,
    /// Retries the point consumed before settling.
    pub retries: u32,
}

impl JournalRecord {
    /// Captures a settled [`StudyPoint`] under its resume key.
    pub fn from_point(figure: &str, fingerprint: u64, point: &StudyPoint) -> JournalRecord {
        JournalRecord {
            figure: figure.to_string(),
            fingerprint,
            label: point.label.clone(),
            rank: point.rank,
            layers: point.layers.clone(),
            tensors: point.tensors.clone(),
            param_reduction_pct: point.param_reduction_pct,
            results: point
                .results
                .iter()
                .map(|(name, a)| (name.to_string(), a.correct as u64, a.total as u64))
                .collect(),
            error: point.error.clone(),
            retries: point.retries,
        }
    }

    /// Reconstructs the [`StudyPoint`], resolving benchmark names back to
    /// the `&'static str` names of the live benchmark set.
    ///
    /// Returns `None` when a journaled benchmark is absent from `benches`
    /// — the record was taken under a different suite and must not be
    /// trusted as a checkpoint (the caller recomputes the point instead).
    pub fn to_point(&self, benches: &[DynBenchmark]) -> Option<StudyPoint> {
        let mut results = Vec::with_capacity(self.results.len());
        for (name, correct, total) in &self.results {
            let static_name = benches
                .iter()
                .map(|b| b.name())
                .find(|n| *n == name.as_str())?;
            results.push((
                static_name,
                Accuracy {
                    correct: *correct as usize,
                    total: *total as usize,
                },
            ));
        }
        Some(StudyPoint {
            label: self.label.clone(),
            rank: self.rank,
            layers: self.layers.clone(),
            tensors: self.tensors.clone(),
            param_reduction_pct: self.param_reduction_pct,
            results,
            error: self.error.clone(),
            retries: self.retries,
        })
    }

    /// Renders the record as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let usize_arr = |v: &[usize]| Json::Arr(v.iter().map(|&x| Json::uint(x as u64)).collect());
        Json::obj([
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("figure", Json::str(self.figure.clone())),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "status",
                Json::str(if self.error.is_some() { "failed" } else { "ok" }),
            ),
            ("label", Json::str(self.label.clone())),
            ("rank", Json::uint(self.rank as u64)),
            ("layers", usize_arr(&self.layers)),
            ("tensors", usize_arr(&self.tensors)),
            ("param_reduction_pct", Json::Num(self.param_reduction_pct)),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|(name, correct, total)| {
                            Json::Arr(vec![
                                Json::str(name.clone()),
                                Json::uint(*correct),
                                Json::uint(*total),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("retries", Json::uint(u64::from(self.retries))),
        ])
        .render_compact()
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the defect: malformed JSON (the torn-line
    /// case), wrong schema name/version, or missing/mistyped fields.
    pub fn parse_line(line: &str) -> Result<JournalRecord, String> {
        let doc = json::parse(line)?;
        let schema = field_str(&doc, "schema")?;
        if schema != SCHEMA_NAME {
            return Err(format!("schema {schema:?}, expected {SCHEMA_NAME:?}"));
        }
        let version = field_u64(&doc, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version}, expected {SCHEMA_VERSION}"
            ));
        }
        let fp_hex = field_str(&doc, "fingerprint")?;
        let fingerprint = u64::from_str_radix(&fp_hex, 16)
            .map_err(|_| format!("fingerprint {fp_hex:?} is not hex"))?;
        let error = match doc.get("error") {
            Some(Json::Null) | None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("field \"error\" is neither string nor null".into()),
        };
        // `status` is denormalized from `error` at write time; a line where
        // the two disagree was torn or hand-edited and must not resume.
        let status = field_str(&doc, "status")?;
        match status.as_str() {
            "ok" | "failed" => {}
            other => return Err(format!("status {other:?} is neither \"ok\" nor \"failed\"")),
        }
        if (status == "failed") != error.is_some() {
            return Err(format!(
                "status {status:?} contradicts the error field ({:?})",
                error
            ));
        }
        let mut results = Vec::new();
        for item in field_arr(&doc, "results")? {
            let triple = item.as_arr().ok_or("result entry is not an array")?;
            let [name, correct, total] = triple else {
                return Err("result entry is not a [name, correct, total] triple".into());
            };
            results.push((
                name.as_str()
                    .ok_or("result name is not a string")?
                    .to_string(),
                num_to_u64(correct).ok_or("result correct is not a count")?,
                num_to_u64(total).ok_or("result total is not a count")?,
            ));
        }
        Ok(JournalRecord {
            figure: field_str(&doc, "figure")?,
            fingerprint,
            label: field_str(&doc, "label")?,
            rank: field_u64(&doc, "rank")? as usize,
            layers: field_usize_arr(&doc, "layers")?,
            tensors: field_usize_arr(&doc, "tensors")?,
            param_reduction_pct: doc
                .get("param_reduction_pct")
                .and_then(Json::as_num)
                .ok_or("field \"param_reduction_pct\" missing or not a number")?,
            results,
            error,
            retries: u32::try_from(field_u64(&doc, "retries")?)
                .map_err(|_| "field \"retries\" exceeds u32")?,
        })
    }
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} missing or not a string"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(num_to_u64)
        .ok_or_else(|| format!("field {key:?} missing or not a non-negative integer"))
}

fn field_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("field {key:?} missing or not an array"))
}

fn field_usize_arr(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    field_arr(doc, key)?
        .iter()
        .map(|v| num_to_u64(v).map(|n| n as usize))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("field {key:?} holds a non-count entry"))
}

/// A JSON number as a count: a whole number in `0..=2⁵³`, the range an
/// `f64` holds exactly and so the range [`Json::uint`] writes losslessly.
fn num_to_u64(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
}

/// The durable journal: an append-only JSONL checkpoint file with
/// crash-tolerant loading and atomic writes.
///
/// Thread-safe: sweep workers append concurrently through the internal
/// mutex. Lookups are served from the in-memory copy loaded at
/// [`Journal::resume`] time, so resumed points never touch the disk again.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Verbatim persisted lines (kept so rewrites preserve prior bytes).
    lines: Vec<String>,
    records: Vec<JournalRecord>,
    /// `(figure, fingerprint)` → index of the *latest* matching record,
    /// so resume lookups are O(1) instead of a reverse scan per call
    /// (an n-point `--resume` used to cost O(n²) record comparisons).
    index: HashMap<(String, u64), usize>,
    dropped: usize,
}

impl Inner {
    /// Appends to the in-memory copy, keeping the latest-wins index in
    /// step with the record list.
    fn push(&mut self, line: String, record: JournalRecord) {
        self.index.insert(
            (record.figure.clone(), record.fingerprint),
            self.records.len(),
        );
        self.lines.push(line);
        self.records.push(record);
    }
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the file cannot be created.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        std::fs::write(&path, "")?;
        Ok(Journal {
            path,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Loads an existing journal for `--resume`. A missing file is an empty
    /// journal; unparsable lines (torn final line after a crash, foreign
    /// schema) are dropped and counted, never fatal.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if an existing file cannot be read.
    pub fn resume(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let mut inner = Inner::default();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for (lineno, line) in text.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match JournalRecord::parse_line(line) {
                        Ok(record) => inner.push(line.to_string(), record),
                        Err(e) => {
                            inner.dropped += 1;
                            lrd_trace::counters::add(lrd_trace::Counter::JournalLinesDropped, 1);
                            lrd_trace::warn(format!(
                                "journal {}: dropped unparsable line {}: {e}",
                                path.display(),
                                lineno + 1
                            ));
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Journal {
            path,
            inner: Mutex::new(inner),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loadable records currently held.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines dropped as unparsable during [`Journal::resume`].
    pub fn dropped_lines(&self) -> usize {
        self.lock().dropped
    }

    /// The settled record for `(figure, fingerprint)`, if journaled.
    /// When duplicates exist (a point re-run after a resume under a torn
    /// journal) the *latest* record wins.
    ///
    /// Served from the `(figure, fingerprint)` index in O(1) — a resumed
    /// n-point sweep performs n lookups, so the scan-based implementation
    /// this replaces made `--resume` quadratic in the journal length (the
    /// index-vs-scan equivalence is pinned by a property test).
    pub fn lookup(&self, figure: &str, fingerprint: u64) -> Option<JournalRecord> {
        let inner = self.lock();
        inner
            .index
            .get(&(figure.to_string(), fingerprint))
            .and_then(|&i| inner.records.get(i))
            .cloned()
    }

    /// Snapshot of every loadable record, in journal order.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.lock().records.clone()
    }

    /// The latest-wins *settled* view: one record per `(figure,
    /// fingerprint)` key — the one [`Journal::lookup`] would return — in
    /// journal order of each winning record.
    pub fn settled_records(&self) -> Vec<JournalRecord> {
        let inner = self.lock();
        inner
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| inner.index.get(&(r.figure.clone(), r.fingerprint)) == Some(i))
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Appends a record durably: the whole journal is rewritten to a
    /// sibling tmp file, fsynced, and atomically renamed over `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error; the in-memory copy is *not*
    /// updated on failure, keeping memory and disk consistent.
    pub fn append(&self, record: JournalRecord) -> std::io::Result<()> {
        let mut inner = self.lock();
        let line = record.to_line();
        persist_lines(
            &self.path,
            inner.lines.iter().map(String::as_str),
            Some(&line),
        )?;
        inner.push(line, record);
        Ok(())
    }

    /// Combines shard journals into one journal at `out` whose resumed
    /// result table is bit-identical to an unsharded run.
    ///
    /// Within each input the journal's own latest-duplicate-wins invariant
    /// applies (a point re-run after a torn resume). Across inputs the
    /// shards of a sweep are disjoint by construction, so the same
    /// `(figure, fingerprint)` key appearing in two inputs is legal only
    /// when the payloads are identical (the same point journaled twice);
    /// conflicting payloads mean a fingerprint collision or a corrupted
    /// shard and abort the merge with [`MergeError::Conflict`] rather
    /// than silently picking a winner.
    ///
    /// The merged journal is written through the same tmp+fsync+rename
    /// path as [`Journal::append`], in canonical form (records re-rendered
    /// by [`JournalRecord::to_line`], first-occurrence order, duplicates
    /// collapsed), and returned loaded.
    ///
    /// # Errors
    ///
    /// [`MergeError::Io`] on filesystem failures (a *missing* input is an
    /// error here, unlike [`Journal::resume`] — merging a shard that never
    /// ran must not silently produce a short journal);
    /// [`MergeError::Conflict`] on a cross-input payload conflict.
    pub fn merge(
        out: impl Into<PathBuf>,
        inputs: &[PathBuf],
    ) -> Result<(Journal, MergeReport), MergeError> {
        let out = out.into();
        let mut merged: Vec<JournalRecord> = Vec::new();
        let mut index: HashMap<(String, u64), (usize, usize)> = HashMap::new();
        let mut report = MergeReport {
            inputs: inputs.len(),
            records: 0,
            duplicates: 0,
            dropped_lines: 0,
        };
        for (input_idx, path) in inputs.iter().enumerate() {
            if !path.exists() {
                return Err(MergeError::Io {
                    path: path.clone(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        "input journal does not exist",
                    ),
                });
            }
            let journal = Journal::resume(path).map_err(|source| MergeError::Io {
                path: path.clone(),
                source,
            })?;
            report.dropped_lines += journal.dropped_lines();
            // Each input is settled first (its own latest-wins invariant),
            // *then* compared across inputs — so a shard that re-ran a
            // point cannot mask a genuine cross-shard conflict behind an
            // earlier agreeing record.
            let settled = journal.settled_records();
            report.duplicates += journal.len() - settled.len();
            for record in settled {
                let key = (record.figure.clone(), record.fingerprint);
                match index.get(&key) {
                    None => {
                        index.insert(key, (merged.len(), input_idx));
                        merged.push(record);
                    }
                    Some(&(slot, prev_input)) => {
                        let Some(prev) = merged.get(slot) else {
                            continue; // unreachable: index slots track `merged`
                        };
                        if *prev == record {
                            // The same settled point journaled by two
                            // inputs — collapse it.
                            report.duplicates += 1;
                        } else {
                            return Err(MergeError::Conflict {
                                figure: record.figure.clone(),
                                fingerprint: record.fingerprint,
                                label: record.label.clone(),
                                first: inputs.get(prev_input).cloned().unwrap_or_default(),
                                second: path.clone(),
                            });
                        }
                    }
                }
            }
        }
        report.records = merged.len();
        let lines: Vec<String> = merged.iter().map(JournalRecord::to_line).collect();
        persist_lines(&out, lines.iter().map(String::as_str), None).map_err(|source| {
            MergeError::Io {
                path: out.clone(),
                source,
            }
        })?;
        lrd_trace::counters::add(
            lrd_trace::Counter::JournalRecordsMerged,
            merged.len() as u64,
        );
        let mut inner = Inner::default();
        for (line, record) in lines.into_iter().zip(merged) {
            inner.push(line, record);
        }
        Ok((
            Journal {
                path: out,
                inner: Mutex::new(inner),
            },
            report,
        ))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker that panicked mid-append poisons nothing observable:
        // the in-memory copy is only mutated after the write succeeded.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `lines` (plus an optional `extra` final
/// line): write to a sibling tmp file, fsync, `rename(2)` over `path`.
fn persist_lines<'a>(
    path: &Path,
    lines: impl Iterator<Item = &'a str>,
    extra: Option<&'a str>,
) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        for line in lines.chain(extra) {
            file.write_all(line.as_bytes())?;
            file.write_all(b"\n")?;
        }
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Summary of a [`Journal::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeReport {
    /// Number of input journals consumed.
    pub inputs: usize,
    /// Records in the merged journal.
    pub records: usize,
    /// Duplicate records collapsed (intra-input latest-wins supersessions
    /// plus identical cross-input repeats).
    pub duplicates: usize,
    /// Unparsable lines dropped across all inputs.
    pub dropped_lines: usize,
}

/// Why a [`Journal::merge`] failed.
#[derive(Debug)]
pub enum MergeError {
    /// An input could not be read (including a missing input — a shard
    /// that never ran) or the output could not be written.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// Two inputs settled the same `(figure, fingerprint)` key with
    /// different payloads — a fingerprint collision or a corrupted shard.
    Conflict {
        /// Figure the conflicting point belongs to.
        figure: String,
        /// The colliding resume key.
        fingerprint: u64,
        /// Label of the later record, for the operator.
        label: String,
        /// Input that first settled the key.
        first: PathBuf,
        /// Input that contradicted it.
        second: PathBuf,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            MergeError::Conflict {
                figure,
                fingerprint,
                label,
                first,
                second,
            } => write!(
                f,
                "conflicting payloads for {figure} point {fingerprint:016x} ({label:?}): \
                 {} and {} disagree — shards of one sweep are disjoint, so this is a \
                 fingerprint collision or a corrupted shard journal",
                first.display(),
                second.display()
            ),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Io { source, .. } => Some(source),
            MergeError::Conflict { .. } => None,
        }
    }
}

/// The resume key: a 64-bit FNV-1a fingerprint of everything that
/// determines a sweep point's value — label, decomposition configuration
/// (layers, tensors, pruned-rank triples), benchmark names, and the eval
/// sample count and seed. Two points collide only if they would compute
/// the same result.
pub fn fingerprint(
    label: &str,
    cfg: &DecompositionConfig,
    benches: &[DynBenchmark],
    opts: &EvalOptions,
) -> u64 {
    fn mix_byte(h: &mut u64, byte: u8) {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    fn mix_u64(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            mix_byte(h, b);
        }
    }
    fn mix_str(h: &mut u64, s: &str) {
        mix_u64(h, s.len() as u64);
        for b in s.bytes() {
            mix_byte(h, b);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix_str(&mut h, label);
    mix_u64(&mut h, cfg.layers.len() as u64);
    for &l in &cfg.layers {
        mix_u64(&mut h, l as u64);
    }
    mix_u64(&mut h, cfg.tensors.len() as u64);
    for &t in &cfg.tensors {
        mix_u64(&mut h, t as u64);
    }
    mix_u64(&mut h, cfg.ranks.len() as u64);
    for (l, t, p) in cfg.ranks.iter() {
        mix_u64(&mut h, l as u64);
        mix_u64(&mut h, t as u64);
        mix_u64(&mut h, p as u64);
    }
    mix_u64(&mut h, benches.len() as u64);
    for b in benches {
        mix_str(&mut h, b.name());
    }
    mix_u64(&mut h, opts.n_samples as u64);
    mix_u64(&mut h, opts.seed);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_eval::tasks::{ArcEasy, WinoGrande};

    fn sample_point() -> StudyPoint {
        StudyPoint {
            label: "reduction 9%".into(),
            rank: 1,
            layers: vec![30, 31],
            tensors: vec![0, 1, 2],
            param_reduction_pct: 9.017_543_859_649_122,
            results: vec![
                (
                    "ARC Easy",
                    Accuracy {
                        correct: 41,
                        total: 60,
                    },
                ),
                (
                    "WinoGrande",
                    Accuracy {
                        correct: 33,
                        total: 60,
                    },
                ),
            ],
            error: None,
            retries: 2,
        }
    }

    fn benches() -> Vec<DynBenchmark> {
        vec![Box::new(ArcEasy), Box::new(WinoGrande)]
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lrd-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn record_round_trips_bit_identically() {
        let point = sample_point();
        let record = JournalRecord::from_point("fig9", 0xdead_beef_cafe_f00d, &point);
        let line = record.to_line();
        assert!(!line.contains('\n'), "JSONL record must be one line");
        let back = JournalRecord::parse_line(&line).expect("parses");
        assert_eq!(back, record);
        let restored = back.to_point(&benches()).expect("benches resolve");
        assert_eq!(restored, point);
        assert_eq!(
            restored.param_reduction_pct.to_bits(),
            point.param_reduction_pct.to_bits(),
            "f64 must survive the JSON round trip exactly"
        );
    }

    #[test]
    fn failed_record_round_trips() {
        let mut point = sample_point();
        point.results.clear();
        point.error = Some("svd (injected fault) did not converge".into());
        let record = JournalRecord::from_point("fig3", 7, &point);
        assert!(record.to_line().contains("\"status\":\"failed\""));
        let back = JournalRecord::parse_line(&record.to_line()).unwrap();
        assert_eq!(back.to_point(&benches()).unwrap(), point);
    }

    #[test]
    fn foreign_benchmark_set_invalidates_checkpoint() {
        let record = JournalRecord::from_point("fig9", 7, &sample_point());
        let only_arc: Vec<DynBenchmark> = vec![Box::new(ArcEasy)];
        assert!(record.to_point(&only_arc).is_none());
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(JournalRecord::parse_line("{\"schema\":\"other\"}").is_err());
        assert!(
            JournalRecord::parse_line("{\"schema\":\"lrd-journal\",\"schema_version\":99}")
                .is_err()
        );
        assert!(JournalRecord::parse_line("{\"schema\":\"lrd-jour").is_err());
        assert!(JournalRecord::parse_line("").is_err());
    }

    #[test]
    fn over_deep_line_is_an_error_not_an_abort() {
        // A valid record whose `results` nest past the parser's depth
        // limit: rejected as a defect, like a torn line.
        let line = JournalRecord::from_point("fig9", 7, &sample_point())
            .to_line()
            .replacen(
                "\"results\":[",
                &format!("\"results\":{}", "[".repeat(json::MAX_DEPTH + 1)),
                1,
            );
        let err = JournalRecord::parse_line(&line).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(JournalRecord::parse_line(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn journal_appends_and_resumes_with_torn_final_line() {
        let path = temp_file("torn");
        let journal = Journal::create(&path).unwrap();
        let a = JournalRecord::from_point("fig9", 1, &sample_point());
        let mut failed = sample_point();
        failed.label = "reduction 96%".into();
        failed.results.clear();
        failed.error = Some("boom".into());
        let b = JournalRecord::from_point("fig9", 2, &failed);
        journal.append(a.clone()).unwrap();
        journal.append(b.clone()).unwrap();
        assert_eq!(journal.len(), 2);

        // Simulate a crash that tore the final record mid-write.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 25);
        std::fs::write(&path, text).unwrap();

        let resumed = Journal::resume(&path).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed.dropped_lines(), 1);
        assert_eq!(resumed.lookup("fig9", 1), Some(a));
        assert_eq!(
            resumed.lookup("fig9", 2),
            None,
            "torn record must not resolve"
        );
        assert_eq!(resumed.lookup("fig3", 1), None, "figure is part of the key");

        // Appending after a torn resume re-persists only the good lines.
        resumed.append(b.clone()).unwrap();
        let reread = Journal::resume(&path).unwrap();
        assert_eq!(reread.len(), 2);
        assert_eq!(reread.dropped_lines(), 0);
        assert_eq!(reread.lookup("fig9", 2), Some(b));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = temp_file("missing");
        let journal = Journal::resume(&path).unwrap();
        assert!(journal.is_empty());
        assert_eq!(journal.dropped_lines(), 0);
    }

    #[test]
    fn latest_duplicate_wins() {
        let path = temp_file("dup");
        let journal = Journal::create(&path).unwrap();
        let mut first = JournalRecord::from_point("fig9", 5, &sample_point());
        first.error = Some("transient".into());
        let second = JournalRecord::from_point("fig9", 5, &sample_point());
        journal.append(first).unwrap();
        journal.append(second.clone()).unwrap();
        assert_eq!(journal.lookup("fig9", 5), Some(second));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_validation_rejects_degenerate_specs() {
        assert!(Shard::new(0, 1).is_ok());
        assert!(Shard::new(2, 3).is_ok());
        assert!(Shard::new(0, 0).is_err(), "n == 0");
        assert!(Shard::new(3, 3).is_err(), "i >= n");
        assert_eq!(Shard::parse("1/3").unwrap(), Shard::new(1, 3).unwrap());
        assert_eq!(Shard::parse(" 1 / 3 ").unwrap(), Shard::new(1, 3).unwrap());
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("x/3").is_err());
        assert!(Shard::parse("1/y").is_err());
        assert!(Shard::parse("13").is_err(), "missing slash");
        assert!(Shard::parse("-1/3").is_err(), "negative index");
        assert_eq!(Shard::parse("1/3").unwrap().to_string(), "1/3");
    }

    #[test]
    fn shard_partition_is_disjoint_and_covering() {
        let n = 3;
        for fp in [0u64, 1, 2, 3, 7, u64::MAX, 0xdead_beef_cafe_f00d] {
            let owners: Vec<u64> = (0..n)
                .filter(|&i| Shard::new(i, n).unwrap().owns(fp))
                .collect();
            assert_eq!(
                owners.len(),
                1,
                "fingerprint {fp:#x} must have exactly one owner"
            );
        }
        let whole = Shard::new(0, 1).unwrap();
        assert!(
            whole.owns(0) && whole.owns(u64::MAX),
            "1-shard owns everything"
        );
    }

    #[test]
    fn lookup_index_survives_appends_and_torn_resume() {
        let path = temp_file("index");
        let journal = Journal::create(&path).unwrap();
        let a = JournalRecord::from_point("fig9", 1, &sample_point());
        let mut newer = sample_point();
        newer.retries = 9;
        let a2 = JournalRecord::from_point("fig9", 1, &newer);
        journal.append(a.clone()).unwrap();
        assert_eq!(journal.lookup("fig9", 1), Some(a));
        // The index must track post-resume appends, not just resume-time
        // records: the latest duplicate wins after append too.
        journal.append(a2.clone()).unwrap();
        assert_eq!(journal.lookup("fig9", 1), Some(a2.clone()));
        assert_eq!(journal.settled_records(), vec![a2.clone()]);
        let resumed = Journal::resume(&path).unwrap();
        assert_eq!(resumed.lookup("fig9", 1), Some(a2));
        let _ = std::fs::remove_file(&path);
    }

    fn journal_with(name: &str, records: &[JournalRecord]) -> PathBuf {
        let path = temp_file(name);
        let journal = Journal::create(&path).unwrap();
        for r in records {
            journal.append(r.clone()).unwrap();
        }
        path
    }

    #[test]
    fn merge_combines_disjoint_shards_and_collapses_duplicates() {
        let a = JournalRecord::from_point("fig9", 0, &sample_point());
        let b = JournalRecord::from_point("fig9", 1, &sample_point());
        let c = JournalRecord::from_point("fig3", 2, &sample_point());
        let p0 = journal_with("merge-in0", &[a.clone(), c.clone()]);
        let p1 = journal_with("merge-in1", &[b.clone(), c.clone()]);
        let out = temp_file("merge-out");
        let (merged, report) =
            Journal::merge(&out, &[p0.clone(), p1.clone()]).expect("merge succeeds");
        assert_eq!(report.inputs, 2);
        assert_eq!(report.records, 3);
        assert_eq!(
            report.duplicates, 1,
            "identical cross-input record collapses"
        );
        assert_eq!(report.dropped_lines, 0);
        assert_eq!(merged.records(), vec![a.clone(), c.clone(), b.clone()]);
        // The merged file resumes to the same settled view.
        let resumed = Journal::resume(&out).unwrap();
        assert_eq!(resumed.lookup("fig9", 0), Some(a));
        assert_eq!(resumed.lookup("fig9", 1), Some(b));
        assert_eq!(resumed.lookup("fig3", 2), Some(c));
        assert_eq!(resumed.dropped_lines(), 0, "merged output is canonical");
        for p in [p0, p1, out] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn merge_rejects_conflicting_payloads() {
        let a = JournalRecord::from_point("fig9", 7, &sample_point());
        let mut other = sample_point();
        other.retries = 3;
        let b = JournalRecord::from_point("fig9", 7, &other);
        let p0 = journal_with("conflict-in0", &[a]);
        let p1 = journal_with("conflict-in1", &[b]);
        let out = temp_file("conflict-out");
        let err = Journal::merge(&out, &[p0.clone(), p1.clone()]).expect_err("must conflict");
        match &err {
            MergeError::Conflict {
                figure,
                fingerprint,
                first,
                second,
                ..
            } => {
                assert_eq!(figure, "fig9");
                assert_eq!(*fingerprint, 7);
                assert_eq!(first, &p0);
                assert_eq!(second, &p1);
            }
            MergeError::Io { .. } => panic!("expected Conflict, got {err}"),
        }
        assert!(!out.exists(), "no output on conflict");
        for p in [p0, p1] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn merge_conflict_not_masked_by_agreeing_superseded_record() {
        // Input 1 first journaled the same payload as input 0, then re-ran
        // the point and settled differently. Its settled view conflicts
        // with input 0 and the merge must say so.
        let a = JournalRecord::from_point("fig9", 7, &sample_point());
        let mut rerun = sample_point();
        rerun.retries = 5;
        let b = JournalRecord::from_point("fig9", 7, &rerun);
        let p0 = journal_with("mask-in0", std::slice::from_ref(&a));
        let p1 = journal_with("mask-in1", &[a, b]);
        let out = temp_file("mask-out");
        assert!(matches!(
            Journal::merge(&out, &[p0.clone(), p1.clone()]),
            Err(MergeError::Conflict { .. })
        ));
        for p in [p0, p1] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn merge_missing_input_is_an_error() {
        let a = JournalRecord::from_point("fig9", 0, &sample_point());
        let p0 = journal_with("missing-in0", &[a]);
        let ghost = temp_file("missing-in1");
        let out = temp_file("missing-out");
        assert!(matches!(
            Journal::merge(&out, &[p0.clone(), ghost]),
            Err(MergeError::Io { .. })
        ));
        let _ = std::fs::remove_file(&p0);
    }

    #[test]
    fn merge_counts_dropped_lines_from_torn_inputs() {
        let a = JournalRecord::from_point("fig9", 0, &sample_point());
        let b = JournalRecord::from_point("fig9", 1, &sample_point());
        let p0 = journal_with("torn-in0", &[a.clone(), b]);
        let mut text = std::fs::read_to_string(&p0).unwrap();
        text.truncate(text.len() - 25);
        std::fs::write(&p0, text).unwrap();
        let out = temp_file("torn-out");
        let (merged, report) = Journal::merge(&out, std::slice::from_ref(&p0)).unwrap();
        assert_eq!(report.dropped_lines, 1);
        assert_eq!(report.records, 1);
        assert_eq!(merged.records(), vec![a]);
        for p in [p0, out] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn fingerprint_separates_every_input() {
        use crate::select::{all_llama_tensors, preset_config, table4_presets};
        let opts = EvalOptions {
            n_samples: 60,
            seed: 7,
            batch_size: 32,
            threads: 1,
        };
        let presets = table4_presets();
        let cfg_a = preset_config(&presets[0].2);
        let cfg_b = preset_config(&presets[1].2);
        let b = benches();
        let base = fingerprint("p", &cfg_a, &b, &opts);
        assert_eq!(base, fingerprint("p", &cfg_a, &b, &opts), "deterministic");
        assert_ne!(base, fingerprint("q", &cfg_a, &b, &opts), "label");
        assert_ne!(base, fingerprint("p", &cfg_b, &b, &opts), "config");
        let fewer: Vec<DynBenchmark> = vec![Box::new(ArcEasy)];
        assert_ne!(base, fingerprint("p", &cfg_a, &fewer, &opts), "benches");
        let other_samples = EvalOptions {
            n_samples: 61,
            ..opts
        };
        assert_ne!(
            base,
            fingerprint("p", &cfg_a, &b, &other_samples),
            "samples"
        );
        let other_seed = EvalOptions { seed: 8, ..opts };
        assert_ne!(base, fingerprint("p", &cfg_a, &b, &other_seed), "seed");
        // Rank structure reaches the hash too.
        let uniform = DecompositionConfig::uniform(&[0, 1], &all_llama_tensors(), 2);
        let uniform_r1 = DecompositionConfig::uniform(&[0, 1], &all_llama_tensors(), 1);
        assert_ne!(
            fingerprint("p", &uniform, &b, &opts),
            fingerprint("p", &uniform_r1, &b, &opts),
            "rank"
        );
    }
}
