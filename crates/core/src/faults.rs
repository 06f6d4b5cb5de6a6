//! Deterministic fault injection — one spec, one parser, two execution
//! planes (sweeps and serving).
//!
//! A [`FaultPlan`] describes, per fault kind, the probability that the
//! fault fires at an injection site. Decisions are a *pure function*
//! of `(seed, kind, site, attempt)` — no RNG state, no call ordering — so
//! the same plan produces the identical set of failed and retried sweep
//! points (and the identical set of quarantined serving sessions) on
//! every run and at every worker-pool or batch size. That property is
//! what makes chaos runs regression-testable.
//!
//! Configuration comes from the `LRD_FAULTS` environment variable (or the
//! `repro --faults` flag), e.g.:
//!
//! ```text
//! LRD_FAULTS="svd:0.05,panic:0.01,nan:0.02" LRD_FAULTS_SEED=42 repro fig9
//! LRD_FAULTS="nan-logits:0.1,decode-panic:0.05,slow-step:0.1" repro serve
//! ```
//!
//! Three *sweep* fault kinds are injected where decomposition failures
//! occur:
//!
//! * [`FaultKind::Svd`] — the decomposition reports SVD non-convergence
//!   ([`TensorError::NotConverged`]), the classic transient numeric flake;
//! * [`FaultKind::Panic`] — the sweep-point job panics, exercising the
//!   executor's panic isolation;
//! * [`FaultKind::Nan`] — a NaN-poisoned factor is pushed through the
//!   numeric-health guard in `lrd-tensor`, surfacing as
//!   [`TensorError::NonFinite`].
//!
//! All three classify as *transient* (see [`TensorError::is_transient`]
//! and the panic handling in `study`), so the retry layer gets exercised
//! too: a point only fails for good once every allowed attempt drew the
//! fault.
//!
//! Three *serving* fault kinds are injected in `lrd-serve`'s decode loop,
//! rolled per `(session id, session-local decode step)` so the fault set
//! is identical across batch sizes, queue bounds, and thread counts:
//!
//! * [`FaultKind::NanLogits`] — a session's logits row is NaN-poisoned,
//!   exercising the non-finite-logits quarantine guard;
//! * [`FaultKind::DecodePanic`] — the session's slot panics mid-consume,
//!   exercising the per-slot `catch_unwind` fence;
//! * [`FaultKind::SlowStep`] — the session's decode step overruns in
//!   virtual time, exercising deadline-based timeout settlement.
//!
//! Unknown fault kinds in a spec are *tolerated*: they warn through
//! [`lrd_trace::warn()`] and count into `fault_spec_unknown_kinds`, so one
//! chaos spec can name kinds only one execution plane implements without
//! aborting the other — while a typo is still loudly visible in both the
//! stderr stream and the metrics document. Malformed entries (not
//! `kind:rate`, non-numeric or out-of-range rates) remain hard errors.

use lrd_tensor::tucker::Tucker2;
use lrd_tensor::{Tensor, TensorError};

/// Environment variable holding the fault specification.
pub const FAULTS_ENV: &str = "LRD_FAULTS";

/// Environment variable holding the decision seed (default 0).
pub const FAULTS_SEED_ENV: &str = "LRD_FAULTS_SEED";

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// SVD non-convergence at the decomposition boundary.
    Svd,
    /// A panicking sweep-point job.
    Panic,
    /// A NaN-poisoned factor caught by the numeric-health guard.
    Nan,
    /// A NaN-poisoned logits row in the serving decode loop.
    NanLogits,
    /// A panicking serving session slot.
    DecodePanic,
    /// A serving decode step that overruns in virtual time.
    SlowStep,
}

impl FaultKind {
    /// The spec keyword for this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Svd => "svd",
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::NanLogits => "nan-logits",
            FaultKind::DecodePanic => "decode-panic",
            FaultKind::SlowStep => "slow-step",
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::Svd => 1,
            FaultKind::Panic => 2,
            FaultKind::Nan => 3,
            FaultKind::NanLogits => 4,
            FaultKind::DecodePanic => 5,
            FaultKind::SlowStep => 6,
        }
    }
}

/// A parsed fault-injection plan: per-kind rates plus the decision seed.
///
/// The default plan injects nothing and is free to consult.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` of an injected SVD non-convergence.
    pub svd: f64,
    /// Probability in `[0, 1]` of an injected job panic.
    pub panic: f64,
    /// Probability in `[0, 1]` of an injected NaN-poisoned factor.
    pub nan: f64,
    /// Probability in `[0, 1]` of an injected NaN-poisoned logits row
    /// (serving decode loop, per session per decode step).
    pub nan_logits: f64,
    /// Probability in `[0, 1]` of an injected serving-slot panic.
    pub decode_panic: f64,
    /// Probability in `[0, 1]` of an injected virtual-time decode stall.
    pub slow_step: f64,
    /// Seed mixed into every decision hash.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses a spec like `"svd:0.05,panic:0.01,nan-logits:0.1"`
    /// (optionally with a `seed:<u64>` entry). Whitespace around entries
    /// is tolerated; an empty spec is the no-fault plan.
    ///
    /// An entry whose kind is well-formed but unknown is *not* an error:
    /// it warns through [`lrd_trace::warn()`] and counts into
    /// `fault_spec_unknown_kinds`, so a spec written for one execution
    /// plane (or a newer version) degrades loudly instead of aborting —
    /// or, worse, being silently dropped.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry for
    /// malformed entries (not `kind:rate`, non-numeric values) or rates
    /// outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry {entry:?} is not of the form kind:rate"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault seed {value:?} is not a u64"))?;
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault rate {value:?} for {key:?} is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} for {key:?} outside [0, 1]"));
            }
            match key {
                "svd" => plan.svd = rate,
                "panic" => plan.panic = rate,
                "nan" => plan.nan = rate,
                "nan-logits" => plan.nan_logits = rate,
                "decode-panic" => plan.decode_panic = rate,
                "slow-step" => plan.slow_step = rate,
                other => {
                    lrd_trace::counters::add(lrd_trace::Counter::FaultSpecUnknownKinds, 1);
                    lrd_trace::warn(format!(
                        "fault spec names unknown kind {other:?} (known: svd, panic, nan, \
                         nan-logits, decode-panic, slow-step, seed) — entry ignored"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Reads the plan from `LRD_FAULTS` / `LRD_FAULTS_SEED`.
    ///
    /// Returns the no-fault plan when the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] errors (a malformed spec must fail
    /// loudly, not silently disable chaos testing).
    pub fn from_env() -> Result<FaultPlan, String> {
        let mut plan = match std::env::var(FAULTS_ENV) {
            Ok(spec) => FaultPlan::parse(&spec)?,
            Err(_) => FaultPlan::default(),
        };
        if let Ok(seed) = std::env::var(FAULTS_SEED_ENV) {
            plan.seed = seed
                .parse()
                .map_err(|_| format!("{FAULTS_SEED_ENV}={seed:?} is not a u64"))?;
        }
        Ok(plan)
    }

    /// Whether any fault kind has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.sweep_active() || self.serve_active()
    }

    /// Whether any *sweep* fault kind (svd / panic / nan) can fire.
    pub fn sweep_active(&self) -> bool {
        self.svd > 0.0 || self.panic > 0.0 || self.nan > 0.0
    }

    /// Whether any *serving* fault kind (nan-logits / decode-panic /
    /// slow-step) can fire.
    pub fn serve_active(&self) -> bool {
        self.nan_logits > 0.0 || self.decode_panic > 0.0 || self.slow_step > 0.0
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Svd => self.svd,
            FaultKind::Panic => self.panic,
            FaultKind::Nan => self.nan,
            FaultKind::NanLogits => self.nan_logits,
            FaultKind::DecodePanic => self.decode_panic,
            FaultKind::SlowStep => self.slow_step,
        }
    }

    /// Decides whether `kind` fires for serving session `session` at its
    /// session-local decode step `step`.
    ///
    /// The site key deliberately excludes everything scheduling-dependent
    /// (global step counters, batch slots, queue positions): a session
    /// performs the same sequence of local decode steps no matter how it
    /// is batched, so the injected fault set is identical across batch
    /// sizes, queue bounds, and thread counts — the serving analogue of
    /// the sweep plane's worker-count independence.
    pub fn roll_session(&self, kind: FaultKind, session: usize, step: u64) -> bool {
        self.roll(
            kind,
            &format!("session {session}"),
            (step & 0xFFFF_FFFF) as u32,
        )
    }

    /// Decides whether `kind` fires at `site` on retry `attempt`.
    ///
    /// Pure in `(seed, kind, site, attempt)`: independent of call order,
    /// thread scheduling, and worker-pool size. A firing decision is
    /// counted in `lrd-trace` (`faults_injected`).
    pub fn roll(&self, kind: FaultKind, site: &str, attempt: u32) -> bool {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let h = decision_hash(self.seed, kind.tag(), site, attempt);
        // Top 53 bits → uniform in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fire = unit < rate;
        if fire {
            lrd_trace::counters::add(lrd_trace::Counter::FaultsInjected, 1);
        }
        fire
    }
}

/// FNV-1a over the decision tuple, finished with a splitmix64 avalanche so
/// nearby sites/attempts decorrelate.
fn decision_hash(seed: u64, tag: u64, site: &str, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in seed.to_le_bytes() {
        mix(b);
    }
    for b in tag.to_le_bytes() {
        mix(b);
    }
    for b in site.bytes() {
        mix(b);
    }
    for b in attempt.to_le_bytes() {
        mix(b);
    }
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the error an injected NaN fault produces, by pushing an actually
/// NaN-poisoned factor through the numeric-health guard in `lrd-tensor` —
/// the injected failure takes the same detection path a real poisoned
/// decomposition would.
pub fn injected_nan_error() -> TensorError {
    let mut core = Tensor::zeros(&[1, 1]);
    core.set(&[0, 0], f32::NAN);
    let poisoned = Tucker2 {
        u1: Tensor::zeros(&[1, 1]),
        core,
        u2: Tensor::zeros(&[1, 1]),
    };
    poisoned
        .validate_finite()
        .expect_err("NaN-poisoned factor must fail the finite guard")
}

/// Unwinds the current serving slot with an injected decode panic.
///
/// Uses [`std::panic::resume_unwind`] rather than `panic!` so the global
/// panic hook stays silent — a chaos serve run injects hundreds of these
/// and each is caught by the per-slot `catch_unwind` fence; spamming a
/// backtrace per injection would bury real diagnostics. The payload is a
/// `String`, which the fence's panic-message rendering understands.
pub fn injected_decode_panic(session: usize, step: u64) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "injected decode panic at session {session}, step {step}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse("svd:0.05, panic:0.01,nan:0.02,seed:42").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                svd: 0.05,
                panic: 0.01,
                nan: 0.02,
                seed: 42,
                ..FaultPlan::default()
            }
        );
        assert!(plan.is_active());
        assert!(plan.sweep_active());
        assert!(!plan.serve_active());
        assert!(!FaultPlan::default().is_active());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parses_serve_spec() {
        let plan =
            FaultPlan::parse("nan-logits:0.1, decode-panic:0.05,slow-step:0.1,seed:42").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                nan_logits: 0.1,
                decode_panic: 0.05,
                slow_step: 0.1,
                seed: 42,
                ..FaultPlan::default()
            }
        );
        assert!(plan.serve_active());
        assert!(!plan.sweep_active());
        assert!(plan.is_active());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("svd").is_err());
        assert!(FaultPlan::parse("svd:1.5").is_err());
        assert!(FaultPlan::parse("svd:-0.1").is_err());
        assert!(FaultPlan::parse("svd:abc").is_err());
        assert!(FaultPlan::parse("slow-step:2.0").is_err());
        assert!(FaultPlan::parse("oom:abc").is_err());
        assert!(FaultPlan::parse("seed:x").is_err());
    }

    #[test]
    fn unknown_kinds_warn_and_count_instead_of_erroring() {
        let unknown = lrd_trace::Counter::FaultSpecUnknownKinds;
        let warnings_before = lrd_trace::warn::snapshot().len();
        let count_before = lrd_trace::counters::get(unknown);
        let plan = FaultPlan::parse("oom:0.5,svd:0.1").expect("unknown kind must not abort");
        assert_eq!(plan.svd, 0.1, "known entries around an unknown one apply");
        assert!(!plan.serve_active());
        if lrd_trace::enabled() {
            assert_eq!(lrd_trace::counters::get(unknown), count_before + 1);
            let warnings = lrd_trace::warn::snapshot();
            assert!(warnings.len() > warnings_before);
            assert!(
                warnings
                    .last()
                    .map(String::as_str)
                    .unwrap_or("")
                    .contains("\"oom\""),
                "warning names the unknown kind"
            );
        }
    }

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let plan = FaultPlan::parse("svd:0.5,seed:7").unwrap();
        let sites = ["layer 0", "layer 1", "reduction 9%", "reduction 96%"];
        let first: Vec<bool> = sites
            .iter()
            .flat_map(|s| (0..4).map(move |a| plan.roll(FaultKind::Svd, s, a)))
            .collect();
        let second: Vec<bool> = sites
            .iter()
            .flat_map(|s| (0..4).map(move |a| plan.roll(FaultKind::Svd, s, a)))
            .collect();
        assert_eq!(first, second, "decisions must be pure");
        assert!(first.iter().any(|&f| f), "rate 0.5 should fire somewhere");
        assert!(first.iter().any(|&f| !f), "rate 0.5 should miss somewhere");
        let other_seed = FaultPlan::parse("svd:0.5,seed:8").unwrap();
        let third: Vec<bool> = sites
            .iter()
            .flat_map(|s| (0..4).map(move |a| other_seed.roll(FaultKind::Svd, s, a)))
            .collect();
        assert_ne!(first, third, "different seeds give different decisions");
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::parse("panic:0").unwrap();
        let always = FaultPlan::parse("panic:1").unwrap();
        for a in 0..16 {
            assert!(!never.roll(FaultKind::Panic, "x", a));
            assert!(always.roll(FaultKind::Panic, "x", a));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::parse("nan:0.25,seed:3").unwrap();
        let fired = (0..4000)
            .filter(|i| plan.roll(FaultKind::Nan, &format!("site {i}"), 0))
            .count();
        let observed = fired as f64 / 4000.0;
        assert!(
            (observed - 0.25).abs() < 0.03,
            "observed rate {observed} far from 0.25"
        );
    }

    #[test]
    fn session_rolls_are_pure_and_kind_independent() {
        let plan =
            FaultPlan::parse("nan-logits:0.5,decode-panic:0.5,slow-step:0.5,seed:9").unwrap();
        for kind in [
            FaultKind::NanLogits,
            FaultKind::DecodePanic,
            FaultKind::SlowStep,
        ] {
            let first: Vec<bool> = (0..64).map(|s| plan.roll_session(kind, 3, s)).collect();
            let second: Vec<bool> = (0..64).map(|s| plan.roll_session(kind, 3, s)).collect();
            assert_eq!(first, second, "session rolls must be pure");
            assert!(first.iter().any(|&f| f) && first.iter().any(|&f| !f));
        }
        // Different kinds draw independent decision streams at the same
        // (session, step) sites.
        let a: Vec<bool> = (0..64)
            .map(|s| plan.roll_session(FaultKind::NanLogits, 3, s))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|s| plan.roll_session(FaultKind::DecodePanic, 3, s))
            .collect();
        assert_ne!(a, b, "kinds must decorrelate");
    }

    #[test]
    fn injected_decode_panic_is_catchable_and_hookless() {
        let caught = std::panic::catch_unwind(|| injected_decode_panic(7, 12));
        let payload = caught.expect_err("must unwind");
        let msg = payload
            .downcast_ref::<String>()
            .expect("payload is a String");
        assert!(msg.contains("session 7"));
        assert!(msg.contains("step 12"));
    }

    #[test]
    fn injected_nan_goes_through_the_guard() {
        assert!(matches!(
            injected_nan_error(),
            TensorError::NonFinite { .. }
        ));
    }
}
