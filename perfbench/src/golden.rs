//! Golden output values and the tally of attempted and failed operations.
//!
//! `golden.json` records the kernel backend and dtype that produced it,
//! and maps each workload to `{ "<input seed>": [hex u64, …] }`: the
//! serve workloads store the stream checksum, the sweep one FNV-1a
//! digest of the f64 accuracy bits per Table-4 point, and recovery the
//! f32 bits of `loss_before` and `loss_after`. Values are hex strings
//! because JSON numbers are doubles. Bits are identical only within one
//! backend and dtype, so on any other the values are treated as absent.
//! Regenerate the file with
//! `lrd-perfbench --write-golden <first seed> <last seed>`.

use crate::out::{hex, parse_hex};
use lrd_trace::json::{parse, Json};

const GOLDEN: &str = include_str!("../golden.json");

/// The kernel configuration that produces bit patterns: `(backend, dtype)`.
pub type Kernel<'a> = (&'a str, &'a str);

/// The stored outputs of `workload` at input seed `seed`, if recorded
/// under `kernel`.
///
/// # Panics
///
/// Panics if the embedded `golden.json` is malformed.
pub fn lookup(workload: &str, seed: u64, kernel: Kernel) -> Option<Vec<u64>> {
    lookup_in(GOLDEN, workload, seed, kernel)
}

fn lookup_in(text: &str, workload: &str, seed: u64, kernel: Kernel) -> Option<Vec<u64>> {
    let doc = parse(text).expect("golden.json parses");
    let recorded = (
        doc.get("backend").and_then(Json::as_str),
        doc.get("kernel_dtype").and_then(Json::as_str),
    );
    if recorded != (Some(kernel.0), Some(kernel.1)) {
        return None;
    }
    let values = doc.get(workload)?.get(&seed.to_string())?.as_arr()?;
    let parsed: Option<Vec<u64>> = values
        .iter()
        .map(|v| v.as_str().and_then(parse_hex))
        .collect();
    Some(parsed.expect("golden.json holds hex strings"))
}

/// Renders a golden file: the kernel configuration, then one table per
/// workload.
pub fn document(kernel: Kernel, tables: Vec<(&str, Json)>) -> Json {
    let mut doc = vec![
        ("backend", Json::str(kernel.0)),
        ("kernel_dtype", Json::str(kernel.1)),
    ];
    doc.extend(tables);
    Json::obj(doc)
}

/// Renders one workload's golden table.
pub fn table(entries: &[(u64, Vec<u64>)]) -> Json {
    Json::obj(entries.iter().map(|(seed, values)| {
        (
            seed.to_string(),
            Json::Arr(values.iter().map(|&v| Json::str(hex(v))).collect()),
        )
    }))
}

/// Counts operations attempted and failed; a failure is reported on
/// stderr as it happens.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outputs were wrong.
    pub failed: u64,
}

impl Tally {
    /// Records one operation that succeeded when `ok`.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Records an operation whose own accounting was `sound` and whose
    /// outputs `got` must equal `want` bit for bit (when a golden value
    /// exists) and the first operation's outputs `first` (every repeat of
    /// an operation must agree).
    pub fn check_outputs(
        &mut self,
        what: &str,
        sound: bool,
        got: &[u64],
        want: Option<&[u64]>,
        first: &[u64],
    ) {
        let golden_ok = want.is_none_or(|w| w == got);
        let repeat_ok = first == got;
        let describe = |v: &[u64]| v.iter().map(|&x| hex(x)).collect::<Vec<_>>().join(",");
        let detail = match want {
            Some(w) if !golden_ok => {
                format!("{what}: got [{}], golden [{}]", describe(got), describe(w))
            }
            _ if !repeat_ok => format!(
                "{what}: got [{}], first run [{}]",
                describe(got),
                describe(first)
            ),
            _ if !sound => format!("{what}: unsound accounting"),
            _ => what.to_string(),
        };
        self.record(sound && golden_ok && repeat_ok, &detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_golden_mismatch_counts_as_a_failure() {
        let mut t = Tally::default();
        t.check_outputs(
            "serve",
            true,
            &[0xDEAD_BEEF_0000_0001],
            Some(&[0xDEAD_BEEF_0000_0001]),
            &[0xDEAD_BEEF_0000_0001],
        );
        assert_eq!((t.attempted, t.failed), (1, 0));
        // One bit off in the golden value.
        t.check_outputs(
            "serve",
            true,
            &[0xDEAD_BEEF_0000_0001],
            Some(&[0xDEAD_BEEF_0000_0000]),
            &[0xDEAD_BEEF_0000_0001],
        );
        assert_eq!((t.attempted, t.failed), (2, 1));
        // No golden value: only the repeat check applies.
        t.check_outputs("serve", true, &[1], None, &[2]);
        assert_eq!((t.attempted, t.failed), (3, 2));
        t.check_outputs("serve", true, &[1], None, &[1]);
        assert_eq!((t.attempted, t.failed), (4, 2));
        t.check_outputs("serve", false, &[1], Some(&[1]), &[1]);
        assert_eq!((t.attempted, t.failed), (5, 3));
    }

    #[test]
    fn golden_values_round_trip_only_on_their_own_kernel() {
        let entries = vec![(3u64, vec![u64::MAX, (1 << 53) + 1])];
        let kernel = ("avx2+fma", "f32");
        let doc = document(kernel, vec![("serve-dense", table(&entries))]).render_compact();
        assert_eq!(
            lookup_in(&doc, "serve-dense", 3, kernel),
            Some(entries[0].1.clone())
        );
        assert_eq!(lookup_in(&doc, "serve-dense", 4, kernel), None);
        // Another backend or dtype rounds differently: no golden values.
        assert_eq!(lookup_in(&doc, "serve-dense", 3, ("scalar", "f32")), None);
        assert_eq!(
            lookup_in(&doc, "serve-dense", 3, ("avx2+fma", "bf16")),
            None
        );
    }

    #[test]
    fn embedded_golden_file_parses() {
        parse(GOLDEN).expect("golden.json parses");
        assert_eq!(lookup("no-such-workload", 1, ("avx2+fma", "f32")), None);
        assert!(lookup("serve-dense", 1, ("avx2+fma", "f32")).is_some());
    }
}
