//! Golden-snapshot tier: committed `NetStats` fingerprints for a small
//! pinned grid.
//!
//! The families in [`super::families`] assert *shape*; this tier pins
//! *bits*. Every run in the golden grid is fully deterministic, so its
//! complete `NetStats` — cycle counts, latency histogram, per-dimension
//! link counters — serializes to the same JSON on every machine and
//! thread count, and a 64-bit FNV-1a fingerprint of that JSON detects
//! any behavioral drift in the simulator or the strategy stack.
//!
//! Fingerprints live in `crates/harness/golden/netstats.json`, keyed by
//! the serialized [`RunKey`]. The file is never parsed back into a key:
//! the grid is declared here, so an entry is found by rendering its
//! `key` subtree and the declared key to JSON text and comparing the
//! two (the tests pin that blessing the grid rewrites the committed
//! file byte for byte, which is what makes the text a stable identity).
//! After an intentional behavior change, refresh with
//! `bglsim validate --bless` and commit the diff — the review of that
//! diff is the point of the tier.

use super::families::Checks;
use super::CheckResult;
use crate::runner::{RunKey, RunPoint, RunResult, Unit};
use bgl_core::{Pacer, StrategyKind};
use bgl_sim::{FaultPlan, LinkFault, NetStats};
use serde::Serialize;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The committed fingerprint file (crate-relative, so the binary and the
/// tests resolve the same path from any working directory).
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/netstats.json");

/// The pinned grid: one point per strategy class, small shapes at full
/// coverage so the tier costs seconds and is identical at both tiers.
fn grid() -> [RunPoint; 11] {
    let pt = |shape: &str, strategy: StrategyKind, m: u64| {
        RunPoint::new(shape.parse().expect("valid shape"), strategy, m, 1.0)
    };
    [
        pt("4x4x1", StrategyKind::ar(), 240),
        pt("4x2x2", StrategyKind::dr(), 240),
        pt("8x1x1", StrategyKind::tps(), 64),
        pt("4x4x4", StrategyKind::vmesh(), 8),
        pt("4x4x1", StrategyKind::throttled(1.0), 240),
        pt("3x3x2", StrategyKind::xyz(), 64),
        // Paced points pin the flow-control layer itself: a credit
        // window on each forwarding class (TPS acks every other packet,
        // VMesh stop-and-wait as on the 8x32x16), so drift in the
        // ledger or ack path moves these fingerprints even when the
        // unpaced grid is untouched. TPS needs a 3-D shape here — on a
        // line partition it never forwards, so the ledger stays idle
        // and the paced fingerprint would collapse into the unpaced one.
        pt(
            "4x2x2",
            StrategyKind::tps().with_pacer(Pacer::credit(4, 2)),
            64,
        ),
        pt(
            "4x4x4",
            StrategyKind::vmesh().with_pacer(Pacer::credit(1, 1)),
            8,
        ),
        // Fault injection: AR around one statically dead link pins the
        // degraded-mode arbitration, detour replanning, and suppressed
        // return-bounce bit-for-bit (the plan rides the RunKey, so this
        // never aliases the healthy 4x4x1 AR point above).
        pt("4x4x1", StrategyKind::ar(), 240).with_fault(FaultPlan {
            links: vec![LinkFault::dead(0, bgl_torus::Direction::from_index(0))],
            nodes: vec![],
        }),
        // n-dimensional pins: a true 2-D torus (4 ports per node) and a
        // 4-D torus (8 ports), so the generalized topology layer has
        // golden coverage beyond the historical 3-D grid. Appended after
        // the legacy points — their committed fingerprints must never
        // move when entries are added here.
        pt("8x8", StrategyKind::ar(), 240),
        pt("4x4x4x4", StrategyKind::ar(), 64),
    ]
}

/// 64-bit FNV-1a over the canonical JSON serialization of the stats.
pub fn fingerprint(stats: &NetStats) -> u64 {
    let json = serde_json::to_string(stats).expect("NetStats serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One committed fingerprint, keyed by the structured run identity.
#[derive(Debug, Serialize)]
struct GoldenEntry {
    key: RunKey,
    /// Hex `NetStats` fingerprint (string: JSON readers need not carry
    /// u64 precision).
    fingerprint: String,
}

fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

fn label(key: &RunKey) -> String {
    // `name()` already folds the rate window in ("AR-throttled"); spell
    // out credit windows so the paced and unpaced rows stay tellable
    // apart in the rendered table.
    let pacer = match key.strategy.pacer() {
        Pacer::CreditWindow { credit } => {
            format!(" credit:{},{}", credit.window_packets, credit.credit_every)
        }
        _ => String::new(),
    };
    let fault = if key.fault.is_empty() {
        String::new()
    } else {
        format!(
            " fault:{}",
            key.fault.links.len() + key.fault.nodes.len() * 12
        )
    };
    format!(
        "{} {}{}{} m={}",
        key.part,
        key.strategy.name(),
        pacer,
        fault,
        key.m
    )
}

/// The text an entry is matched on. Text, not tree equality: the file's
/// `"factor": 1` parses as an integer where the key serializes a float,
/// and both render `1`.
fn key_text(key: &impl Serialize) -> String {
    serde_json::to_string(key).expect("run keys serialize")
}

/// The committed file as rendered key text → hex fingerprint.
fn load(path: &Path) -> Result<HashMap<String, String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let entries: Vec<serde::Value> =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    entries
        .iter()
        .map(|e| match (e.get("key"), e.get("fingerprint")) {
            (Some(key), Some(serde::Value::Str(fp))) => Ok((key_text(key), fp.clone())),
            _ => Err(format!(
                "{}: an entry lacks `key` or `fingerprint`",
                path.display()
            )),
        })
        .collect()
}

/// The committed fingerprint (hex) for `key`, if the golden file holds
/// one. The F9 family uses this to pin that the n-dimensional topology
/// refactor reproduces the stored 3-D fingerprints byte-for-byte.
pub fn committed_fingerprint(key: &RunKey) -> Option<String> {
    load(Path::new(GOLDEN_PATH)).ok()?.remove(&key_text(key))
}

/// The golden tier: compare the measured grid against the committed
/// file — or, with `bless`, rewrite the file from the measured runs.
pub fn unit(bless: bool) -> Checks {
    unit_at(bless, GOLDEN_PATH.into())
}

fn unit_at(bless: bool, path: PathBuf) -> Checks {
    let grid = grid();
    let keys = grid.each_ref().map(|p| p.key.clone());
    Unit::new(grid, move |runs| evaluate(&keys, runs, bless, &path))
}

fn evaluate(keys: &[RunKey], runs: &[RunResult], bless: bool, path: &Path) -> Vec<CheckResult> {
    const FAM: &str = "G golden-snapshot";
    let measured: Vec<(&RunKey, Option<u64>)> = keys
        .iter()
        .zip(runs)
        .map(|(key, run)| (key, run.as_ref().ok().map(|r| fingerprint(&r.stats))))
        .collect();

    if bless {
        let entries: Vec<GoldenEntry> = measured
            .iter()
            .filter_map(|(key, fp)| {
                fp.map(|fp| GoldenEntry {
                    key: (*key).clone(),
                    fingerprint: hex(fp),
                })
            })
            .collect();
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return vec![CheckResult::new(
                    FAM,
                    "bless golden file",
                    false,
                    format!("cannot create {}: {e}", dir.display()),
                    "writable golden directory",
                )];
            }
        }
        let body = serde_json::to_string_pretty(&entries).expect("entries serialize");
        return match std::fs::write(path, body + "\n") {
            Ok(()) => measured
                .iter()
                .map(|(key, fp)| {
                    CheckResult::new(
                        FAM,
                        label(key),
                        fp.is_some(),
                        fp.map(hex).unwrap_or_else(|| "run failed".into()),
                        "(blessed)",
                    )
                })
                .collect(),
            Err(e) => vec![CheckResult::new(
                FAM,
                "bless golden file",
                false,
                format!("cannot write {}: {e}", path.display()),
                "writable golden file",
            )],
        };
    }

    let golden = match load(path) {
        Ok(map) => map,
        Err(e) => {
            return vec![CheckResult::new(
                FAM,
                "load golden file",
                false,
                e,
                "committed fingerprints (regenerate with --bless)",
            )]
        }
    };
    measured
        .iter()
        .map(|(key, fp)| {
            let want = golden.get(&key_text(key));
            let got = fp.map(hex);
            let (passed, measured, expected) = match (&got, want) {
                (Some(g), Some(w)) => (g == w, g.clone(), w.clone()),
                (Some(g), None) => (false, g.clone(), "missing entry (--bless)".into()),
                (None, w) => (
                    false,
                    "run failed".into(),
                    w.cloned().unwrap_or_else(|| "missing entry".into()),
                ),
            };
            CheckResult::new(FAM, label(key), passed, measured, expected)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Scale};

    fn evaluate_at(runner: &Runner, bless: bool, path: &Path) -> Vec<CheckResult> {
        runner.render(vec![unit_at(bless, path.into())]).remove(0)
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = NetStats {
            completion_cycle: 100,
            packets_delivered: 7,
            ..NetStats::default()
        };
        let mut b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.packets_delivered = 8;
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    /// Bless-then-verify on a temp file: blessing writes the committed
    /// file byte for byte — the property the text-matching loader stands
    /// on — and an immediate re-evaluation passes bit-for-bit.
    #[test]
    fn bless_rewrites_the_committed_file_and_verifies() {
        let runner = Runner::new(Scale::Quick);
        let dir = std::env::temp_dir().join("bgl-golden-test");
        let path = dir.join("netstats.json");
        let blessed = evaluate_at(&runner, true, &path);
        assert!(blessed.iter().all(|r| r.passed), "{blessed:?}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(GOLDEN_PATH).unwrap(),
            "a key's spelling moved: the committed entries would go unmatched"
        );
        let verified = evaluate_at(&runner, false, &path);
        assert_eq!(verified.len(), grid().len());
        assert!(verified.iter().all(|r| r.passed), "{verified:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A missing golden file is a structured FAIL, not a panic.
    #[test]
    fn missing_golden_file_fails_cleanly() {
        let runner = Runner::new(Scale::Quick);
        let res = evaluate_at(&runner, false, Path::new("/nonexistent/golden.json"));
        assert_eq!(res.len(), 1);
        assert!(!res[0].passed);
        assert!(res[0].expected.contains("--bless"));
    }
}
