//! Paper-conformance suite: DESIGN.md §7's validation targets as
//! machine-checked assertions over a deterministic fixture grid.
//!
//! Every target family from §7 — AR efficiency bands, DR's
//! dimension-order asymmetry, throttling's small delta, TPS's asymmetric
//! win and midplane caveat plus the Table-4 latency-crossover direction,
//! and the VMesh short-message crossover — is encoded as a set of
//! [`CheckResult`]s: a structured PASS/FAIL with the measured shape next
//! to the expected one, never a bare boolean. Two more families pin
//! degraded-mode routing under a fault plan (F8) and full exchanges on
//! 2-D and 5-D tori (F9), and a golden-snapshot family ([`golden`]) pins
//! fingerprints of a small fixed grid against a committed file (refresh
//! with `--bless`): 34 checks at the quick tier.
//!
//! Two tiers share the same family code with tier-specific shapes and
//! thresholds:
//!
//! * [`Tier::Quick`] — the CI tier: small partitions, seconds-scale,
//!   thresholds calibrated against the committed quick-scale results in
//!   EXPERIMENTS.md. Quick scale inverts a few paper orderings (a sampled
//!   run can read high or low, EXPERIMENTS.md, "Coverage sampling moves
//!   the answer"), so quick checks assert
//!   the orderings that are stable at that scale.
//! * [`Tier::Full`] — paper-scale shapes (16×8×8 DR orientation sweep,
//!   the 8×32×16 VMesh>TPS>AR ordering), minutes-scale; run on a
//!   schedule, not per PR.
//!
//! Driven by `bglsim validate [--tier quick|full] [--jobs N] [--bless]`,
//! which renders the report and exits nonzero on any FAIL.
//!
//! Every simulation point in the fixture grid runs with
//! [`SimConfig::check_invariants`](bgl_sim::SimConfig::check_invariants)
//! enabled, so a conformance pass is also an end-to-end certification
//! that the simulator conserves packets, bytes, hops and credits on
//! every configuration the suite touches.

pub mod families;
pub mod golden;

use crate::runner::{Runner, Scale};

/// Which slice of the fixture grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI tier: small shapes, seconds, quick-scale thresholds.
    Quick,
    /// Paper-scale shapes and thresholds; minutes, scheduled runs.
    Full,
}

impl Tier {
    /// Parse a `--tier` argument.
    pub fn parse(s: &str) -> Option<Tier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "quick" => Some(Tier::Quick),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// The runner scale this tier budgets at.
    pub fn scale(self) -> Scale {
        match self {
            Tier::Quick => Scale::Quick,
            Tier::Full => Scale::Paper,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }
}

/// One machine-checked conformance assertion: which §7 family it belongs
/// to, what it asserts, and the measured-vs-expected shape rendered for
/// the report (and for diagnosing a FAIL without re-running anything).
#[derive(Debug, Clone, serde::Serialize)]
pub struct CheckResult {
    /// Family id, e.g. `"F2 dr-orientation"`.
    pub family: &'static str,
    /// What the check asserts, in words.
    pub name: String,
    /// Did the measured shape match the expected one?
    pub passed: bool,
    /// The measured values, formatted.
    pub measured: String,
    /// The expected shape, formatted.
    pub expected: String,
}

impl CheckResult {
    /// Build a result (small constructor so family code stays terse).
    pub fn new(
        family: &'static str,
        name: impl Into<String>,
        passed: bool,
        measured: impl Into<String>,
        expected: impl Into<String>,
    ) -> CheckResult {
        CheckResult {
            family,
            name: name.into(),
            passed,
            measured: measured.into(),
            expected: expected.into(),
        }
    }
}

/// The full validation outcome for one tier.
#[derive(Debug)]
pub struct ValidationReport {
    /// Tier the suite ran at.
    pub tier: Tier,
    /// Every check, in family order.
    pub results: Vec<CheckResult>,
}

impl ValidationReport {
    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.passed).count()
    }

    /// The machine-readable form: tier, per-check results, and the
    /// summary counts. `bglsim validate --out FILE` writes this so CI can
    /// archive the full check table alongside the rendered log.
    pub fn to_json(&self) -> String {
        let doc = serde_json::Value::Object(vec![
            (
                "tier".to_string(),
                serde_json::Value::Str(self.tier.name().to_string()),
            ),
            (
                "checks".to_string(),
                serde_json::Value::U64(self.results.len() as u64),
            ),
            (
                "failures".to_string(),
                serde_json::Value::U64(self.failures() as u64),
            ),
            (
                "results".to_string(),
                serde::Serialize::to_value(&self.results),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("serialize validation report")
    }

    /// Render the aligned PASS/FAIL table plus a summary line.
    pub fn render(&self) -> String {
        let headers = ["result", "family", "check", "measured", "expected"];
        let rows: Vec<[String; 5]> = self
            .results
            .iter()
            .map(|r| {
                [
                    if r.passed { "PASS" } else { "FAIL" }.to_string(),
                    r.family.to_string(),
                    r.name.clone(),
                    r.measured.clone(),
                    r.expected.clone(),
                ]
            })
            .collect();
        let mut width = headers.map(str::len);
        for row in &rows {
            for (w, cell) in width.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!(
            "== paper conformance — tier {}, DESIGN.md §7 ==\n",
            self.tier.name()
        );
        let fmt_row = |cells: [&str; 5]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}", w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(headers));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row([&row[0], &row[1], &row[2], &row[3], &row[4]]));
            out.push('\n');
        }
        let failed = self.failures();
        out.push_str(&format!(
            "{} checks: {} passed, {} failed\n",
            rows.len(),
            rows.len() - failed,
            failed
        ));
        out
    }
}

/// Run the whole suite at `tier` on `runner`: every family's units plus
/// the golden grid's execute as one deduplicated parallel batch, then
/// render their checks. With `bless`, the golden fingerprint file is
/// rewritten from the measured runs instead of compared, and every check
/// that reads a golden fingerprint reads the one written. The file is read
/// once, before any check renders.
pub fn run_validation(runner: &Runner, tier: Tier, bless: bool) -> ValidationReport {
    let golden = golden::Snapshot::read(golden::GOLDEN_PATH, bless);
    let mut units = families::units(runner, tier, &golden);
    units.push(golden::unit(&golden));
    let results = runner.render(units).into_iter().flatten().collect();
    ValidationReport { tier, results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parses_and_maps_to_scale() {
        assert_eq!(Tier::parse("quick"), Some(Tier::Quick));
        assert_eq!(Tier::parse(" Full "), Some(Tier::Full));
        assert_eq!(Tier::parse("paper"), None);
        assert_eq!(Tier::Quick.scale(), Scale::Quick);
        assert_eq!(Tier::Full.scale(), Scale::Paper);
    }

    #[test]
    fn report_renders_and_counts_failures() {
        let rep = ValidationReport {
            tier: Tier::Quick,
            results: vec![
                CheckResult::new("F1 x", "a holds", true, "1.0", "≥ 0.5"),
                CheckResult::new("F2 y", "b holds", false, "0.2", "≥ 0.5"),
            ],
        };
        assert_eq!(rep.failures(), 1);
        let text = rep.render();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("2 checks: 1 passed, 1 failed"), "{text}");
        assert!(text.starts_with("== paper conformance — tier quick"));
    }
}
