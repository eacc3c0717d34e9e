//! What `bglsim validate` declares, checked without simulating: a check
//! can only read the runs its unit declares, so the declaration is the
//! whole set of runs a tier costs.

use bgl_core::StrategyKind;
use bgl_harness::conformance::golden::{Snapshot, GOLDEN_PATH};
use bgl_harness::conformance::{families, Tier};
use bgl_harness::runner::{RunKey, RunPoint, Runner};
use std::collections::HashSet;

/// The distinct runs the families declare at `tier`, with the budgeted
/// coverage blanked: which runs, not how the scale samples them.
fn declared(tier: Tier) -> HashSet<RunKey> {
    let runner = Runner::new(tier.scale());
    let units = families::units(&runner, tier, &Snapshot::read(GOLDEN_PATH, false));
    assert_eq!(runner.cached_runs(), 0, "declaring simulates nothing");
    let keys = units.iter().flat_map(|unit| &unit.points);
    keys.map(|point| blank_coverage(point.key.clone()))
        .collect()
}

fn blank_coverage(mut key: RunKey) -> RunKey {
    key.coverage_ppm = 0;
    key
}

/// "DR trails AR on symmetric 4x4x4" reads both halves of the pair. The
/// hand-kept point list this declaration replaced named only the DR run,
/// so the AR one was simulated on the render thread after the pool had
/// drained.
#[test]
fn quick_tier_declares_the_symmetric_ar_run() {
    let part = "4x4x4".parse().unwrap();
    let sym_ar = RunPoint::new(part, StrategyKind::ar(), 912, 1.0)
        .variant(families::INVARIANTS, |c| c.check_invariants = true);
    assert!(declared(Tier::Quick).contains(&blank_coverage(sym_ar.key)));
}

/// Moving the declarations into the units dropped no run: the full tier
/// still declares every key of the point list it had at PR 16. Keys are
/// compared as rendered JSON text, the identity the golden file is
/// matched on; the program has no reader that could rebuild a `RunKey`.
#[test]
fn full_tier_declares_every_run_it_did_at_pr16() {
    let mut pr16: Vec<serde_json::Value> =
        serde_json::from_str(include_str!("data/full_tier_keys_pr16.json")).unwrap();
    let now: HashSet<String> = declared(Tier::Full)
        .iter()
        .map(|key| serde_json::to_string(key).unwrap())
        .collect();
    for key in &mut pr16 {
        let serde_json::Value::Object(fields) = key else {
            panic!("a key is an object: {key:?}");
        };
        for (name, value) in fields {
            if name == "coverage_ppm" {
                *value = serde_json::Value::U64(0);
            }
        }
        let text = serde_json::to_string(key).unwrap();
        assert!(now.contains(&text), "dropped: {text}");
    }
}
