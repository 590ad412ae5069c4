//! End-to-end contracts of the scenario-template subsystem: per-family
//! determinism, the scenarios-off identity, nonzero per-family stats for
//! every shipped template, halt→resume bit-identity with scenarios
//! active, and structural failure on unknown families at resume.

use dejavuzz::builder::{BuildError, CampaignBuilder};
use dejavuzz::gen::WindowType;
use dejavuzz::scheduler::SchedulerSpec;
use dejavuzz::BackendSpec;
use dejavuzz_uarch::boom_small;

const ALL_FAMILIES: &[&str] = &[
    "zenbleed",
    "double-fetch:gap=3",
    "nested-spec:depth=4",
    "sibling-leak:bursts=3",
];

fn behavioural() -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .seed(11)
}

fn netlist_small() -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::netlist(dejavuzz_rtl::examples::SMALL_SCALE))
        .seed(11)
}

/// Per-family stats accumulated for `family` across the window table
/// (scenario windows key by interned instance; several parameterisations
/// of one family sum here).
fn family_attempts(stats: &dejavuzz::CampaignStats, family: &str) -> usize {
    stats
        .windows
        .iter()
        .filter(|(wt, _)| matches!(wt, WindowType::Scenario(_)) && wt.table5_class() == family)
        .map(|(_, ws)| ws.attempted)
        .sum()
}

/// A scenario campaign is a pure function of (seed, workers, batch):
/// two identical multi-worker runs produce byte-identical snapshots.
#[test]
fn scenario_campaigns_are_deterministic() {
    let run = || {
        behavioural()
            .workers(2)
            .batch(3)
            .scheduler(SchedulerSpec::WorkStealing)
            .scenarios(ALL_FAMILIES)
            .build()
            .unwrap()
            .run_snapshotting(24)
            .1
            .to_bytes()
    };
    assert_eq!(run(), run(), "same config must replay bit-identically");
}

/// An explicitly empty scenario list is the default: the snapshot (and
/// therefore every downstream stat) is byte-identical to a build that
/// never mentioned scenarios at all.
#[test]
fn scenarios_off_is_byte_identical_to_default() {
    let plain = behavioural()
        .workers(2)
        .build()
        .unwrap()
        .run_snapshotting(20)
        .1
        .to_bytes();
    let empty = behavioural()
        .workers(2)
        .scenarios(&[] as &[&str])
        .build()
        .unwrap()
        .run_snapshotting(20)
        .1
        .to_bytes();
    assert_eq!(plain, empty);
}

/// Every shipped template family draws, triggers and accumulates
/// per-family window stats on the small synthesised netlist, and reports
/// a bug whose window carries the family's own Table-5 class.
#[test]
fn each_builtin_family_reaches_nonzero_stats_on_netlist_small() {
    for spec in ALL_FAMILIES {
        let family = spec.split(':').next().unwrap();
        let report = netlist_small().scenarios(&[*spec]).build().unwrap().run(64);
        assert!(
            family_attempts(&report.stats, family) > 0,
            "{family}: expected nonzero per-family attempts in {:?}",
            report.stats.windows.keys().collect::<Vec<_>>()
        );
        let classes: Vec<_> = report
            .stats
            .bugs
            .iter()
            .map(|b| b.window_type.table5_class())
            .collect();
        assert!(
            classes.contains(&family),
            "{family}: expected a bug via a {family} window, got {classes:?}"
        );
    }
}

/// Scenario specs persist canonically (every declared parameter, in
/// declaration order, defaults filled in) and a halt→resume mid-campaign
/// with scenarios active is byte-identical to the uninterrupted run.
#[test]
fn scenario_halt_resume_is_bit_identical() {
    let full = behavioural()
        .workers(2)
        .scheduler(SchedulerSpec::WorkStealing)
        .scenarios(&["zenbleed", "nested-spec"])
        .build()
        .unwrap()
        .run_snapshotting(24)
        .1;

    let (_, halted) = behavioural()
        .workers(2)
        .scheduler(SchedulerSpec::WorkStealing)
        .scenarios(&["zenbleed", "nested-spec"])
        .halt_after(12)
        .build()
        .unwrap()
        .run_snapshotting(24);
    assert!(
        halted.stats.iterations < 24,
        "halt_after must stop the run mid-campaign"
    );
    assert_eq!(
        halted.scenarios,
        vec![
            "nested-spec:depth=3".to_string(),
            "zenbleed:zero_idiom=0".to_string()
        ],
        "snapshots persist canonical specs in sorted order"
    );

    // The resume build names no scenarios: it adopts the snapshot's.
    let resumed = behavioural()
        .workers(2)
        .scheduler(SchedulerSpec::WorkStealing)
        .resume(halted)
        .build()
        .unwrap()
        .run_snapshotting(24)
        .1;
    assert_eq!(
        full.to_bytes(),
        resumed.to_bytes(),
        "halt→resume with scenarios active must be bit-identical"
    );
}

/// A snapshot naming a family this process never registered fails the
/// resume build structurally, with a pinned message naming the family.
#[test]
fn unknown_family_in_snapshot_fails_resume_structurally() {
    let (_, mut snap) = behavioural().build().unwrap().run_snapshotting(6);
    snap.scenarios = vec!["ghost-fam".to_string()];
    let err = behavioural().resume(snap).build().unwrap_err();
    assert!(matches!(err, BuildError::InvalidScenario { .. }));
    assert_eq!(
        err.to_string(),
        "invalid scenario spec \"ghost-fam\": unknown scenario family \"ghost-fam\""
    );
}

/// Builder-path validation mirrors the CLI: malformed and out-of-range
/// parameters are structured errors with pinned messages.
#[test]
fn builder_scenario_spec_errors_are_pinned() {
    let err = behavioural()
        .scenarios(&["zenbleed:zero_idiom=9"])
        .build()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid scenario spec \"zenbleed:zero_idiom=9\": parameter \"zero_idiom\" of \
         scenario family \"zenbleed\" must be in [0, 2], got 9"
    );

    let err = behavioural()
        .scenarios(&["double-fetch:gap"])
        .build()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid scenario spec \"double-fetch:gap\": malformed parameter \"gap\" for \
         scenario family \"double-fetch\" (expected name=integer)"
    );
}
