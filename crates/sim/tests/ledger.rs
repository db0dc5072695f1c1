//! Decision-audit ledger suites: the ledger is a deterministic, faithful
//! narration of the run's adaptation decisions — identical across worker
//! counts, identical between a locked policy and its static arm, and in
//! one-to-one correspondence with the counters it explains.

use tdo_obs::{ledger_digest, LedgerKind, LEDGER_CAPACITY};
use tdo_sim::{
    policy_candidates, run, Cell, ExperimentSpec, PolicyConfig, PrefetchSetup, Runner, SimConfig,
};
use tdo_workloads::{build, Scale};

/// The same spec run serially and with four workers must produce
/// per-cell ledgers with identical digests — scheduling cannot leak into
/// the decision history.
#[test]
fn ledger_digests_are_identical_serial_vs_parallel() {
    let mut spec = ExperimentSpec::new();
    for (workload, setup) in [
        ("phaseshift", PrefetchSetup::Policy),
        ("mcf", PrefetchSetup::SwSelfRepair),
        ("swim", PrefetchSetup::SwSelfRepair),
        ("parser", PrefetchSetup::SwSelfRepair),
    ] {
        spec.push(Cell::new(workload, Scale::Test, SimConfig::test(setup)));
    }
    let serial: Vec<u64> =
        Runner::new(1).run_spec(&spec).iter().map(|r| ledger_digest(&r.ledger)).collect();
    let parallel: Vec<u64> =
        Runner::new(4).run_spec(&spec).iter().map(|r| ledger_digest(&r.ledger)).collect();
    assert_eq!(serial, parallel, "worker count changed a decision ledger");
    assert!(
        serial.iter().any(|&d| d != ledger_digest(&[])),
        "at least one cell must have made decisions"
    );
}

/// A policy controller locked to an arm takes no decisions of its own, so
/// its ledger must equal the static arm's: repair records only, bit for
/// bit.
#[test]
fn locked_policy_ledger_equals_static_arm_ledger() {
    let w = build("mcf", Scale::Test).unwrap();
    let arm = policy_candidates()[0];
    let fixed = run(&w, &SimConfig::test(PrefetchSetup::Hw8x8));

    let mut cfg = SimConfig::test(PrefetchSetup::Policy);
    cfg.policy = Some(PolicyConfig { locked: Some(arm), ..PolicyConfig::test() });
    let locked = run(&w, &cfg);

    assert_eq!(fixed.ledger, locked.ledger, "locked controller invented decisions");
    assert!(
        locked.ledger.iter().all(|r| r.kind != LedgerKind::ArmSwitch),
        "a locked controller never switches arms"
    );
}

/// On the phase-shifting workload the ledger narrates exactly the switches
/// the counters report, chronologically, with the triggering window's
/// milli-IPC evidence attached.
#[test]
fn ledger_matches_arm_switch_counters_with_evidence() {
    let w = build("phaseshift", Scale::Test).unwrap();
    let r = run(&w, &SimConfig::test(PrefetchSetup::Policy));
    let switches: Vec<_> =
        r.ledger.iter().filter(|rec| rec.kind == LedgerKind::ArmSwitch).collect();
    assert_eq!(switches.len() as u64, r.mem.arm_switches, "one record per switch");
    assert!(!switches.is_empty(), "phaseshift must switch arms");
    let arms = policy_candidates().len() as u64;
    for pair in r.ledger.windows(2) {
        assert!(pair[0].cycle <= pair[1].cycle, "ledger must be chronological");
    }
    for s in &switches {
        assert!(s.old < arms && s.new < arms, "candidate indices in range");
        assert_ne!(s.old, s.new, "a switch changes the arm");
        assert!(s.epoch > 0, "switches happen at epoch boundaries");
        assert!(s.evidence_a > 0, "the closing window's milli-IPC is the evidence");
    }
    for pair in switches.windows(2) {
        assert!(pair[0].epoch < pair[1].epoch, "switch epochs are strictly increasing");
        assert_eq!(pair[0].new, pair[1].old, "switch chain must be contiguous");
    }
}

/// Repair records correspond one-to-one with the optimizer's repair
/// counter (modulo ring eviction) and carry a sane latency trajectory.
#[test]
fn repair_records_match_the_repair_counter() {
    let w = build("mcf", Scale::Test).unwrap();
    let r = run(&w, &SimConfig::test(PrefetchSetup::SwSelfRepair));
    let repairs: Vec<_> = r.ledger.iter().filter(|rec| rec.kind == LedgerKind::Repair).collect();
    assert_eq!(
        repairs.len() as u64,
        r.optimizer.repairs.min(LEDGER_CAPACITY as u64),
        "one retained record per repair up to the ring capacity"
    );
    assert!(!repairs.is_empty(), "mcf self-repair must repair distances");
    for rec in &repairs {
        assert!(rec.group != 0 && rec.pc != 0, "repairs name their group and load");
        assert!(rec.evidence_a > 0, "avg latency x100 evidence");
        assert_eq!(rec.margin_milli, tdo_core::REPAIR_TOLERANCE_MILLI);
    }
    assert!(
        repairs.iter().any(|rec| rec.old != rec.new),
        "at least one repair must move a distance"
    );
}
