//! Parity between the predecoded hot loop and the code it executes.
//!
//! The core executes from the decode-once [`tdo_cpu::PredecodedOp`] arrays,
//! and [`tdo_cpu::CodeImage::write_word`] re-predecodes the one slot each
//! patch touches. [`tdo_cpu::CodeImage::check_predecode`] re-derives every
//! mapped slot from its stored word; these tests run it after whole
//! simulations across all 14 workloads, including the arm where the
//! optimizer patches prefetch-distance immediates into live code mid-run
//! (the path that exercises the patch→re-predecode invalidation protocol),
//! and check the trace registry against the image the core ran.

use tdo_isa::Inst;
use tdo_sim::{
    encode_result, run, Cell, ExperimentSpec, Machine, PrefetchSetup, Runner, SimConfig,
};
use tdo_trident::TraceOp;
use tdo_workloads::{build, names, Scale};

/// Short but optimizer-exercising window (same shape the engine tests use;
/// the suite runs unoptimized under `cargo test`, so keep cells small).
fn cfg(setup: PrefetchSetup) -> SimConfig {
    let mut cfg = SimConfig::test(setup);
    cfg.warmup_insts = 5_000;
    cfg.measure_insts = 45_000;
    cfg
}

/// Runs one workload and checks its final code image; returns the result
/// and the number of slots checked.
fn run_checked(workload: &str, setup: PrefetchSetup) -> (tdo_sim::SimResult, usize) {
    let w = build(workload, Scale::Test).expect("known workload");
    let mut checked = Ok(0);
    let r = Machine::new(&w, cfg(setup)).run_with_inspect(&mut |m| {
        checked = m.code().check_predecode();
    });
    let checked = checked.unwrap_or_else(|e| panic!("{workload} ({setup:?}): {e}"));
    (r, checked)
}

#[test]
fn predecode_is_coherent_on_every_workload_without_repair() {
    // SwBasic: Trident links traces (patching original code and filling
    // the code cache) and inserts prefetches at a fixed distance, but
    // never repairs one in place.
    let mut installed = 0;
    for name in names() {
        let (r, checked) = run_checked(name, PrefetchSetup::SwBasic);
        assert!(checked > 0, "{name}: empty image");
        assert_eq!(r.optimizer.repairs, 0, "{name}: the basic arm repaired a distance");
        installed += r.trident.traces_installed;
    }
    assert!(installed > 0, "no trace was installed");
}

#[test]
fn predecode_stays_coherent_through_mid_run_distance_patching() {
    // SwSelfRepair: the helper thread installs prefetch-carrying traces and
    // then repairs their distances in place while the main context executes
    // them — every patched word must be re-predecoded before its next fetch.
    let mut total_repairs = 0u64;
    let mut total_groups = 0u64;
    for name in names() {
        let (r, _) = run_checked(name, PrefetchSetup::SwSelfRepair);
        total_repairs += r.optimizer.repairs;
        total_groups += r.optimizer.groups;
    }
    // The whole point of this arm: prove the suite actually covered
    // mid-execution patches, not just cold predecode.
    assert!(total_groups > 0, "self-repair arm installed no prefetch groups");
    assert!(total_repairs > 0, "self-repair arm performed no distance repairs");
}

#[test]
fn installed_traces_match_the_image_after_repairs() {
    // The trace registry the optimizer reasons over and the image the core
    // executes must agree instruction for instruction, repaired prefetch
    // distances included.
    let (mut prefetches, mut repairs) = (0, 0);
    for name in ["mcf", "equake", "art"] {
        let w = build(name, Scale::Test).expect("known workload");
        let r = Machine::new(&w, cfg(PrefetchSetup::SwSelfRepair)).run_with_inspect(&mut |m| {
            for id in m.installed_traces() {
                let t = m.trident().trace(id).expect("installed trace is registered");
                for (i, ti) in t.insts.iter().enumerate() {
                    let TraceOp::Real(inst) = ti.op else { continue };
                    let op = m.code().fetch_op(t.cc_pc(i)).expect("trace body is mapped");
                    assert_eq!(op.inst, inst, "{name}: trace {id:?} slot {i}");
                    if matches!(inst, Inst::Prefetch { .. }) {
                        prefetches += 1;
                    }
                }
            }
        });
        repairs += r.optimizer.repairs;
    }
    assert!(prefetches > 0, "no installed prefetch was checked");
    assert!(repairs > 0, "no distance was repaired");
}

#[test]
fn predecoded_results_are_stable_across_worker_counts() {
    // The engine memoizes and parallelizes over the predecoded machines;
    // serial and 4-way runs must produce the same digests in cell order.
    let mut spec = ExperimentSpec::new();
    for name in ["mcf", "gap", "swim"] {
        for setup in [PrefetchSetup::NoPrefetch, PrefetchSetup::SwSelfRepair] {
            spec.push(Cell::new(name, Scale::Test, cfg(setup)));
        }
    }
    let serial: Vec<Vec<u64>> =
        Runner::new(1).run_spec(&spec).iter().map(|r| encode_result(r)).collect();
    let parallel: Vec<Vec<u64>> =
        Runner::new(4).run_spec(&spec).iter().map(|r| encode_result(r)).collect();
    assert_eq!(serial, parallel);
}

#[test]
fn plain_run_matches_the_inspected_run() {
    // `run()` is what the engine calls; the checks above inspect machines
    // through `run_with_inspect`, so both paths must simulate identically.
    let w = build("dot", Scale::Test).expect("known workload");
    let via_helper = run(&w, &cfg(PrefetchSetup::SwSelfRepair));
    let (via_inspect, _) = run_checked("dot", PrefetchSetup::SwSelfRepair);
    assert_eq!(encode_result(&via_helper), encode_result(&via_inspect));
}
