//! # tdo-workloads — the benchmark substrate
//!
//! Synthetic workload programs standing in for the paper's 14-benchmark
//! suite (SPEC 2000 plus the pointer-intensive `dot` and `vis`). The
//! originals are Alpha binaries driven by SimPoint simulation points, which
//! are not reproducible here; these generators instead reproduce the
//! published *memory-access characterization* of each program — working-set
//! size relative to the cache hierarchy, stride versus pointer behaviour,
//! loop-body size (which sets the needed prefetch distance), number of
//! concurrent streams (which determines what the hardware stream buffers
//! can cover), and control-flow stability (which determines hot-trace
//! coverage). Every performance shape the paper's evaluation discusses maps
//! to one of those knobs; see DESIGN.md §1 for the substitution argument.
//!
//! ```
//! use tdo_workloads::{build, names, Scale};
//!
//! assert_eq!(names().len(), 14);
//! let w = build("mcf", Scale::Test).unwrap();
//! assert!(!w.program.code.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod build;
pub mod irregular;
pub mod phase;
pub mod pointer;
pub mod stride;

pub use build::{abi, DataAlloc, Scale, Workload, CODE_BASE, DATA_BASE};

/// The paper's benchmark names, in its order.
#[must_use]
pub fn names() -> &'static [&'static str] {
    &[
        "applu", "art", "dot", "equake", "facerec", "fma3d", "galgel", "gap", "mcf", "mgrid",
        "parser", "swim", "vis", "wupwise",
    ]
}

/// Builds the named workload at the given scale.
///
/// Returns `None` for unknown names; see [`names`].
#[must_use]
pub fn build(name: &str, scale: Scale) -> Option<Workload> {
    constructor(name).map(|make| make(scale))
}

/// Whether [`build`] knows `name`, answered without building anything.
#[must_use]
pub fn is_known(name: &str) -> bool {
    constructor(name).is_some()
}

/// The one name → generator table behind [`build`] and [`is_known`].
fn constructor(name: &str) -> Option<fn(Scale) -> Workload> {
    Some(match name {
        "applu" => stride::applu,
        "art" => stride::art,
        "dot" => pointer::dot,
        "equake" => irregular::equake,
        "facerec" => stride::facerec,
        "fma3d" => stride::fma3d,
        "galgel" => stride::galgel,
        "gap" => irregular::gap,
        "mcf" => pointer::mcf,
        "mgrid" => stride::mgrid,
        "parser" => pointer::parser,
        "swim" => stride::swim,
        "vis" => pointer::vis,
        "wupwise" => stride::wupwise,
        // Not part of the paper's 14-benchmark suite (and so absent from
        // `names()`): the arm-matrix extension's phase-shifting workload.
        "phaseshift" => phase::phaseshift,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_isa::decode;

    #[test]
    fn every_workload_builds_and_decodes_at_test_scale() {
        for name in names() {
            let w = build(name, Scale::Test).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(w.program.name, *name);
            assert!(!w.program.code.is_empty(), "{name} has code");
            for (i, word) in w.program.code.iter().enumerate() {
                decode(*word)
                    .unwrap_or_else(|e| panic!("{name} instruction {i} fails to decode: {e}"));
            }
            assert_eq!(w.program.entry, w.program.code_base);
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(build("quake3", Scale::Test).is_none());
    }

    #[test]
    fn is_known_agrees_with_build() {
        let unknown = ["quake3", "", "MCF", "mcf ", "phase"];
        for name in names().iter().copied().chain(["phaseshift"]).chain(unknown) {
            assert_eq!(is_known(name), build(name, Scale::Test).is_some(), "`{name}`");
        }
        assert!(is_known("phaseshift"));
        assert!(unknown.iter().all(|n| !is_known(n)));
    }

    #[test]
    fn phaseshift_builds_identically() {
        // The generator is seeded: two builds must agree byte for byte
        // (code words and every data segment), at both scales.
        for scale in [Scale::Test, Scale::Full] {
            let a = build("phaseshift", scale).expect("phaseshift builds");
            let b = build("phaseshift", scale).expect("phaseshift builds");
            assert_eq!(a.program.code, b.program.code);
            assert_eq!(a.program.data.len(), b.program.data.len());
            for (sa, sb) in a.program.data.iter().zip(&b.program.data) {
                assert_eq!(sa.base, sb.base);
                assert_eq!(sa.bytes, sb.bytes);
            }
        }
    }

    #[test]
    fn phaseshift_decodes_and_respects_the_abi() {
        use tdo_isa::Reg;
        let scratch: Vec<Reg> = abi::scratch_pool();
        let w = build("phaseshift", Scale::Test).expect("phaseshift builds");
        for (i, word) in w.program.code.iter().enumerate() {
            let inst = decode(*word)
                .unwrap_or_else(|e| panic!("phaseshift instruction {i} fails to decode: {e}"));
            if let Some(d) = inst.def() {
                assert!(!scratch.contains(&d), "phaseshift defines scratch {d}");
            }
            for u in inst.uses().into_iter().flatten() {
                assert!(!scratch.contains(&u), "phaseshift uses scratch {u}");
            }
        }
    }

    #[test]
    fn workloads_never_touch_optimizer_scratch_registers() {
        use tdo_isa::Reg;
        let scratch: Vec<Reg> = abi::scratch_pool();
        for name in names() {
            let w = build(name, Scale::Test).unwrap();
            for word in &w.program.code {
                let inst = decode(*word).unwrap();
                if let Some(d) = inst.def() {
                    assert!(!scratch.contains(&d), "{name} defines scratch {d}");
                }
                for u in inst.uses().into_iter().flatten() {
                    assert!(!scratch.contains(&u), "{name} uses scratch {u}");
                }
            }
        }
    }

    #[test]
    fn data_segments_sit_above_code() {
        for name in names() {
            let w = build(name, Scale::Test).unwrap();
            for seg in &w.program.data {
                assert!(seg.base >= DATA_BASE, "{name} segment at {:#x} below data base", seg.base);
            }
        }
    }

    #[test]
    fn applu_body_exceeds_one_thousand_instructions() {
        // The paper singles applu out: a >1000-instruction inner loop makes
        // distance 1 optimal. Verify the generator honours that.
        let w = build("applu", Scale::Test).unwrap();
        let mut max_span = 0i64;
        for word in &w.program.code {
            if let Ok(tdo_isa::Inst::Bcond { disp, .. }) = decode(*word) {
                max_span = max_span.max(-disp);
            }
        }
        assert!(max_span > 1000, "applu inner loop spans {max_span} instructions");
    }

    #[test]
    fn gap_jump_table_points_at_code() {
        let w = build("gap", Scale::Test).unwrap();
        let table =
            w.program.data.iter().find(|s| s.bytes.len() == 16 * 8).expect("jump table segment");
        for c in table.bytes.chunks(8) {
            let addr = u64::from_le_bytes(c.try_into().unwrap());
            assert!(w.program.contains_pc(addr), "routine address {addr:#x} outside code");
        }
    }

    #[test]
    fn mcf_nodes_link_sequentially() {
        let w = build("mcf", Scale::Test).unwrap();
        let seg = w.program.data.first().expect("node segment");
        let first_next = u64::from_le_bytes(seg.bytes[0..8].try_into().unwrap());
        assert_eq!(first_next, seg.base + 64, "node 0 links to node 1");
    }
}
