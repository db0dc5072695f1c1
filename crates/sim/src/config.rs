//! Simulation configurations for every experiment in the paper.

use tdo_core::{DltConfig, SwPrefetchMode};
use tdo_cpu::CpuConfig;
use tdo_mem::{ArmConfig, MemConfig};
use tdo_trident::TridentConfig;

/// Which prefetching machinery is active — the paper's experimental arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchSetup {
    /// No prefetching at all (Figure 2/9 denominator).
    NoPrefetch,
    /// Hardware stream buffers, 4 buffers × 4 entries (Figure 2).
    Hw4x4,
    /// Hardware stream buffers, 8×8 — the paper's baseline.
    Hw8x8,
    /// Baseline + dynamic software prefetching at a fixed estimated
    /// distance (prior work, "basic" in Figure 5).
    SwBasic,
    /// Baseline + whole-object prefetching, fixed estimated distance.
    SwWholeObject,
    /// Baseline + the paper's self-repairing prefetcher.
    SwSelfRepair,
    /// Software self-repairing prefetching with *no* hardware prefetcher
    /// (Figure 9 comparison).
    SwOnlySelfRepair,
    /// Hardware fixed-degree next-line arm (no software prefetching).
    HwNextLine,
    /// Hardware adaptive-degree next-line arm (MPKI hill-climb).
    HwAdaptiveNextLine,
    /// Hardware PC-stride delta arm.
    HwDelta,
    /// Runtime policy controller: starts with no arm and hill-climbs over
    /// [`policy_candidates`] at epoch boundaries.
    Policy,
}

impl PrefetchSetup {
    /// All arms, in presentation order.
    pub const ALL: [PrefetchSetup; 11] = [
        PrefetchSetup::NoPrefetch,
        PrefetchSetup::Hw4x4,
        PrefetchSetup::Hw8x8,
        PrefetchSetup::SwBasic,
        PrefetchSetup::SwWholeObject,
        PrefetchSetup::SwSelfRepair,
        PrefetchSetup::SwOnlySelfRepair,
        PrefetchSetup::HwNextLine,
        PrefetchSetup::HwAdaptiveNextLine,
        PrefetchSetup::HwDelta,
        PrefetchSetup::Policy,
    ];

    /// The software mode this arm runs.
    #[must_use]
    pub fn sw_mode(self) -> SwPrefetchMode {
        match self {
            PrefetchSetup::NoPrefetch
            | PrefetchSetup::Hw4x4
            | PrefetchSetup::Hw8x8
            | PrefetchSetup::HwNextLine
            | PrefetchSetup::HwAdaptiveNextLine
            | PrefetchSetup::HwDelta
            | PrefetchSetup::Policy => SwPrefetchMode::Off,
            PrefetchSetup::SwBasic => SwPrefetchMode::Basic,
            PrefetchSetup::SwWholeObject => SwPrefetchMode::WholeObject,
            PrefetchSetup::SwSelfRepair | PrefetchSetup::SwOnlySelfRepair => {
                SwPrefetchMode::SelfRepair
            }
        }
    }

    /// The short name used at every user-facing surface (`tdo run --arm`,
    /// `tdo compare` rows, server `/run` bodies).
    #[must_use]
    pub fn cli_name(self) -> &'static str {
        match self {
            PrefetchSetup::NoPrefetch => "none",
            PrefetchSetup::Hw4x4 => "hw4x4",
            PrefetchSetup::Hw8x8 => "hw8x8",
            PrefetchSetup::SwBasic => "basic",
            PrefetchSetup::SwWholeObject => "whole",
            PrefetchSetup::SwSelfRepair => "sr",
            PrefetchSetup::SwOnlySelfRepair => "swonly",
            PrefetchSetup::HwNextLine => "nl",
            PrefetchSetup::HwAdaptiveNextLine => "adanl",
            PrefetchSetup::HwDelta => "delta",
            PrefetchSetup::Policy => "policy",
        }
    }

    /// Parses a short arm name (the inverse of [`PrefetchSetup::cli_name`]).
    #[must_use]
    pub fn from_cli_name(name: &str) -> Option<PrefetchSetup> {
        PrefetchSetup::ALL.into_iter().find(|s| s.cli_name() == name)
    }

    /// The memory configuration this arm runs (full-scale hierarchy).
    ///
    /// The policy setup deliberately starts with *no* hardware arm
    /// ([`tdo_mem::ArmConfig::None`]): the [`Machine`](crate::Machine)
    /// installs the controller's first candidate — or the locked arm — via
    /// `Hierarchy::set_arm`, so a locked controller run is state-identical
    /// to the corresponding static run.
    #[must_use]
    pub fn mem(self) -> MemConfig {
        match self {
            PrefetchSetup::NoPrefetch | PrefetchSetup::SwOnlySelfRepair => MemConfig::no_prefetch(),
            PrefetchSetup::Hw4x4 => MemConfig::hw_four_by_four(),
            PrefetchSetup::HwNextLine => MemConfig::hw_next_line(),
            PrefetchSetup::HwAdaptiveNextLine => MemConfig::hw_adaptive_next_line(),
            PrefetchSetup::HwDelta => MemConfig::hw_delta(),
            PrefetchSetup::Policy => {
                MemConfig { arm: ArmConfig::None, ..MemConfig::paper_baseline() }
            }
            _ => MemConfig::paper_baseline(),
        }
    }
}

/// The arms the policy controller hill-climbs over, in sweep order. The
/// order is part of the simulation contract (results are a function of it),
/// so it is fixed: the paper's stream-buffer baseline first, then the
/// next-line family, then the delta arm.
#[must_use]
pub fn policy_candidates() -> [ArmConfig; 4] {
    [
        ArmConfig::Stream(tdo_mem::StreamBufferConfig::eight_by_eight()),
        ArmConfig::NextLine(tdo_mem::NextLineConfig::default()),
        ArmConfig::AdaptiveNextLine(tdo_mem::AdaptiveNextLineConfig::default()),
        ArmConfig::Delta(tdo_mem::DeltaConfig::default()),
    ]
}

/// Configuration of the runtime arm-selection policy controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Original-equivalent instructions per decision epoch.
    pub epoch_insts: u64,
    /// A sweep winner must beat the incumbent's sampled IPC by this many
    /// milli-units (parts per thousand) to replace it.
    pub hysteresis_milli: u64,
    /// Committed-arm IPC dropping this many milli-units below the best
    /// committed-epoch IPC triggers a fresh sweep (the phase-change
    /// detector).
    pub degrade_milli: u64,
    /// Pin the controller to one arm: install it at cycle 0 and never
    /// sample or switch. Differential tests use this to show the controller
    /// plumbing adds zero perturbation.
    pub locked: Option<ArmConfig>,
}

impl PolicyConfig {
    /// Full-scale epochs: 50 K original-equivalent instructions, 2%
    /// hysteresis, 10% degradation trigger.
    #[must_use]
    pub fn paper() -> PolicyConfig {
        PolicyConfig { epoch_insts: 50_000, hysteresis_milli: 20, degrade_milli: 100, locked: None }
    }

    /// Test-scale epochs (5 K instructions) with the paper's thresholds.
    #[must_use]
    pub fn test() -> PolicyConfig {
        PolicyConfig { epoch_insts: 5_000, ..PolicyConfig::paper() }
    }
}

/// A full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Core model.
    pub cpu: CpuConfig,
    /// Memory system.
    pub mem: MemConfig,
    /// Trident framework (profiler, watch table, code cache).
    pub trident: TridentConfig,
    /// Delinquent load table.
    pub dlt: DltConfig,
    /// Software prefetching mode.
    pub sw_mode: SwPrefetchMode,
    /// Start self-repair from the estimated distance (eq. 2) instead of 1 —
    /// the paper's §3.5.1 alternate strategy (non-repairing modes always
    /// estimate regardless of this flag).
    pub estimated_initial: bool,
    /// Whether Trident runs at all (trace formation + monitoring). With
    /// this off the run is a pure hardware baseline.
    pub trident_enabled: bool,
    /// §5.1 overhead experiment: the optimizer runs but never links its
    /// traces, measuring pure helper-thread interference.
    pub no_link: bool,
    /// Original-equivalent instructions of warmup (optimization disabled,
    /// per §4.2).
    pub warmup_insts: u64,
    /// Original-equivalent instructions measured after warmup.
    pub measure_insts: u64,
    /// Hard cycle cap (safety stop for degenerate configurations).
    pub max_cycles: u64,
    /// §3.5.2 phase-change extension: clear all DLT mature flags (and
    /// refresh repair budgets) every this many cycles, letting matured
    /// loads be re-tuned after behaviour changes. `None` = paper default
    /// (maturity persists until DLT eviction).
    pub mature_clear_interval: Option<u64>,
    /// Helper-job cost model: instructions charged per optimization.
    pub job_cost: JobCostModel,
    /// Observability: emit one windowed performance sample every this many
    /// committed original-equivalent instructions (only when a probe is
    /// attached; disabled runs never sample).
    pub sample_insts: u64,
    /// Runtime arm-selection policy controller; `None` runs whatever
    /// static arm `mem.arm` names.
    pub policy: Option<PolicyConfig>,
}

/// Simulated helper-thread instruction counts for each optimizer activity.
///
/// The analyses themselves run natively; these charges model the runtime
/// optimizer code (written in C and compiled `-O5` in the paper) executing
/// on the helper context.
#[derive(Clone, Copy, Debug)]
pub struct JobCostModel {
    /// Forming, optimizing and installing a trace: base cost.
    pub form_base: u64,
    /// Additional cost per trace instruction formed.
    pub form_per_inst: u64,
    /// Prefetch insertion (re-optimization): base cost.
    pub insert_base: u64,
    /// Additional cost per trace instruction scanned.
    pub insert_per_inst: u64,
    /// One in-place distance repair.
    pub repair: u64,
    /// An event that ends in no action (analysis only).
    pub analyze_only: u64,
}

impl Default for JobCostModel {
    fn default() -> Self {
        JobCostModel {
            form_base: 600,
            form_per_inst: 25,
            insert_base: 500,
            insert_per_inst: 20,
            repair: 200,
            analyze_only: 120,
        }
    }
}

impl SimConfig {
    /// The paper's full-scale configuration for one experimental arm.
    #[must_use]
    pub fn paper(setup: PrefetchSetup) -> SimConfig {
        let sw = setup.sw_mode();
        SimConfig {
            cpu: CpuConfig::paper_baseline(),
            mem: setup.mem(),
            trident: TridentConfig::paper_baseline(),
            dlt: DltConfig::paper_baseline(),
            sw_mode: sw,
            estimated_initial: false,
            trident_enabled: sw != SwPrefetchMode::Off,
            no_link: false,
            warmup_insts: 200_000,
            measure_insts: 2_000_000,
            max_cycles: u64::MAX,
            mature_clear_interval: None,
            job_cost: JobCostModel::default(),
            sample_insts: 50_000,
            policy: (setup == PrefetchSetup::Policy).then(PolicyConfig::paper),
        }
    }

    /// A fast configuration for unit/integration tests: the tiny cache
    /// hierarchy and small windows, paired with `Scale::Test` workloads.
    #[must_use]
    pub fn test(setup: PrefetchSetup) -> SimConfig {
        let sw = setup.sw_mode();
        let mut mem = MemConfig::tiny_for_tests();
        mem.arm = setup.mem().arm;
        let mut trident = TridentConfig::paper_baseline();
        trident.code_cache_base = 0x4000_0000;
        SimConfig {
            cpu: CpuConfig::paper_baseline(),
            mem,
            trident,
            dlt: DltConfig {
                window: 64,
                miss_threshold: 3,
                partial_min_accesses: 16,
                ..DltConfig::paper_baseline()
            },
            sw_mode: sw,
            estimated_initial: false,
            trident_enabled: sw != SwPrefetchMode::Off,
            no_link: false,
            warmup_insts: 20_000,
            measure_insts: 300_000,
            max_cycles: 200_000_000,
            mature_clear_interval: None,
            job_cost: JobCostModel::default(),
            sample_insts: 10_000,
            policy: (setup == PrefetchSetup::Policy).then(PolicyConfig::test),
        }
    }
}
