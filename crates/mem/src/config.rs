//! Memory-system configuration (paper Table 1).

use tdo_arms::{
    AdaptiveNextLineConfig, ArmConfig, DeltaConfig, NextLineConfig, StreamBufferConfig,
};

use crate::cache::CacheConfig;

/// Configuration of the whole data-memory subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Unified L3 cache.
    pub l3: CacheConfig,
    /// Full main-memory access latency in cycles.
    pub mem_latency: u64,
    /// DRAM-bus occupancy per line transfer (serializes memory traffic).
    pub bus_occupancy: u64,
    /// Outstanding-miss (MSHR) capacity of the L1.
    pub mshrs: usize,
    /// Capacity of the displaced-by-prefetch tag log that identifies
    /// "misses due to prefetching" for the Figure 6 breakdown.
    pub displaced_log_entries: usize,
    /// The hardware prefetcher arm installed in front of the L2 (the
    /// policy controller in `tdo-sim` may swap it at run time).
    pub arm: ArmConfig,
    /// Tagged next-line prefetching (Smith & Hsu, the paper's §2.2
    /// precursor baseline): a demand miss — or the first touch of a
    /// prefetched line — prefetches the sequentially next line.
    pub next_line: bool,
}

impl MemConfig {
    /// The paper's baseline hierarchy (Table 1):
    /// 64 KB 2-way 3-cycle L1, 512 KB 8-way 11-cycle L2,
    /// 4 MB 16-way 35-cycle L3, 350-cycle memory, 8×8 stream buffers.
    #[must_use]
    pub fn paper_baseline() -> MemConfig {
        MemConfig {
            l1: CacheConfig { size_bytes: 64 << 10, assoc: 2, line_bytes: 64, latency: 3 },
            l2: CacheConfig { size_bytes: 512 << 10, assoc: 8, line_bytes: 64, latency: 11 },
            l3: CacheConfig { size_bytes: 4 << 20, assoc: 16, line_bytes: 64, latency: 35 },
            mem_latency: 350,
            bus_occupancy: 6,
            // Table 1's 64-entry memory queue: the number of misses the
            // memory system keeps in flight.
            mshrs: 64,
            displaced_log_entries: 8192,
            arm: ArmConfig::Stream(StreamBufferConfig::eight_by_eight()),
            next_line: false,
        }
    }

    /// The baseline with the hardware prefetcher disabled.
    #[must_use]
    pub fn no_prefetch() -> MemConfig {
        MemConfig { arm: ArmConfig::None, ..MemConfig::paper_baseline() }
    }

    /// The baseline with the smaller 4×4 stream-buffer configuration.
    #[must_use]
    pub fn hw_four_by_four() -> MemConfig {
        MemConfig {
            arm: ArmConfig::Stream(StreamBufferConfig::four_by_four()),
            ..MemConfig::paper_baseline()
        }
    }

    /// The baseline with the fixed-degree next-line arm instead of stream
    /// buffers.
    #[must_use]
    pub fn hw_next_line() -> MemConfig {
        MemConfig {
            arm: ArmConfig::NextLine(NextLineConfig::default()),
            ..MemConfig::paper_baseline()
        }
    }

    /// The baseline with the adaptive-degree next-line arm (hill-climbed
    /// degree, ChampSim's `next_line_linear_mpki` shape).
    #[must_use]
    pub fn hw_adaptive_next_line() -> MemConfig {
        MemConfig {
            arm: ArmConfig::AdaptiveNextLine(AdaptiveNextLineConfig::default()),
            ..MemConfig::paper_baseline()
        }
    }

    /// The baseline with the PC-stride delta arm.
    #[must_use]
    pub fn hw_delta() -> MemConfig {
        MemConfig { arm: ArmConfig::Delta(DeltaConfig::default()), ..MemConfig::paper_baseline() }
    }

    /// A scaled-down hierarchy for fast unit tests: same latencies, same
    /// relative shape (L1 holds prefetch-ahead state for several streams;
    /// the L3 is far smaller than the test workloads' working sets), an
    /// eighth of the paper's capacities.
    #[must_use]
    pub fn tiny_for_tests() -> MemConfig {
        MemConfig {
            l1: CacheConfig { size_bytes: 8 << 10, assoc: 2, line_bytes: 64, latency: 3 },
            l2: CacheConfig { size_bytes: 32 << 10, assoc: 4, line_bytes: 64, latency: 11 },
            l3: CacheConfig { size_bytes: 128 << 10, assoc: 8, line_bytes: 64, latency: 35 },
            mem_latency: 350,
            bus_occupancy: 6,
            mshrs: 16,
            displaced_log_entries: 1024,
            arm: ArmConfig::None,
            next_line: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let c = MemConfig::paper_baseline();
        assert_eq!(c.l1.size_bytes, 65536);
        assert_eq!(c.l1.assoc, 2);
        assert_eq!(c.l1.latency, 3);
        assert_eq!(c.l2.size_bytes, 524_288);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l2.latency, 11);
        assert_eq!(c.l3.size_bytes, 4 << 20);
        assert_eq!(c.l3.assoc, 16);
        assert_eq!(c.l3.latency, 35);
        assert_eq!(c.mem_latency, 350);
        let sb = c.arm.stream().unwrap();
        assert_eq!((sb.buffers, sb.entries_per_buffer), (8, 8));
        assert_eq!(sb.history_entries, 1024);
    }

    #[test]
    fn geometry_is_consistent() {
        let c = MemConfig::paper_baseline();
        assert_eq!(c.l1.num_sets(), 512);
        assert_eq!(c.l2.num_sets(), 1024);
        assert_eq!(c.l3.num_sets(), 4096);
    }

    #[test]
    fn every_arm_constructor_builds_its_kind() {
        use tdo_arms::ArmKind;
        assert_eq!(MemConfig::no_prefetch().arm, ArmConfig::None);
        assert_eq!(MemConfig::hw_next_line().arm.kind(), Some(ArmKind::NextLine));
        assert_eq!(MemConfig::hw_adaptive_next_line().arm.kind(), Some(ArmKind::AdaptiveNextLine));
        assert_eq!(MemConfig::hw_delta().arm.kind(), Some(ArmKind::Delta));
    }
}
