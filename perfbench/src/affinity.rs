//! CPU placement for the serving workload.
//!
//! The serving workload runs the server, its workers and its two clients
//! in one process, all on one CPU. Left to the scheduler, where the
//! threads landed decided how often a client won the race against the
//! accept loop's 20 ms poll, and the median round trip moved between about
//! 0.6 ms and 20 ms from one run to the next; a fixed placement makes runs
//! comparable. One CPU rather than one each for the server and the
//! clients: on a virtual machine an idle virtual CPU is handed back to
//! the host, and waking it again waits until the hypervisor schedules it
//! (time the guest counts as steal). On a 2-vCPU KVM guest with the
//! clients on the second CPU, every reply had to wake that idle CPU, and
//! over ten 35 s runs the p99 round trip followed the steal each run met
//! (26.5 ms at 1.6 s of steal, 38.9 ms at 9.1 s; correlation 0.96). On one
//! CPU a reply wakes its client on the CPU that is already running: over
//! eleven alternating pairs of 25 s runs the p99 read 25.7 to 30.4 ms on
//! one CPU against 25.3 to 33.8 ms split, and the runs met less steal.
//! The placement is printed with the run.

/// Words in the CPU mask passed to the kernel (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order (empty when
/// unknown).
#[must_use]
pub fn allowed() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly
        // `size_of_val(&mask)` bytes, which is the size passed, so the
        // kernel writes only inside it; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
        // a live buffer of that size; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        return rc == 0;
    }
    #[allow(unreachable_code)]
    false
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the first CPU it may run on. Returns that CPU, or `None` when the
/// allowed set is unknown or the kernel refused.
pub fn pin_to_first() -> Option<usize> {
    let cpu = *allowed().first()?;
    pin(cpu).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_applies_to_the_calling_thread_and_its_later_children() {
        let before = allowed();
        let Some(&first) = before.first() else { return };
        std::thread::spawn(move || {
            assert_eq!(pin_to_first(), Some(first));
            assert_eq!(allowed(), vec![first]);
            std::thread::spawn(move || assert_eq!(allowed(), vec![first])).join().unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(allowed(), before);
        assert!(!pin(MASK_WORDS * 64));
    }
}
