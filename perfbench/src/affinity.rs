//! Pinning the calling thread to one CPU (Linux `sched_setaffinity`).
//!
//! On a shared host the CPUs a benchmark gets are not equally fast at a
//! given moment: another tenant on a sibling hardware thread can slow one
//! of them by almost 2x for tens of seconds while another runs clean. The
//! grid workloads rotate their reps over the allowed CPUs, so every run
//! samples each of them instead of staying wherever the scheduler first
//! put it.

use std::io;

/// Bytes in a glibc `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// A CPU mask for the calling thread.
#[derive(Clone, PartialEq, Eq)]
pub struct CpuSet([u8; SET_BYTES]);

impl CpuSet {
    /// The calling thread's current mask.
    ///
    /// # Errors
    ///
    /// The OS error of `sched_getaffinity`.
    pub fn current() -> io::Result<Self> {
        let mut set = [0u8; SET_BYTES];
        // SAFETY: `set` is a writable buffer of `SET_BYTES` bytes, the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, SET_BYTES, set.as_mut_ptr()) };
        if rc == 0 {
            Ok(Self(set))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The mask holding only `cpu` (which must be below 1024).
    pub fn only(cpu: usize) -> Self {
        let mut set = [0u8; SET_BYTES];
        set[cpu / 8] = 1 << (cpu % 8);
        Self(set)
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..SET_BYTES * 8)
            .filter(|&c| self.0[c / 8] >> (c % 8) & 1 == 1)
            .collect()
    }

    /// Makes this the calling thread's mask.
    ///
    /// # Errors
    ///
    /// The OS error of `sched_setaffinity`.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a readable buffer of `SET_BYTES` bytes, the
        // size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, SET_BYTES, self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_an_allowed_cpu_and_back_round_trips() {
        let all = CpuSet::current().unwrap();
        let cpus = all.cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        CpuSet::only(last).apply().unwrap();
        assert_eq!(CpuSet::current().unwrap().cpus(), vec![last]);
        all.apply().unwrap();
        assert_eq!(CpuSet::current().unwrap().cpus(), cpus);
    }
}
