//! Pinning the benchmark to one CPU.
//!
//! On a shared virtual machine the hypervisor takes CPU time from busy
//! vCPUs ("steal"). With both vCPUs of the reference machine busy, steal
//! reached 15% on `drill_cold` and 38% on `revisit_hot`; pinned to one
//! vCPU it stayed near 4%, and the run-to-run spread of the read latency
//! fell from 31% to 3%. Threads inherit the affinity of the thread that
//! spawns them, so setting it on the main thread before any thread
//! starts pins the server, the clients and every pool alike.

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

/// A CPU affinity mask.
#[derive(Clone)]
pub struct Mask([u64; WORDS]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's affinity mask.
#[cfg(target_os = "linux")]
pub fn current() -> Option<Mask> {
    let mut mask = Mask([0; WORDS]);
    // SAFETY: the pointer and size describe `mask.0`, a writable buffer
    // of exactly `size_of_val` bytes; pid 0 names the calling thread.
    let status =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

/// Sets the calling thread's affinity mask; true on success.
#[cfg(target_os = "linux")]
pub fn set(mask: &Mask) -> bool {
    // SAFETY: the pointer and size describe `mask.0`, a readable buffer
    // of exactly `size_of_val` bytes; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) };
    status == 0
}

#[cfg(not(target_os = "linux"))]
pub fn current() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn set(_mask: &Mask) -> bool {
    false
}

impl Mask {
    /// The highest-numbered CPU in the mask (CPU 0 tends to take the
    /// machine's interrupts).
    pub fn last_cpu(&self) -> Option<usize> {
        (0..WORDS * 64)
            .rev()
            .find(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    /// The mask holding only `cpu`.
    pub fn only(cpu: usize) -> Mask {
        let mut words = [0; WORDS];
        words[cpu / 64] = 1 << (cpu % 64);
        Mask(words)
    }
}
