//! Keeps the engine phases on one CPU.
//!
//! `generate_probes` and `run_sweep` run their one worker on a thread they
//! spawn, which the scheduler may place on either vCPU, while the host-speed
//! calibration runs on the calling thread. Pinning the calling thread to
//! the CPU it is on before the engine phases makes the spawned workers
//! inherit that CPU (the calling thread only waits meanwhile), so work and
//! calibration share one core; the saved mask is restored before serving,
//! which needs more than one CPU. Only this process's own threads are
//! affected. Where the calls are unavailable the phases run unpinned.

use std::os::raw::{c_int, c_ulong};

/// `cpu_set_t`: 1024 CPU bits.
const MASK_WORDS: usize = 1024 / c_ulong::BITS as usize;

extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// The calling thread's CPU mask before [`pin_here`]; restores it on drop.
pub struct Pinned {
    saved: Option<[c_ulong; MASK_WORDS]>,
}

/// Pins the calling thread to the CPU it is running on.
pub fn pin_here() -> Pinned {
    let mut saved = [0 as c_ulong; MASK_WORDS];
    // SAFETY: `saved` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) };
    // SAFETY: no arguments; returns the CPU number or -1.
    let cpu = unsafe { sched_getcpu() };
    if got != 0 || cpu < 0 || cpu as usize >= MASK_WORDS * c_ulong::BITS as usize {
        return Pinned { saved: None };
    }
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let bits = c_ulong::BITS as usize;
    mask[cpu as usize / bits] = 1 << (cpu as usize % bits);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    Pinned {
        saved: (set == 0).then_some(saved),
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            // SAFETY: `saved` is a readable buffer of exactly the size
            // passed, filled by `sched_getaffinity` for this thread. A
            // failure leaves the thread pinned, which only slows serving.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(saved), saved.as_ptr()) };
        }
    }
}
