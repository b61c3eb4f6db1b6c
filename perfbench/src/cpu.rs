//! The process CPU clock, the reference-speed scale, and pinning the
//! benchmark to one CPU.
//!
//! The timed figures are read from the process CPU clock: the time CPUs
//! spent running any thread of this process. On a virtual host shared
//! with other tenants the wall clock also counts time the hypervisor gave
//! the CPU to someone else (steal) and the wait for a halted virtual CPU
//! to be woken; the kernel keeps both out of the CPU clock. Pinning every
//! thread to one CPU makes the CPU clock of a closed-loop operation equal
//! to its wall time minus those two, since every thread that works for it
//! runs, one after another, on that CPU.
//!
//! The CPU clock still runs at the host's changing speed: on the shared
//! reference host a fixed loop took anywhere from 7.5 to 13.5 ms from one
//! second to the next, in stretches of seconds. So the benchmark times a
//! fixed kernel of its own ([`calibrate`]) beside the operations and
//! reports their CPU times scaled to the speed at which that kernel takes
//! [`REFERENCE`]: milliseconds on a reference CPU. The kernel is part of
//! the benchmark, not of the program, so a change to the program moves
//! the scaled figures and a change of host speed does not.

use std::sync::OnceLock;
use std::time::Duration;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU masks up to 1024 CPUs.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPU time used so far by all threads of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Process CPU seconds used since `start`, a reading of [`process_cpu`].
pub fn secs_since(start: Duration) -> f64 {
    process_cpu().saturating_sub(start).as_secs_f64()
}

/// CPU time of [`calibrate`] on the reference CPU: about its median on
/// the 2-vCPU reference host. Scaled figures are in this CPU's time.
pub const REFERENCE: Duration = Duration::from_micros(40);

/// Runs a fixed kernel (dependent multiply-adds and lookups in a 256 KiB
/// table, the mix of arithmetic and cache traffic an index scan makes)
/// and returns the process CPU time it took.
pub fn calibrate() -> Duration {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..1u64 << 15)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    });
    let mask = table.len() - 1;
    timed(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut acc = 0u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc = acc.rotate_left(5) ^ table[(x >> 40) as usize & mask];
        }
        std::hint::black_box(acc)
    })
    .1
}

/// The factor that scales CPU time measured while [`calibrate`] took
/// `kernel` (a median of several runs) to the reference CPU.
pub fn to_reference(kernel: Duration) -> f64 {
    REFERENCE.as_secs_f64() / kernel.as_secs_f64().max(1e-9)
}

/// Runs `f` and returns its result with the process CPU time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = process_cpu();
    let r = f();
    (r, process_cpu().saturating_sub(start))
}

fn affinity() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and its size is passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &Mask) -> bool {
    // SAFETY: `mask` is readable and its size is passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The CPUs the process could use before it was pinned.
static ALLOWED: OnceLock<Mask> = OnceLock::new();

/// Pins the calling thread, and every thread it starts later, to the
/// first CPU it may use. Call before any other thread starts. Returns
/// that CPU, or `None` when the affinity could not be set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let allowed = affinity()?;
    let cpu = (0..MASK_WORDS * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    ALLOWED.get_or_init(|| allowed);
    set_affinity(&one).then_some(cpu)
}

/// Runs `f` with the calling thread (and threads `f` starts) allowed on
/// every CPU the process could use before it was pinned, then pins it
/// back. For untimed work such as verification.
pub fn on_all_cpus<R>(f: impl FnOnce() -> R) -> R {
    let (Some(allowed), Some(pinned)) = (ALLOWED.get(), affinity()) else {
        return f();
    };
    let widened = set_affinity(allowed);
    let r = f();
    if widened {
        set_affinity(&pinned);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_counts_work() {
        let (sum, worked) = timed(|| (0..20_000_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31)));
        assert!(sum != 1);
        assert!(
            worked > Duration::from_micros(100),
            "work not counted: {worked:?}"
        );
    }

    #[test]
    fn calibration_kernel_is_timed_and_scales() {
        let kernel = calibrate();
        assert!(kernel > Duration::ZERO);
        assert!((to_reference(REFERENCE) - 1.0).abs() < 1e-12);
        assert!((to_reference(REFERENCE * 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pinning_keeps_one_cpu_and_verification_gets_them_all() {
        std::thread::spawn(|| {
            let count = |m: Mask| m.iter().map(|w| w.count_ones()).sum::<u32>();
            let before = count(affinity().expect("affinity"));
            assert!(pin_to_one_cpu().is_some());
            assert_eq!(count(affinity().expect("affinity")), 1);
            on_all_cpus(|| assert_eq!(count(affinity().expect("affinity")), before));
            assert_eq!(count(affinity().expect("affinity")), 1);
        })
        .join()
        .expect("pinning thread");
    }
}
