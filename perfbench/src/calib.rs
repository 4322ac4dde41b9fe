//! Machine-speed calibration of host times.
//!
//! The two-CPU hosts this benchmark was built on share caches and memory
//! bandwidth with other tenants: for tens of seconds at a time the
//! simulator's memory-heavy work runs up to 1.6× slower, while pure
//! arithmetic does not slow at all. Raw wall times then differ more between
//! runs than any regression bound. So every timed interval is bracketed by
//! a fixed probe — ordered-map updates, float math and string building,
//! the simulator's own mix of work, written against `std` only so no change
//! to the simulator moves it — and the interval is reported at reference
//! speed: `raw × REFERENCE_PROBE_MS / probe`, where `probe` is the
//! geometric mean of the probe times just before and just after it. The
//! probe runs on a thread of its own, pinned to the CPU the timed work
//! last ran on, so its allocations come from a heap the measured requests
//! never touch; work that keeps several CPUs busy is probed on each of
//! them at once. The raw times are reported next to the calibrated ones.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The probe's time on the reference host (2 vCPUs at 2.0 GHz, quiet).
pub const REFERENCE_PROBE_MS: f64 = 25.0;

const PROBE_INSERTS: u64 = 150_000;
const PROBE_KEYS: u64 = 60_000;
const PROBE_STRINGS: u64 = 25_000;

/// Run the probe once on the calling thread; its wall time in ms.
fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..PROBE_INSERTS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % PROBE_KEYS, (i as f64).sqrt());
    }
    let sum: f64 = map.values().sum();
    let strings: Vec<String> = (0..PROBE_STRINGS).map(|i| format!("{i}.{}", i * 3)).collect();
    std::hint::black_box((sum, strings));
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time in ms.
    pub raw_ms: f64,
    /// Wall time at reference machine speed, in ms.
    pub ms: f64,
    /// Probe time bracketing the interval, in ms.
    pub probe_ms: f64,
}

/// The CPU the calling thread runs on, if the platform says.
#[cfg(target_os = "linux")]
fn current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments, touches no memory of ours
    // and only reports the calling thread's CPU (or -1).
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// Move the calling thread onto `cpu`; best effort.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    if cpu < 1024 {
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialized 128-byte buffer, exactly the
        // `cpusetsize` passed; pid 0 names the calling thread; the call
        // only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
fn current_cpu() -> Option<usize> {
    None
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_: usize) {}

/// Probe threads: each request on a thread's `ask` channel names the CPU to
/// run the probe on; the time comes back on the shared `answer` channel.
#[derive(Debug)]
struct Prober {
    ask: Vec<Sender<Option<usize>>>,
    answer: Receiver<f64>,
    threads: Vec<JoinHandle<()>>,
}

impl Prober {
    fn spawn(threads: usize) -> Self {
        let (reply, answer) = channel();
        let (ask, threads) = (0..threads)
            .map(|_| {
                let (ask, asked) = channel::<Option<usize>>();
                let reply = reply.clone();
                let thread = std::thread::spawn(move || {
                    while let Ok(cpu) = asked.recv() {
                        if let Some(cpu) = cpu {
                            pin_to(cpu);
                        }
                        if reply.send(probe_ms()).is_err() {
                            break;
                        }
                    }
                });
                (ask, thread)
            })
            .unzip();
        Self { ask, answer, threads }
    }

    /// Mean probe time: one probe on the caller's CPU, or, with several
    /// threads, one per CPU at once, as a pool of that many workers runs.
    fn probe(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (i, ask) in self.ask.iter().enumerate() {
            let cpu = if self.ask.len() == 1 { current_cpu() } else { Some(i % cpus) };
            ask.send(cpu).expect("the probe threads run until drop");
        }
        let total: f64 =
            self.ask.iter().map(|_| self.answer.recv().expect("a probe thread answers")).sum();
        total / self.ask.len() as f64
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        // Closing the channels ends the threads' loops; join them.
        self.ask.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Times intervals between probes; each probe serves the interval before
/// and the interval after it.
#[derive(Debug)]
pub struct Calibrator {
    prober: Prober,
    last_probe: f64,
}

impl Calibrator {
    /// A calibrator for work that keeps `threads` CPUs busy.
    pub fn new(threads: usize) -> Self {
        let prober = Prober::spawn(threads.max(1));
        let last_probe = prober.probe();
        Self { prober, last_probe }
    }

    /// Scale an interval that ended just before this calibrator's first
    /// probe.
    pub fn before_first(&self, raw_ms: f64) -> Timed {
        Self::scale(raw_ms, self.last_probe)
    }

    /// Time `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_probe;
        let t = Instant::now();
        let out = f();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        self.last_probe = self.prober.probe();
        (out, Self::scale(raw_ms, (before * self.last_probe).sqrt()))
    }

    fn scale(raw_ms: f64, probe_ms: f64) -> Timed {
        Timed { raw_ms, ms: raw_ms * REFERENCE_PROBE_MS / probe_ms, probe_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_bracketing_probes() {
        let t = Calibrator::scale(100.0, 2.0 * REFERENCE_PROBE_MS);
        assert_eq!((t.raw_ms, t.ms), (100.0, 50.0));
        for threads in [1, 2] {
            let mut c = Calibrator::new(threads);
            let (v, t) = c.time(|| 7);
            assert_eq!(v, 7);
            assert!(t.probe_ms > 0.0 && t.ms > 0.0 && t.raw_ms >= 0.0);
        }
    }
}
