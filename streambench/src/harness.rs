//! Measurement helpers shared by the workloads: the host clock, the
//! timed window and its rounds, the repeated set-up, and the process's
//! memory readings.

use std::time::{Duration, Instant};

use crate::stats::{summarize, Summary};

/// One run's parameters, as the command line gave them.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Index of the workload in `WORKLOADS` (the trace's `pid`).
    pub workload: u32,
    /// Where a traced run writes its spans as Chrome trace events.
    pub trace_out: Option<std::path::PathBuf>,
}

impl RunCfg {
    /// A share of the window, for the secondary measurements of a
    /// traced run, which together must fit the window's length.
    pub fn share(&self, part: f64) -> f64 {
        self.seconds * part
    }
}

/// Steps of the reference loop in one reading of the host's speed: about
/// 20 us, long enough for the clock's resolution, short enough to read
/// between samples of a few microseconds.
const REFERENCE_STEPS: u32 = 20_000;

/// How slow the host is right now: nanoseconds per step of a chain of
/// dependent multiply-adds that touches no memory.  The baseline host
/// reads 0.96 at its fastest and 1.3 when its neighbours are busy, and
/// moves between the two within seconds and for minutes at a time; a
/// program's times move with it.  Dividing a time by the reading taken
/// next to it gives seconds on a host that runs the loop at exactly one
/// nanosecond a step, which is what the benchmark reports: the same
/// code then reads the same whatever the neighbours do to the clock rate.
pub fn host_slowness() -> f64 {
    let mut x = std::hint::black_box(1u64);
    let t0 = Instant::now();
    for _ in 0..REFERENCE_STEPS {
        x = std::hint::black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(REFERENCE_STEPS)
}

/// Times calls in seconds of the nominal host (see [`host_slowness`]):
/// the host's speed is read between every two calls, and a call's wall
/// time is divided by the smaller of the readings on its two sides (a
/// reading the hypervisor interrupted is too large, never too small).
pub struct HostClock {
    slowness: f64,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            slowness: host_slowness(),
        }
    }

    /// Run `f`; returns its result and its corrected seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        (out, wall / self.read())
    }

    /// Read the host's speed again; returns the factor for whatever ran
    /// since the previous reading.
    pub fn read(&mut self) -> f64 {
        let after = host_slowness();
        let factor = self.slowness.min(after);
        self.slowness = after;
        factor
    }
}

/// Per-call seconds of a window, plus how many calls failed.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: Vec<f64>,
    pub failed: u64,
    pub elapsed: f64,
}

impl Window {
    pub fn summary(&self) -> Summary {
        summarize(&self.seconds)
    }
}

/// Call `batch` once untimed (caches fill, lazy set-up finishes), then
/// repeatedly for `seconds` of wall time, timing each call on a
/// [`HostClock`].  A call that returns `Err` counts as failed; its
/// reason goes to `errors` (first few only).
pub fn window(
    seconds: f64,
    errors: &mut Vec<String>,
    batch: impl FnMut() -> Result<(), String>,
) -> Window {
    window_in_rounds(seconds, 1, errors, batch, |_| {})
}

/// [`window`] cut into `rounds` equal slices, `aside(round)` running
/// untimed after each: the workload's other measurements (set-ups,
/// first-output probes) go there, in small bursts spread over the whole
/// run, so that one bad second of a shared host falls on a tenth of
/// every metric's samples and not on all the samples of one.  None runs
/// before the first slice: a process that has just started finds the
/// other CPU idle and wakes a thread on it in two thirds of the time it
/// takes once both have been busy for a second, and that is not the
/// state the window measures.
pub fn window_in_rounds(
    seconds: f64,
    rounds: u32,
    errors: &mut Vec<String>,
    mut batch: impl FnMut() -> Result<(), String>,
    mut aside: impl FnMut(u32),
) -> Window {
    let mut w = Window {
        seconds: Vec::with_capacity(1 << 16),
        ..Window::default()
    };
    if let Err(e) = batch() {
        errors.push(format!("warm-up: {e}"));
    }
    let limit = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    for round in 0..rounds {
        let until = limit * (round + 1) / rounds;
        let mut clock = HostClock::start();
        let start = Instant::now();
        loop {
            let (r, secs) = clock.time(&mut batch);
            w.seconds.push(secs);
            if let Err(e) = r {
                w.failed += 1;
                if errors.len() < 8 {
                    errors.push(e);
                }
            }
            if spent + start.elapsed() >= until {
                spent += start.elapsed();
                break;
            }
        }
        aside(round);
    }
    w.elapsed = spent.as_secs_f64();
    w
}

/// A window whose calls alternate between a plain and a traced form of
/// the same batch, so that drift in the host's speed falls on both
/// alike; `rng` picks which of each pair goes first, so that nothing
/// periodic in the system can line up with one form.  Returns the plain
/// calls' and the traced calls' seconds; `w.seconds` holds both.
pub fn paired_window(
    seconds: f64,
    rng: &mut crate::prng::Rng,
    errors: &mut Vec<String>,
    mut batch: impl FnMut(bool) -> Result<(), String>,
) -> (Window, Vec<f64>, Vec<f64>) {
    let mut order = Vec::new();
    let mut first = false;
    let w = window(seconds, errors, || {
        let traced = if order.len() % 2 == 0 {
            first = rng.below(2) == 1;
            first
        } else {
            !first
        };
        order.push(traced);
        batch(traced)
    });
    // The warm-up call took `order[0]`.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (secs, was_traced) in w.seconds.iter().zip(&order[1..]) {
        if *was_traced {
            traced.push(*secs);
        } else {
            plain.push(*secs);
        }
    }
    (w, plain, traced)
}

/// The set-up, repeated and timed on the host clock.
#[derive(Debug, Default)]
pub struct Setups {
    /// Corrected seconds per set-up.
    pub seconds: Vec<f64>,
    /// Wall seconds per set-up, for a set-up that mostly waits.
    pub wall: Vec<f64>,
}

impl Setups {
    /// Most repetitions in one burst: bounds the memory the samples take.
    const MOST: usize = 400;

    /// One set-up; returns what it made.
    pub fn once<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let mut clock = HostClock::start();
        let t0 = Instant::now();
        let out = setup();
        let wall = t0.elapsed().as_secs_f64();
        self.seconds.push(wall / clock.read());
        self.wall.push(wall);
        out
    }

    /// A burst of set-ups, their results dropped: at least one, more
    /// while `budget` seconds last.
    pub fn burst<T>(&mut self, budget: f64, mut setup: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..Self::MOST {
            drop(self.once(&mut setup));
            if start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }

    /// Correct `wall`, seconds measured inside each successive set-up,
    /// the way the set-ups themselves were corrected.
    pub fn corrected(&self, wall: &[f64]) -> Vec<f64> {
        let whole = self.seconds.iter().zip(&self.wall);
        wall.iter()
            .zip(whole)
            .map(|(s, (c, w))| s * c / w)
            .collect()
    }

    pub fn summary(&self) -> Summary {
        summarize(&self.seconds)
    }
}

/// Time `f` `n` times on a [`HostClock`] and return the per-call seconds.
pub fn time_calls(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut clock = HostClock::start();
    (0..n).map(|_| clock.time(&mut f).1).collect()
}

fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`) in MiB; each workload
/// runs in a process of its own, so this is the workload's peak.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in KiB.
pub fn rss_kib() -> f64 {
    status_kib("VmRSS:")
}

/// Kernel id of the calling thread, from `/proc/thread-self`.
pub fn thread_id() -> Option<i32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Restrict thread `tid` (`None`: the caller) to the CPUs in `mask`
/// (bit `i` = CPU `i`).  Returns whether the kernel agreed; on other
/// platforms nothing is pinned and the run is merely noisier.
///
/// The standard library has no affinity call and the benchmark adds no
/// dependency, hence the raw system call.
pub fn set_affinity(tid: Option<i32>, mask: u64) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let ret: isize;
        // SAFETY: sched_setaffinity(2) (number 203) reads 8 bytes at
        // `&mask`, which outlives the call, and writes to no memory of
        // this process; `syscall` clobbers only rcx and r11 besides rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret,
                in("rdi") tid.unwrap_or(0) as isize,
                in("rsi") std::mem::size_of::<u64>(),
                in("rdx") &mask as *const u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (tid, mask);
        false
    }
}

/// All CPUs this process started with.
pub fn all_cpus() -> u64 {
    let n = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(64);
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The single-CPU mask for the `i`-th of a set of threads that should
/// each have a CPU of their own (wrapping on a smaller host).
pub fn cpu_for(i: usize) -> u64 {
    let n = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(64);
    1u64 << (i % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_on_linux_x86_64() {
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            std::thread::spawn(|| {
                assert!(thread_id().is_some());
                assert!(set_affinity(None, cpu_for(0)));
                assert!(set_affinity(thread_id(), all_cpus()));
                // A mask with no usable CPU is refused, not applied.
                assert!(!set_affinity(None, 0));
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn window_times_every_call_after_the_warm_up() {
        let mut calls = 0u32;
        let mut errors = Vec::new();
        let w = window(0.02, &mut errors, || {
            calls += 1;
            if calls == 3 {
                Err("third".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(w.seconds.len() as u32, calls - 1);
        assert_eq!(w.failed, 1);
        assert_eq!(errors, ["third"]);
        assert!(w.elapsed >= 0.02);
    }

    #[test]
    fn paired_window_splits_plain_and_traced_evenly() {
        let mut rng = crate::prng::Rng::new(5);
        let mut errors = Vec::new();
        let mut flags = Vec::new();
        let (w, plain, traced) = paired_window(0.02, &mut rng, &mut errors, |t| {
            flags.push(t);
            Ok(())
        });
        assert_eq!(plain.len() + traced.len(), w.seconds.len());
        assert!(plain.len().abs_diff(traced.len()) <= 2);
        assert!(
            flags.chunks_exact(2).all(|p| p[0] != p[1]),
            "each pair has both forms"
        );
        assert!(
            flags.windows(2).any(|p| p[0] == p[1]),
            "the order within pairs varies"
        );
    }

    #[test]
    fn setups_are_counted_and_corrected_alike() {
        let mut n = 0;
        let mut count = || {
            std::thread::sleep(Duration::from_micros(100));
            n += 1;
            n
        };
        let mut s = Setups::default();
        assert_eq!(s.once(&mut count), 1);
        s.burst(0.0, &mut count);
        s.burst(0.002, &mut count);
        assert_eq!(s.summary().n, n);
        assert!(n >= 3);
        // A time measured inside a set-up gets that set-up's factor.
        let inner = s.corrected(&vec![1.0; n]);
        assert_eq!(inner.len(), n);
        assert!(inner.iter().all(|v| *v > 0.02 && *v < 10.0), "{inner:?}");
    }

    #[test]
    fn rounds_share_the_window_and_asides_run_after_each() {
        let mut errors = Vec::new();
        let mut asides = Vec::new();
        let mut calls = 0u32;
        let w = window_in_rounds(
            0.03,
            3,
            &mut errors,
            || {
                calls += 1;
                Ok(())
            },
            |round| asides.push((round, std::time::Instant::now())),
        );
        assert_eq!(asides.iter().map(|a| a.0).collect::<Vec<_>>(), [0, 1, 2]);
        // A third of the window lies between two asides.
        assert!(asides[2].1 - asides[1].1 >= Duration::from_millis(10));
        assert_eq!(w.seconds.len() as u32, calls - 1);
        assert!(w.elapsed >= 0.03 && w.elapsed < 0.2);
    }

    #[test]
    fn the_host_clock_reads_about_a_nanosecond_a_step() {
        let slowness = host_slowness();
        assert!(slowness > 0.1 && slowness < 50.0, "{slowness}");
        let mut clock = HostClock::start();
        let ((), secs) = clock.time(|| std::thread::sleep(Duration::from_millis(5)));
        // 5 ms of wall time over a factor within the same range.
        assert!(secs > 0.005 / 50.0 && secs < 0.2, "{secs}");
    }

    #[test]
    fn memory_readings_are_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
            assert!(rss_kib() > 0.0);
        }
    }
}
