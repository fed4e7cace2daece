//! # streamit-bench
//!
//! What the one `paper` binary (`src/bin/paper`) measures and reports
//! with.  Its model subcommands (DESIGN.md's per-experiment index,
//! E1–E9, A1, A2) are pure functions of the source and need none of
//! this; `paper host` times this host, and every number it reports goes
//! through the one helper here: [`Timing::measure`] runs a calibrated
//! window of each side, repeats it, keeps the median and quartiles, and
//! interleaves the sides so that a ratio ([`Cell::ratio_to`]) compares
//! repetitions that saw the same host.  Every repetition also times a
//! control ([`control_ns_per_step`]) whose spread says whether the host
//! held still.  [`timed`] is the only clock read in the crate, and
//! [`report`] the only writer.

use std::hint::black_box;
use std::time::Instant;

/// Deterministic varied input usable by both int- and float-typed
/// apps; `varied_input(a)` is a prefix of `varied_input(b)` for `a <= b`.
pub fn varied_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
}

/// `f`'s result and the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Steps in one timing of the control.
const CONTROL_STEPS: u32 = 1 << 16;

/// Nanoseconds per step of the control: one chain of dependent
/// multiply-adds that touches no memory, so its time moves with the
/// host (clock rate, a neighbour on the core) and with nothing measured.
pub fn control_ns_per_step() -> f64 {
    let (x, s) = timed(|| {
        let mut x = black_box(1.0f64);
        for _ in 0..CONTROL_STEPS {
            x = x * 0.999_999 + 1e-6;
        }
        x
    });
    black_box(x);
    s * 1e9 / f64::from(CONTROL_STEPS)
}

/// Quantile `q` of an ascending, non-empty slice (linear interpolation
/// between neighbours).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// One reported number: the median and quartiles of its repetitions,
/// which are kept in the order they ran.
#[derive(Debug, Clone)]
pub struct Cell {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Cell {
    pub fn from_samples(samples: Vec<f64>) -> Cell {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Cell {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            samples,
        }
    }

    /// `self / base`, repetition by repetition.  Both must come from
    /// one [`Timing::measure`] call: repetition `i` of each side then
    /// ran back to back, so host drift cancels inside each quotient.
    pub fn ratio_to(&self, base: &Cell) -> Cell {
        assert_eq!(self.samples.len(), base.samples.len());
        let quotients = self.samples.iter().zip(&base.samples);
        Cell::from_samples(quotients.map(|(a, b)| a / b.max(1e-12)).collect())
    }

    /// `{"median", "q1", "q3", "reps", "unit"}`, and `"base"` — the cell
    /// this one is a multiple of — when it is a ratio.
    pub fn json(&self, unit: &str, base: Option<&str>) -> String {
        let mut fields = vec![
            ("median", number(self.median)),
            ("q1", number(self.q1)),
            ("q3", number(self.q3)),
            ("reps", self.samples.len().to_string()),
            ("unit", quoted(unit)),
        ];
        fields.extend(base.map(|b| ("base", quoted(b))));
        object(&fields)
    }
}

/// One side of a measurement: called with a scale `n`, it does `n`
/// units of its work and returns how many items that produced.
pub type Side<'a> = &'a mut dyn FnMut(u64) -> u64;

/// How long one timed window lasts and how often it is repeated.
#[derive(Debug, Clone)]
pub struct Timing {
    pub window_s: f64,
    pub reps: usize,
    /// The control's ns per step, one per repetition of every
    /// [`Timing::measure`] call so far.
    pub control: Vec<f64>,
}

impl Timing {
    /// The recorded run, or the smoke run behind `--quick`.
    pub fn new(quick: bool) -> Timing {
        match quick {
            true => Timing {
                window_s: 0.01,
                reps: 3,
                control: Vec::new(),
            },
            false => Timing {
                window_s: 0.2,
                reps: 7,
                control: Vec::new(),
            },
        }
    }

    /// Items per second of every side.  Each side's scale is calibrated
    /// once so that one call fills the window (which also warms it up);
    /// then every repetition runs each side once, in order, and the
    /// control once after them.
    pub fn measure(&mut self, sides: &mut [Side]) -> Vec<Cell> {
        let scales: Vec<u64> = sides.iter_mut().map(|s| self.calibrate(s)).collect();
        let mut rates = vec![Vec::with_capacity(self.reps); sides.len()];
        for _ in 0..self.reps {
            for ((side, &n), rate) in sides.iter_mut().zip(&scales).zip(&mut rates) {
                let (items, s) = timed(|| side(n));
                rate.push(items as f64 / s.max(1e-9));
            }
            self.control.push(control_ns_per_step());
        }
        rates.into_iter().map(Cell::from_samples).collect()
    }

    /// The control's cell, once a [`Timing::measure`] call has run it.
    pub fn control_cell(&self) -> Option<Cell> {
        (!self.control.is_empty()).then(|| Cell::from_samples(self.control.clone()))
    }

    /// Whether the host held still while measuring: the control's
    /// quartile distance within 10 % of its median (vacuously, before
    /// anything was measured).
    pub fn steady(&self) -> bool {
        self.control_cell()
            .is_none_or(|c| c.q3 - c.q1 <= 0.1 * c.median)
    }

    /// Grow the scale fourfold until a call is long enough to
    /// extrapolate from, then aim at the window.
    fn calibrate(&self, side: &mut Side) -> u64 {
        let mut n = 1u64;
        loop {
            let (_, s) = timed(|| side(n));
            if s >= self.window_s || n >= 1 << 40 {
                return n;
            }
            if s >= self.window_s / 8.0 {
                return (n as f64 * self.window_s / s).ceil() as u64;
            }
            n *= 4;
        }
    }
}

/// A JSON number; a non-finite one is `null`.
pub fn number(v: f64) -> String {
    match v.is_finite() {
        true => format!("{v:.3}"),
        false => "null".into(),
    }
}

/// A JSON string.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A one-line JSON object of already rendered values, in the order given.
pub fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quoted(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The report `paper host` writes: what ran it (core count, OS,
/// architecture), how (window, repetitions), whether the host held
/// still ([`Timing::steady`]) and the named cells, each an [`object`] on
/// its own line, led by the control's `host.control` once it has run.
pub fn report(quick: bool, timing: &Timing, cells: &[(String, String)]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let host = object(&[
        ("cores", cores.to_string()),
        ("os", quoted(std::env::consts::OS)),
        ("arch", quoted(std::env::consts::ARCH)),
    ]);
    let control = timing.control_cell().map(|c| {
        let name = "host.control".to_string();
        (name, c.json("ns/step", None))
    });
    let cells: Vec<String> = control
        .iter()
        .chain(cells)
        .map(|(name, cell)| format!("    {}: {cell}", quoted(name)))
        .collect();
    format!(
        "{{\n  \"benchmark\": \"paper host\",\n  \"host\": {host},\n  \"quick\": {quick},\n  \
         \"steady\": {},\n  \"window_s\": {},\n  \"reps\": {},\n  \"cells\": {{\n{}\n  }}\n}}\n",
        timing.steady(),
        number(timing.window_s),
        timing.reps,
        cells.join(",\n")
    )
}
