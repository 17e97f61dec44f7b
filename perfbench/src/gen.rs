//! Seeded inputs, the measurement window and latency samples.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over `0..n` by inverse CDF (rank 0 is the hottest key).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` keys with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// The measured interval, shared by the orchestrator and the generators.
/// Generators run until `stop`; only completions inside `[begin, end)`
/// count, each in the slice of the window it falls in.
pub struct Window {
    epoch: Instant,
    slice_ns: u64,
    slices: usize,
    begin_ns: AtomicU64,
    end_ns: AtomicU64,
    stop: AtomicBool,
}

impl Window {
    /// A window of `slices` slices of `slice` each, not yet open.
    pub fn new(slice: std::time::Duration, slices: usize) -> Window {
        Window {
            epoch: Instant::now(),
            slice_ns: slice.as_nanos() as u64,
            slices,
            begin_ns: AtomicU64::new(u64::MAX),
            end_ns: AtomicU64::new(u64::MAX),
            stop: AtomicBool::new(false),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Slices in the window.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Opens the window now.
    pub fn begin(&self) {
        let begin = self.now_ns();
        self.end_ns
            .store(begin + self.slices as u64 * self.slice_ns, Ordering::SeqCst);
        self.begin_ns.store(begin, Ordering::SeqCst);
    }

    /// Tells the generators to finish.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once the generators should finish.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The slice `at` falls in, when it falls inside the window.
    pub fn slice(&self, at: Instant) -> Option<usize> {
        let at = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let begin = self.begin_ns.load(Ordering::Relaxed);
        (at >= begin && at < self.end_ns.load(Ordering::Relaxed))
            .then(|| ((at - begin) / self.slice_ns) as usize)
    }
}

/// Batch classes, as the program's method metadata classifies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every call is `#[read_only]`.
    Read,
    /// Any other batch.
    Write,
}

/// Latency samples per generator thread, over the whole window.
const SAMPLES_PER_THREAD: usize = 1 << 17;
/// Fewest samples kept per slice, however many slices the window has.
const MIN_SAMPLES_PER_SLICE: usize = 1 << 10;
/// Samples kept per batch class and generator thread.
const SAMPLES_PER_CLASS: usize = 1 << 15;

/// A uniform sample of at most `capacity` values from a stream (Vitter's
/// algorithm R), plus the stream's exact count and sum. The storage is
/// allocated and written once, when the reservoir is made, so the
/// harness's memory does not grow with the number of values.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    len: usize,
    seen: u64,
    sum: f64,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir; capacity 0 keeps only the count and the sum.
    pub fn new(capacity: usize, stream: u64) -> Reservoir {
        Reservoir {
            // A non-zero fill makes every page resident now.
            samples: vec![f64::MAX; capacity],
            len: 0,
            seen: 0,
            sum: 0.0,
            rng: Rng::new(0x5EED_5A3F, stream),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        self.sum += value;
        if self.len < self.samples.len() {
            self.samples[self.len] = value;
            self.len += 1;
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < self.samples.len() {
                self.samples[slot] = value;
            }
        }
    }

    /// Values offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Exact mean of every value offered, 0 without values.
    pub fn mean(&self) -> f64 {
        crate::trace::ratio(self.sum, self.seen as f64)
    }

    /// The kept sample.
    pub fn samples(&self) -> &[f64] {
        &self.samples[..self.len]
    }

    /// Folds another thread's reservoir in, for reading: the count and
    /// sum add, and the samples are their union. The generator threads run
    /// the same loop at the same rate, so their samples weigh alike.
    fn merge(&mut self, other: Reservoir) {
        self.samples.truncate(self.len);
        self.samples.extend_from_slice(other.samples());
        self.len = self.samples.len();
        self.seen += other.seen;
        self.sum += other.sum;
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; `None` without values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// What one generator thread saw inside the window. Every sample store
/// is sized when the thread starts, before the window opens.
#[derive(Debug)]
pub struct PhaseStats {
    /// Batches completed (verified or failed).
    pub batches: u64,
    /// Batches that failed, were refused or did not verify.
    pub failed: u64,
    /// Calls in verified batches.
    pub calls: u64,
    /// Calls in verified batches, per slice of the window.
    pub slice_calls: Vec<u64>,
    /// Latency of verified batches, ns, per slice of the window.
    pub slice_latency: Vec<Reservoir>,
    /// Latency of verified read batches, ns.
    pub read: Reservoir,
    /// Latency of verified write batches, ns.
    pub write: Reservoir,
    /// Per-request client hop (latency − linked origin handler), ns; mean
    /// only.
    pub linked_hop: Reservoir,
    /// First few verification failures, for the report.
    pub errors: Vec<String>,
}

impl PhaseStats {
    /// Empty figures for generator `thread` in `window`.
    pub fn new(window: &Window, thread: usize) -> PhaseStats {
        let slices = window.slices();
        let per_slice = (SAMPLES_PER_THREAD / slices.max(1)).max(MIN_SAMPLES_PER_SLICE);
        let stream = |kind: usize, index: usize| ((thread << 32) | (kind << 24) | index) as u64;
        PhaseStats {
            batches: 0,
            failed: 0,
            calls: 0,
            slice_calls: vec![0; slices],
            slice_latency: (0..slices)
                .map(|slice| Reservoir::new(per_slice, stream(0, slice)))
                .collect(),
            read: Reservoir::new(SAMPLES_PER_CLASS, stream(1, 0)),
            write: Reservoir::new(SAMPLES_PER_CLASS, stream(2, 0)),
            linked_hop: Reservoir::new(0, 0),
            errors: Vec::new(),
        }
    }

    /// Records one verified batch completed in `slice` after `latency_ns`.
    pub fn ok(&mut self, class: Class, calls: u64, latency_ns: u64, slice: usize) {
        self.batches += 1;
        self.calls += calls;
        self.slice_calls[slice] += calls;
        self.slice_latency[slice].push(latency_ns as f64);
        match class {
            Class::Read => self.read.push(latency_ns as f64),
            Class::Write => self.write.push(latency_ns as f64),
        }
    }

    /// Records one failed batch.
    pub fn fail(&mut self, error: String) {
        self.batches += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Verified batches.
    pub fn verified(&self) -> u64 {
        self.read.seen() + self.write.seen()
    }

    /// Exact mean latency of every verified batch, ns.
    pub fn mean_latency_ns(&self) -> f64 {
        crate::trace::ratio(self.read.sum + self.write.sum, self.verified() as f64)
    }

    /// Folds another thread's figures into this one.
    pub fn merge(&mut self, other: PhaseStats) {
        self.batches += other.batches;
        self.failed += other.failed;
        self.calls += other.calls;
        for (mine, theirs) in self.slice_calls.iter_mut().zip(other.slice_calls) {
            *mine += theirs;
        }
        for (mine, theirs) in self.slice_latency.iter_mut().zip(other.slice_latency) {
            mine.merge(theirs);
        }
        self.read.merge(other.read);
        self.write.merge(other.write);
        self.linked_hop.merge(other.linked_hop);
        self.errors.extend(other.errors);
    }
}
