//! Small statistics helpers: nearest-rank quantiles, medians, peak memory
//! and a seeded generator for the benchmark's own inputs.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's query generator.  Independent of the
/// workspace's RNG so the inputs stay fixed whatever the crates under test
/// change.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank quantile of `draws` synthetic sums, each adding one value
/// drawn (seeded, with replacement) from every group of `groups`: a
/// bootstrap of a sum's distribution from its parts' samples.  0 if a
/// group is empty.
pub fn resampled_sum_quantile(groups: &[Vec<f64>], draws: usize, q: f64, seed: u64) -> f64 {
    if groups.iter().any(Vec::is_empty) {
        return 0.0;
    }
    let mut rng = SplitMix::new(seed);
    let sums: Vec<f64> = (0..draws)
        .map(|_| groups.iter().map(|g| g[rng.below(g.len())]).sum())
        .collect();
    quantile(&sums, q)
}

/// FNV-1a over bytes: the digest recorded for the classification gate.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A fixed-size log-linear latency histogram: 64 sub-buckets per power of
/// two (bucket width at most 1/64 of its values), so the benchmark's own
/// memory does not grow with the number of samples a faster build takes.
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; ((64 - SUB_BITS as u64 + 1) * SUB) as usize],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// The bucket's lowest value and width.
    fn bucket(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx as f64, 1.0);
        }
        let shift = idx / SUB - 1;
        (((SUB + idx % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// The non-empty buckets as `(index, count)`: a compact copy, for
    /// keeping many histograms.
    pub fn buckets(&self) -> Vec<(u16, u32)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u16, c as u32))
            .collect()
    }

    /// Adds the samples of `buckets` (from [`LatencyHist::buckets`]).
    pub fn merge(&mut self, buckets: &[(u16, u32)]) {
        for &(idx, c) in buckets {
            self.counts[usize::from(idx)] += u64::from(c);
            self.total += u64::from(c);
        }
    }

    /// Nearest-rank quantile, interpolated linearly inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (low, width) = Self::bucket(idx);
                return low + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }
}
