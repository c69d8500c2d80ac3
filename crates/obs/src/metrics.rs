//! The metrics registry: named, labelled instruments whose recordings are
//! relaxed atomic operations, rendered on demand as Prometheus-style text.
//!
//! Registration (naming an instrument, attaching labels) takes a short
//! mutex hold and returns a cloneable handle; the hot path only ever
//! touches the handle, which is an `Arc` of atomics — no lock, no
//! allocation. Counters and gauges always count; only histograms carry an
//! `on` flag, off under a disabled registry. Registering the same
//! `(name, labels)` twice returns a handle to the *same* underlying cells,
//! so e.g. every handle resolved for one tenant's label aggregates into
//! that tenant's counters.
//!
//! Histograms are log-bucketed with linear sub-buckets (32 per octave, so
//! bucket boundaries are within ~3.2% of any recorded value) — the same
//! resolution HdrHistogram-style recorders use. One implementation serves
//! both the served `metrics` exposition and the bench harnesses' latency
//! percentiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Scale factor rendering nanosecond-recorded histograms as seconds in the
/// exposition (`le` boundaries and `_sum` follow Prometheus convention).
pub const SECONDS_PER_NANO: f64 = 1e-9;

/// Sub-bucket resolution: `1 << SUB_BITS` linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range at that resolution.
const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Index of the log-linear bucket containing `v`. Values below [`SUB`] get
/// exact unit buckets; above, the top [`SUB_BITS`]+1 significant bits pick
/// the bucket, so relative quantization error is at most `1/SUB`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let mantissa = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as usize) * SUB as usize + mantissa as usize
}

/// The largest value falling into bucket `index` (the Prometheus `le`
/// boundary, and what quantile lookups report).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let block = (index / SUB as usize) as u32;
    let mantissa = (index % SUB as usize) as u128;
    let e = block + SUB_BITS - 1;
    // The top bucket's bound exceeds u64::MAX; saturate via u128.
    let upper = ((SUB as u128 + mantissa + 1) << (e - SUB_BITS)) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A monotone event counter: one relaxed atomic, always live. Cloning
/// shares the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// An unregistered counter (for tests, and for instruments nothing
    /// exposes).
    pub fn standalone() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A current-level gauge (queue depths, in-flight waves, running maxima):
/// one relaxed atomic, always live. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// An unregistered gauge.
    pub fn standalone() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (a running maximum).
    #[inline]
    pub fn max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
/// Recording is three relaxed atomic ops; quantiles are nearest-rank over
/// the bucket counts, reported as the containing bucket's upper bound
/// (within ~3.2% of the true order statistic). A [`Histogram::noop`] holds
/// no cells at all and reads as empty.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Option<Arc<HistogramCells>>,
}

impl Histogram {
    pub fn standalone() -> Self {
        Histogram {
            cells: Some(Arc::new(HistogramCells {
                buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })),
        }
    }

    /// A histogram that records nothing, and allocates nothing.
    pub fn noop() -> Self {
        Histogram { cells: None }
    }

    /// Whether this histogram stores what it records (`false` for a
    /// [`Histogram::noop`]).
    pub fn is_recording(&self) -> bool {
        self.cells.is_some()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let Some(cells) = &self.cells else {
            return;
        };
        cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a `Duration` in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        if self.is_recording() {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// One of the cells' totals; 0 for a noop.
    fn total(&self, of: impl Fn(&HistogramCells) -> &AtomicU64) -> u64 {
        self.cells
            .as_ref()
            .map_or(0, |cells| of(cells).load(Ordering::Relaxed))
    }

    /// The bucket counters, in bucket order; none for a noop.
    fn buckets(&self) -> &[AtomicU64] {
        self.cells.as_ref().map_or(&[], |cells| &cells.buckets)
    }

    pub fn count(&self) -> u64 {
        self.total(|cells| &cells.count)
    }

    pub fn sum(&self) -> u64 {
        self.total(|cells| &cells.sum)
    }

    pub fn max(&self) -> u64 {
        self.total(|cells| &cells.max)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) by nearest rank: the upper bound of
    /// the bucket holding the `⌈q·n⌉`-th smallest sample. `NaN`-free: an
    /// empty histogram reports `0`.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets().iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Report no more than the observed maximum: the top bucket's
                // upper bound can overshoot a sparse tail by the bucket
                // width.
                return bucket_upper(index).min(self.max());
            }
        }
        self.max()
    }

    /// Convenience for latency reporting: the `p`-th percentile (0–100) of
    /// nanosecond samples, in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.quantile(p / 100.0) as f64 * 1e-6
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs in ascending
    /// order, ending at the bucket containing the maximum sample.
    fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (index, bucket) in self.buckets().iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((bucket_upper(index), cum));
            }
        }
        out
    }
}

/// What one registered name is: its type line and its per-label-set cells.
#[derive(Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    /// The scale maps recorded `u64`s to exposition units (e.g.
    /// [`SECONDS_PER_NANO`] for nanosecond recordings exposed as seconds,
    /// `1.0` for plain counts like wave sizes).
    Histogram(Histogram, f64),
}

#[derive(Debug, Default)]
struct Family {
    help: String,
    kind: &'static str,
    /// Label set (sorted `key=value` pairs) → instrument.
    series: BTreeMap<Vec<(String, String)>, Instrument>,
}

/// The instrument registry. Cheap to share (`Arc`); registration is locked,
/// recording is not (handles are resolved once and then lock-free).
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// A registry that stores what it registers when `enabled`. A disabled
    /// one still hands out live counters and gauges — callers that read
    /// their own handles (the service's stats) keep counting — but stores
    /// none of them, and its histograms record nothing, so `render` is
    /// empty.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled,
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this registry stores instruments and records histograms.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn series_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key.sort();
        key
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> (T, Instrument),
        existing: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "instrument {name} re-registered as a different type"
        );
        let key = Self::series_key(labels);
        if let Some(instrument) = family.series.get(&key) {
            return existing(instrument)
                .unwrap_or_else(|| panic!("instrument {name} type mismatch"));
        }
        let (handle, instrument) = fresh();
        family.series.insert(key, instrument);
        handle
    }

    /// Registers (or re-resolves) a counter under `name` with `labels`.
    /// A disabled registry hands out a fresh live counter without storing
    /// it, so registration takes no lock and `render` stays empty.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.enabled {
            return Counter::standalone();
        }
        self.register(
            name,
            help,
            "counter",
            labels,
            || {
                let c = Counter::standalone();
                (c.clone(), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or re-resolves) a gauge; disabled, like
    /// [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        if !self.enabled {
            return Gauge::standalone();
        }
        self.register(
            name,
            help,
            "gauge",
            labels,
            || {
                let g = Gauge::standalone();
                (g.clone(), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or re-resolves) a histogram whose recorded `u64`s are
    /// exposed multiplied by `scale` (use [`SECONDS_PER_NANO`] for
    /// nanosecond recordings). A disabled registry hands out a handle that
    /// records nothing.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        self.register(
            name,
            help,
            "histogram",
            labels,
            || {
                let h = Histogram::standalone();
                (h.clone(), Instrument::Histogram(h, scale))
            },
            |i| match i {
                Instrument::Histogram(h, _) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Renders every registered instrument as Prometheus-style text,
    /// families sorted by name, series sorted by label set.
    pub fn render(&self) -> String {
        let mut out = ExpositionBuilder::new();
        let families = self.families.lock().expect("metrics registry poisoned");
        for (name, family) in families.iter() {
            out.type_line(name, &family.help, family.kind);
            for (labels, instrument) in &family.series {
                let labels: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match instrument {
                    Instrument::Counter(c) => out.sample(name, &labels, c.get() as f64),
                    Instrument::Gauge(g) => out.sample(name, &labels, g.get() as f64),
                    Instrument::Histogram(h, scale) => {
                        out.histogram_samples(name, &labels, h, *scale)
                    }
                }
            }
        }
        out.finish()
    }
}

/// Builds exposition text line by line. Public so serving layers can append
/// scrape-time series (uptime, per-tenant cache counters) that have no
/// live-updated instrument behind them.
#[derive(Debug, Default)]
pub struct ExpositionBuilder {
    out: String,
}

/// Formats a float the way the exposition wants: integers bare, the rest
/// via shortest-round-trip `Display`.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl ExpositionBuilder {
    pub fn new() -> Self {
        ExpositionBuilder::default()
    }

    /// Emits the `# HELP` / `# TYPE` preamble for a family.
    fn type_line(&mut self, name: &str, help: &str, kind: &str) {
        if !help.is_empty() {
            self.out.push_str(&format!("# HELP {name} {help}\n"));
        }
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emits one `name{labels} value` sample.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!(
                    "{k}=\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                ));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
    }

    /// Emits a histogram's cumulative `_bucket` series (non-empty buckets
    /// plus `+Inf`), `_sum`, and `_count`.
    fn histogram_samples(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        scale: f64,
    ) {
        let bucket_name = format!("{name}_bucket");
        for (upper, cum) in h.cumulative() {
            let le = fmt_value(upper as f64 * scale);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket_name, &with_le, cum as f64);
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.sample(&bucket_name, &with_inf, h.count() as f64);
        self.sample(&format!("{name}_sum"), labels, h.sum() as f64 * scale);
        self.sample(&format!("{name}_count"), labels, h.count() as f64);
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// Strictly parses exposition text into `(series_with_labels, value)`
/// pairs, rejecting malformed lines. Smoke tests use this to assert the
/// served `metrics` verb emits well-formed text.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("HELP") | Some("TYPE") => {
                    if words.next().is_none() {
                        return Err(at("comment names no metric"));
                    }
                    continue;
                }
                _ => return Err(at("unknown comment form")),
            }
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("no value separator"))?;
        let value: f64 = value.parse().map_err(|_| at("unparseable value"))?;
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(at("bad metric name"));
        }
        if name_end < series.len() && !series.ends_with('}') {
            return Err(at("unterminated label set"));
        }
        samples.push((series.to_string(), value));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotone_and_tight() {
        let mut last = None;
        for v in (0..4096u64).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let index = bucket_index(v);
            let upper = bucket_upper(index);
            assert!(upper >= v, "upper({index}) = {upper} < {v}");
            if v >= SUB {
                // Relative quantization error bounded by the sub-bucket width.
                assert!(
                    (upper - v) as f64 <= v as f64 / SUB as f64,
                    "bucket too wide at {v}: upper {upper}"
                );
            } else {
                assert_eq!(upper, v, "unit buckets below SUB");
            }
            if let Some((lv, li)) = last {
                assert!(index >= li, "index not monotone: {lv}→{v}");
            }
            last = Some((v, index));
            assert!(index < N_BUCKETS);
        }
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let h = Histogram::standalone();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 as f64 - 50_000.0).abs() / 50_000.0 < 0.04, "p50 {p50}");
        assert!((p99 as f64 - 99_000.0).abs() / 99_000.0 < 0.04, "p99 {p99}");
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(Histogram::standalone().quantile(0.5), 0, "empty → 0");
        assert!((h.mean() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let h = Histogram::standalone();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.5), 1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
    }

    #[test]
    fn a_disabled_registry_counts_but_stores_nothing() {
        let registry = Registry::new(false);
        let c = registry.counter("c_total", "help", &[]);
        let g = registry.gauge("g", "help", &[]);
        let h = registry.histogram("h_seconds", "help", &[], SECONDS_PER_NANO);
        c.inc();
        g.set(7);
        g.max(5);
        h.record(123);
        assert_eq!((c.get(), g.get()), (1, 7), "counters and gauges stay live");
        assert_eq!(h.count(), 0, "histograms record nothing");
        let again = registry.counter("c_total", "help", &[]);
        assert_eq!(
            again.get(),
            0,
            "nothing stored: a re-resolve is a fresh cell"
        );
        assert_eq!(registry.render(), "");
        assert!(!registry.enabled());
    }

    #[test]
    fn a_noop_histogram_holds_no_buckets() {
        let disabled = Registry::new(false).histogram("h", "help", &[], 1.0);
        for h in [Histogram::noop(), disabled] {
            assert!(!h.is_recording());
            assert!(h.buckets().is_empty(), "a noop allocates no bucket storage");
            h.record(5);
            h.record_duration(std::time::Duration::from_millis(1));
            assert_eq!((h.count(), h.sum(), h.max(), h.quantile(0.5)), (0, 0, 0, 0));
            assert!(h.cumulative().is_empty());
        }
        assert!(Histogram::standalone().is_recording());
    }

    #[test]
    fn enabled_histograms_render_the_bytes_they_did_with_noops_built_full() {
        // Rendered before `Histogram::noop` stopped allocating buckets.
        let registry = Registry::new(true);
        let labels = [("lane", "batch")];
        let h = registry.histogram("ppd_wait_seconds", "queue wait", &labels, SECONDS_PER_NANO);
        for v in [1_500, 3_000_000, 3_000_001] {
            h.record(v);
        }
        registry.histogram("ppd_size", "sizes", &[], 1.0).record(70);
        assert_eq!(
            registry.render(),
            "# HELP ppd_size sizes\n# TYPE ppd_size histogram\n\
             ppd_size_bucket{le=\"71\"} 1\nppd_size_bucket{le=\"+Inf\"} 1\n\
             ppd_size_sum 70\nppd_size_count 1\n\
             # HELP ppd_wait_seconds queue wait\n# TYPE ppd_wait_seconds histogram\n\
             ppd_wait_seconds_bucket{lane=\"batch\",le=\"0.000001503\"} 1\n\
             ppd_wait_seconds_bucket{lane=\"batch\",le=\"0.003014655\"} 3\n\
             ppd_wait_seconds_bucket{lane=\"batch\",le=\"+Inf\"} 3\n\
             ppd_wait_seconds_sum{lane=\"batch\"} 0.006001501\n\
             ppd_wait_seconds_count{lane=\"batch\"} 3\n"
        );
    }

    #[test]
    fn gauge_max_keeps_the_largest_value() {
        let g = Gauge::standalone();
        for v in [3, 9, 4, -1] {
            g.max(v);
        }
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn re_registering_shares_cells() {
        let registry = Registry::new(true);
        let a = registry.counter("hits_total", "h", &[("tenant", "x")]);
        let b = registry.counter("hits_total", "h", &[("tenant", "x")]);
        let other = registry.counter("hits_total", "h", &[("tenant", "y")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2, "same (name, labels) share one cell");
        assert_eq!(other.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn re_registering_as_other_type_panics() {
        let registry = Registry::new(true);
        registry.counter("x_total", "h", &[]);
        registry.gauge("x_total", "h", &[]);
    }

    #[test]
    fn render_parses_and_contains_series() {
        let registry = Registry::new(true);
        registry
            .counter("ppd_hits_total", "cache hits", &[("tenant", "a\"b")])
            .add(3);
        registry
            .gauge("ppd_depth", "queue depth", &[("lane", "interactive")])
            .set(-2);
        let h = registry.histogram("ppd_wait_seconds", "queue wait", &[], SECONDS_PER_NANO);
        h.record(1_500);
        h.record(3_000_000);
        let text = registry.render();
        let samples = parse_exposition(&text).expect("rendered text parses");
        assert!(samples
            .iter()
            .any(|(s, v)| s == "ppd_hits_total{tenant=\"a\\\"b\"}" && *v == 3.0));
        assert!(samples
            .iter()
            .any(|(s, v)| s == "ppd_depth{lane=\"interactive\"}" && *v == -2.0));
        assert!(samples
            .iter()
            .any(|(s, v)| s.starts_with("ppd_wait_seconds_count") && *v == 2.0));
        let inf = samples
            .iter()
            .find(|(s, _)| s == "ppd_wait_seconds_bucket{le=\"+Inf\"}")
            .expect("+Inf bucket present");
        assert_eq!(inf.1, 2.0);
        // Cumulative bucket counts are monotone.
        let mut last = 0.0;
        for (series, v) in &samples {
            if series.starts_with("ppd_wait_seconds_bucket") {
                assert!(*v >= last, "bucket counts must be cumulative: {series}");
                last = *v;
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("just words\n").is_err());
        assert!(parse_exposition("name{unclosed 1\n").is_err());
        assert!(parse_exposition("ok 1\n# TYPE x counter\nx 2\n").is_ok());
        assert!(parse_exposition("bad-name 1\n").is_err());
        assert!(parse_exposition("x nan_value\n").is_err());
        assert!(parse_exposition("# nonsense\n").is_err());
    }
}
