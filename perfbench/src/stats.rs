//! Pure arithmetic of the benchmark: percentiles, steal-aware windows,
//! open-loop accounting, metric naming and the traced run's overhead rule.
//! Kept free of I/O so the tests at the bottom pin every rule the report
//! relies on.

use std::collections::VecDeque;
use std::time::Duration;

/// The smallest number of samples a reported percentile must have strictly
/// above it; a tail percentile with fewer would be set by a handful of
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the percentile's rank, so p99 needs at least 1000 samples and
/// the median at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; at least {MIN_BEYOND} are required",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Width of one measurement window, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// Fewest usable windows a windowed figure may rest on.
pub const MIN_WINDOWS: usize = 5;

/// A timed sample: when it completed, in seconds from the start of its
/// loop, and its value. Window `i` holds the samples completed in
/// `[i, i + 1) * WINDOW_S`.
pub type Sample = (f64, f64);

/// The quiet windows: those whose share of CPU time stolen by the
/// hypervisor is at most the median window's, so at least half of them.
///
/// On a virtual machine that shares its cores, other tenants take the CPU
/// away in bursts of a few seconds (visible as steal time in `/proc/stat`),
/// and every latency of the burst grows with it. A figure over the quieter
/// half of a run's windows follows the program rather than the neighbours;
/// the selection looks only at steal, never at the measured values.
pub fn quiet_windows(steal: &[f64]) -> Vec<usize> {
    let Some(cut) = median(steal) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// `figure` of the samples of each quiet window (see [`quiet_windows`];
/// `steal` has one share per complete window, and samples past the last
/// complete window are dropped), then the median of those per-window
/// figures. A window for which `figure` declines is skipped; fewer than
/// [`MIN_WINDOWS`] usable windows is an error.
pub fn per_window(
    samples: &[Sample],
    steal: &[f64],
    figure: impl Fn(&[Sample]) -> Option<f64>,
) -> Result<f64, String> {
    let mut windows = vec![Vec::new(); steal.len()];
    for &sample in samples {
        if let Some(w) = windows.get_mut((sample.0 / WINDOW_S) as usize) {
            w.push(sample);
        }
    }
    let figures: Vec<f64> = quiet_windows(steal)
        .into_iter()
        .filter_map(|i| figure(&windows[i]))
        .collect();
    if figures.len() < MIN_WINDOWS {
        return Err(format!(
            "{} usable windows of {}; at least {MIN_WINDOWS} are required",
            figures.len(),
            steal.len()
        ));
    }
    Ok(median(&figures).expect("at least one window"))
}

/// Percentile `p` of each quiet window (held to [`percentile`]'s rule),
/// then the median window.
pub fn windowed(samples: &[Sample], steal: &[f64], p: f64) -> Result<f64, String> {
    per_window(samples, steal, |w| {
        let values: Vec<f64> = w.iter().map(|&(_, v)| v).collect();
        percentile(&values, p).ok()
    })
}

/// Rate of each quiet window, then the median window, where each sample is
/// a count (elements acknowledged at its time): the counts after a
/// window's first sample over the time from its first sample to its last.
/// Unlike a count per window, this is not quantized to whole requests.
pub fn windowed_rate(samples: &[Sample], steal: &[f64]) -> Result<f64, String> {
    per_window(samples, steal, |w| {
        let (first, last) = (w.first()?, w.last()?);
        let span = last.0 - first.0;
        (span > 0.0).then(|| w[1..].iter().map(|&(_, n)| n).sum::<f64>() / span)
    })
}

/// Share of CPU time stolen in each complete window, from cumulative
/// `(steal, total)` tick counts read at every window boundary.
pub fn steal_shares(marks: &[(u64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|m| {
            let total = m[1].1.saturating_sub(m[0].1);
            if total == 0 {
                0.0
            } else {
                m[1].0.saturating_sub(m[0].0) as f64 / total as f64
            }
        })
        .collect()
}

/// Median of a small set of repeated measurements (set-up, recovery):
/// the middle value, or the mean of the two middle values. Unlike
/// [`percentile`] it accepts any non-empty set, because it summarizes
/// whole repeats, not a latency distribution.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Smallest of a set of repeats: the figure of the repeat the rest of the
/// machine disturbed least.
pub fn least(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Arithmetic mean; `0.0` for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Due time of request `i` in an open loop offering `rate` requests per
/// second, as an offset from the loop's start.
pub fn due_offset(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Bookkeeping of one pipelined open-loop connection. Replies arrive in
/// send order (one session serves the connection sequentially), so each
/// reply is matched to the oldest outstanding request.
///
/// All instants are offsets from the loop's start. A request's latency is
/// taken from when it was *due*, not when it was sent, so a stall of the
/// server (or of the generator) is charged to every request it delayed;
/// how late the generator itself sent is recorded separately as lag.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time, send time and bucket of each unanswered request.
    outstanding: VecDeque<(Duration, Duration, usize)>,
    /// Per-tag latencies from due time to reply, in seconds.
    pub latency: Vec<Vec<f64>>,
    /// Send time minus due time of every request, in seconds.
    pub lag: Vec<f64>,
    /// Reply time minus send time of every answered request, in seconds:
    /// the part of the latency the generator did not cause.
    pub rtt: Vec<f64>,
    /// Largest number of sent-but-unanswered requests seen at a send.
    pub backlog_max: usize,
    /// Outstanding requests right after the last send of each tag.
    pub backlog_at_end: Vec<usize>,
}

impl OpenLoop {
    /// An empty account with `tags` latency buckets (one per ladder rung).
    pub fn new(tags: usize) -> OpenLoop {
        OpenLoop {
            latency: vec![Vec::new(); tags],
            backlog_at_end: vec![0; tags],
            ..OpenLoop::default()
        }
    }

    /// Records that the request due at `due` (bucket `tag`) went out at
    /// `sent`.
    pub fn on_send(&mut self, tag: usize, due: Duration, sent: Duration) {
        self.lag.push(sent.saturating_sub(due).as_secs_f64());
        self.outstanding.push_back((due, sent, tag));
        self.backlog_max = self.backlog_max.max(self.outstanding.len());
        self.backlog_at_end[tag] = self.outstanding.len();
    }

    /// Records a reply received at `at`; returns its bucket, or `None` for
    /// a reply with no outstanding request (a protocol violation).
    pub fn on_reply(&mut self, at: Duration) -> Option<usize> {
        let (due, sent, tag) = self.outstanding.pop_front()?;
        self.latency[tag].push(at.saturating_sub(due).as_secs_f64());
        self.rtt.push(at.saturating_sub(sent).as_secs_f64());
        Some(tag)
    }
}

/// Tracing overhead: the traced time minus the untraced one, in percent of
/// the untraced one. Noise can make it negative; it is reported as
/// measured.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced == 0.0 {
        return 0.0;
    }
    100.0 * (traced - untraced) / untraced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&samples, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert_eq!(percentile(&samples[..20], 50.0), Ok(10.0));
        assert!(percentile(&samples, 0.0).is_err());
        assert!(percentile(&samples, 100.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Ok(500.0));
    }

    /// `per_window` samples: `n` values `f(i, j)` in each of `windows`
    /// one-second windows, spread evenly over the window.
    fn timed(windows: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<Sample> {
        (0..windows)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| ((i as f64 + j as f64 / n as f64) * WINDOW_S, f(i, j)))
            .collect()
    }

    #[test]
    fn windowed_percentile_is_the_median_quiet_window() {
        // Ten windows of 100 samples; window i holds i*100 .. i*100+99,
        // except window 3, caught by a burst of steal with every value
        // slowed to 1e6. Window 7 is as slow but nothing was stolen: the
        // selection looks at steal only, so it stays.
        let mut samples = timed(10, 100, |i, j| (i * 100 + j) as f64);
        for s in &mut samples[300..400] {
            s.1 = 1e6;
        }
        for s in &mut samples[700..800] {
            s.1 = 2e6;
        }
        let mut steal = vec![0.0; 10];
        steal[3] = 0.3;
        steal[4] = 0.2;
        assert_eq!(quiet_windows(&steal), vec![0, 1, 2, 5, 6, 7, 8, 9]);
        // Per-window p50s of the quiet windows: 49, 149, 249, 549, 649,
        // 2e6, 849, 949.
        assert_eq!(windowed(&samples, &steal, 50.0), Ok(599.0));
        // Samples past the last complete window are dropped.
        samples.push((10.5 * WINDOW_S, 1e9));
        assert_eq!(windowed(&samples, &steal, 50.0), Ok(599.0));
        // A window too small for the percentile is skipped; fewer than
        // MIN_WINDOWS usable windows refuse.
        let sparse = timed(10, 19, |i, _| i as f64);
        assert!(windowed(&sparse, &[0.0; 10], 50.0).is_err());
        let samples = timed(4, 100, |_, j| j as f64);
        assert!(windowed(&samples, &[0.0; 4], 50.0).is_err());
        assert!(windowed(&samples, &[], 50.0).is_err());
    }

    #[test]
    fn quiet_windows_keep_at_least_half() {
        assert_eq!(quiet_windows(&[0.1; 6]), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(quiet_windows(&[0.4, 0.1, 0.3, 0.2]), vec![1, 3]);
        assert_eq!(quiet_windows(&[0.5, 0.0, 0.9]), vec![0, 1]);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn windowed_rate_counts_per_second() {
        // Window i acknowledges a batch of 32 elements every 1/(10 + i)
        // of a window: 32 * (10 + i) elements per window.
        let samples: Vec<Sample> = (0..7)
            .flat_map(|i| {
                (0..10 + i).map(move |j| ((i as f64 + j as f64 / (10 + i) as f64) * WINDOW_S, 32.0))
            })
            .collect();
        let steal = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5];
        // Quiet windows 0..=5: rates 320 .. 480 el/s; median (384 + 416) / 2.
        let rate = windowed_rate(&samples, &steal).unwrap();
        assert!((rate - 400.0 / WINDOW_S).abs() < 1e-9, "{rate}");
        // A window with a single acknowledgement has no rate.
        let lone: Vec<Sample> = (0..7).map(|i| (i as f64 * WINDOW_S, 32.0)).collect();
        assert!(windowed_rate(&lone, &steal).is_err());
    }

    #[test]
    fn steal_shares_of_tick_marks() {
        let marks = [(0, 0), (10, 100), (10, 200), (60, 300), (60, 300)];
        assert_eq!(steal_shares(&marks), vec![0.1, 0.0, 0.5, 0.0]);
        assert!(steal_shares(&marks[..1]).is_empty());
    }

    #[test]
    fn median_and_least_of_repeats() {
        assert_eq!(least(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(least(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "kernel.distance_ns", "p99-ms", "0x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_offset(0, 1000.0), ms(0));
        assert_eq!(due_offset(250, 1000.0), ms(250));
        assert_eq!(due_offset(3, 2.0), ms(1500));
    }

    #[test]
    fn open_loop_latency_is_measured_from_due_time() {
        let mut ol = OpenLoop::new(1);
        // Request 0 due at 0 ms, sent on time, answered at 1 ms.
        ol.on_send(0, ms(0), ms(0));
        assert_eq!(ol.on_reply(ms(1)), Some(0));
        // Requests 1 and 2 due at 10 and 20 ms; the generator stalled and
        // sent both at 25 ms. Their latencies include the stall.
        ol.on_send(0, ms(10), ms(25));
        ol.on_send(0, ms(20), ms(25));
        ol.on_reply(ms(26));
        ol.on_reply(ms(27));
        let lat: Vec<u64> = ol.latency[0]
            .iter()
            .map(|s| (s * 1e3).round() as u64)
            .collect();
        assert_eq!(lat, vec![1, 16, 7]);
        let lag: Vec<u64> = ol.lag.iter().map(|s| (s * 1e3).round() as u64).collect();
        assert_eq!(lag, vec![0, 15, 5]);
        let rtt: Vec<u64> = ol.rtt.iter().map(|s| (s * 1e3).round() as u64).collect();
        assert_eq!(rtt, vec![1, 1, 2]);
        assert_eq!(ol.backlog_max, 2);
        assert!(ol.outstanding.is_empty());
        assert_eq!(
            ol.on_reply(ms(30)),
            None,
            "a reply with nothing outstanding"
        );
    }

    #[test]
    fn server_stall_is_charged_to_every_request_it_delayed() {
        let mut ol = OpenLoop::new(2);
        // Five requests due every millisecond, all sent on time, all held
        // by a 10 ms stall and answered together at 14 ms.
        for i in 0..5 {
            ol.on_send(1, ms(i), ms(i));
        }
        assert_eq!(ol.backlog_at_end, vec![0, 5]);
        for _ in 0..5 {
            ol.on_reply(ms(14));
        }
        let lat: Vec<u64> = ol.latency[1]
            .iter()
            .map(|s| (s * 1e3).round() as u64)
            .collect();
        assert_eq!(lat, vec![14, 13, 12, 11, 10]);
        assert!(ol.lag.iter().all(|&l| l == 0.0));
        assert!(ol.latency[0].is_empty());
    }

    #[test]
    fn overhead_arithmetic() {
        // A time that grows from 100 to 105 under tracing: 5% overhead.
        assert!((overhead_pct(105.0, 100.0) - 5.0).abs() < 1e-12);
        // Tracing that happens to read faster gives a negative overhead.
        assert!((overhead_pct(95.0, 100.0) + 5.0).abs() < 1e-12);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}
