//! Small measurement helpers: percentiles, medians, the peak-RSS probe,
//! on-disk footprints and the server's latency histograms.

use std::path::Path;

/// The `q`-quantile (0..=1) of `v` by nearest rank; NaN for an empty
/// slice, so a figure from zero samples cannot pass for a measurement.
/// Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// NaN for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 without procfs.
pub fn vmhwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One labelled histogram series from a Prometheus scrape: cumulative
/// bucket counts by upper bound (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Buckets(pub Vec<(f64, f64)>);

impl Buckets {
    /// The `rlz_request_duration_seconds` series for `op` in `text`.
    pub fn parse(text: &str, op: &str) -> Buckets {
        let prefix = format!("rlz_request_duration_seconds_bucket{{op=\"{op}\",le=\"");
        let mut out = Vec::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else {
                continue;
            };
            let Some((le, value)) = rest.split_once("\"}") else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            if let Ok(v) = value.trim().parse::<f64>() {
                out.push((le, v));
            }
        }
        Buckets(out)
    }

    /// Counts recorded between `earlier` and `self`.
    pub fn minus(&self, earlier: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .map(|&(le, v)| {
                    let before = earlier
                        .0
                        .iter()
                        .find(|&&(l, _)| l == le)
                        .map_or(0.0, |&(_, b)| b);
                    (le, v - before)
                })
                .collect(),
        )
    }

    pub fn count(&self) -> f64 {
        self.0.last().map_or(0.0, |&(_, v)| v)
    }

    /// The `q`-quantile in microseconds, interpolated linearly inside the
    /// bucket that holds it; NaN with no samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let total = self.count();
        if total <= 0.0 {
            return f64::NAN;
        }
        let target = q * total;
        let mut prev = (0.0f64, 0.0f64);
        for &(le, cum) in &self.0 {
            if cum >= target {
                if !le.is_finite() {
                    return prev.0 * 1e6;
                }
                let frac = if cum > prev.1 {
                    (target - prev.1) / (cum - prev.1)
                } else {
                    1.0
                };
                return (prev.0 + frac * (le - prev.0)) * 1e6;
            }
            prev = (le, cum);
        }
        prev.0 * 1e6
    }
}

/// The value of an unlabelled sample `name` in a scrape; NaN when absent.
pub fn scrape_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse().ok()
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn histogram_diff_and_quantile() {
        let before = "rlz_request_duration_seconds_bucket{op=\"get\",le=\"0.00001\"} 5\n\
                      rlz_request_duration_seconds_bucket{op=\"get\",le=\"0.00002\"} 5\n\
                      rlz_request_duration_seconds_bucket{op=\"get\",le=\"+Inf\"} 5\n";
        let after = "rlz_request_duration_seconds_bucket{op=\"get\",le=\"0.00001\"} 5\n\
                     rlz_request_duration_seconds_bucket{op=\"get\",le=\"0.00002\"} 15\n\
                     rlz_request_duration_seconds_bucket{op=\"get\",le=\"+Inf\"} 15\n\
                     rlz_queue_depth_peak 3\n";
        let d = Buckets::parse(after, "get").minus(&Buckets::parse(before, "get"));
        assert_eq!(d.count(), 10.0);
        let p50 = d.quantile_us(0.5);
        assert!((p50 - 15.0).abs() < 1e-9, "{p50}");
        assert_eq!(scrape_value(after, "rlz_queue_depth_peak"), 3.0);
    }
}
