//! Measurement helpers: percentile summaries, open-loop scheduling, process
//! CPU accounting and on-disk byte accounting.

use std::path::Path;
use std::time::{Duration, Instant};

/// Percentile levels a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(p/100 * n)`. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
/// The epsilon keeps `99.9 * 10_000 / 100`, which is not exact in binary,
/// from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples of `n` lie beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// A latency distribution as the benchmark reports it: the median, the p99,
/// and the highest percentile that still has at least ten samples beyond
/// it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest level of [`TAIL_LADDER`] with ≥ 10 samples beyond it
    /// (0 when even the median has fewer).
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarize unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = percentile(&sorted, 50.0)?;
        let p99 = percentile(&sorted, 99.0)?;
        let (tail_pct, tail) = TAIL_LADDER
            .iter()
            .find(|&&p| samples_beyond(n, p) >= 10)
            .map_or((0.0, p50), |&p| (p, percentile(&sorted, p).unwrap_or(p50)));
        Some(Summary {
            n,
            p50,
            p99,
            tail_pct,
            tail,
        })
    }

    /// Does the p99 have at least ten samples beyond it?
    pub fn p99_supported(&self) -> bool {
        samples_beyond(self.n, 99.0) >= 10
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// What an open-loop generator observed.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Per request, completion time minus *due* time, in ms — a stall
    /// delays every later request's due-time latency too.
    pub latency_ms: Vec<f64>,
    /// Per request, send time minus due time, in ms: how late the generator
    /// itself ran.
    pub late_ms: Vec<f64>,
}

/// Drive `op` on a fixed schedule: request `i` is due at
/// `start + i * interval`, and is sent then or, if the previous request has
/// not finished, as soon as it has. Stops before the first request due at or
/// after `deadline`. `op` receives the request index and its due time.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    deadline: Instant,
    mut op: impl FnMut(u64, Instant),
) -> OpenLoopRun {
    let mut run = OpenLoopRun::default();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        op(i, due);
        let done = Instant::now();
        run.late_ms.push(ms(sent.saturating_duration_since(due)));
        run.latency_ms.push(ms(done.saturating_duration_since(due)));
    }
    run
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100
/// per second for the proc ABI whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, from the `utime` and
/// `stime` fields (14 and 15) of `/proc/self/stat`.
pub fn process_cpu_secs() -> Option<f64> {
    parse_stat_cpu_secs(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The parser behind [`process_cpu_secs`]. The command name (field 2) is in
/// parentheses and may itself contain spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state): utime is field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU utilization over an interval: CPU seconds used per wall second per
/// available core, in `[0, 1]` up to measurement granularity.
pub fn cpu_util(cpu_secs: f64, wall_secs: f64, cores: usize) -> f64 {
    if wall_secs <= 0.0 || cores == 0 {
        return 0.0;
    }
    cpu_secs / wall_secs / cores as f64
}

/// Total bytes of the regular files directly inside `dir` whose name
/// satisfies `keep` (0 for a missing directory).
pub fn dir_bytes_where(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_str().is_some_and(&keep))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Bytes of every file in a durable data directory.
pub fn data_dir_bytes(dir: &Path) -> u64 {
    dir_bytes_where(dir, |_| true)
}

/// Bytes of the write-ahead log files (`wal.<n>`) in a durable directory.
pub fn wal_bytes(dir: &Path) -> u64 {
    dir_bytes_where(dir, |name| name.starts_with("wal."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&thousand).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 989.0);
        assert!(s.p99_supported());

        let s = Summary::of(&thousand[..999]).unwrap();
        assert_eq!(s.tail_pct, 95.0, "p99 of 999 samples has only 9 beyond");
        assert!(!s.p99_supported());

        let many: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&many).unwrap().tail_pct, 99.9);

        let few = [3.0, 1.0, 2.0];
        let s = Summary::of(&few).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, 0.0, 2.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn samples_beyond_counts_the_upper_side() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        // Every op takes ≥ 3 ms but one is due every 1 ms: the backlog must
        // show in the due-time latency of later requests, and the generator
        // must report itself late.
        let start = Instant::now();
        let run = open_loop(
            start,
            Duration::from_millis(1),
            start + Duration::from_millis(20),
            |_, _| std::thread::sleep(Duration::from_millis(3)),
        );
        assert_eq!(run.latency_ms.len(), 20);
        for (k, &lat) in run.latency_ms.iter().enumerate() {
            // Request k completes no earlier than 3(k+1) ms after start and
            // was due k ms after start.
            assert!(lat >= 2.0 * k as f64 + 3.0 - 0.01, "k={k} lat={lat}");
        }
        assert!(run.late_ms[19] >= 38.0, "late {}", run.late_ms[19]);
    }

    #[test]
    fn open_loop_keeps_the_schedule_when_idle() {
        let start = Instant::now();
        let run = open_loop(
            start,
            Duration::from_millis(5),
            start + Duration::from_millis(30),
            |_, _| {},
        );
        assert_eq!(run.latency_ms.len(), 6);
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(25),
            "ran ahead: {elapsed:?}"
        );
    }

    #[test]
    fn stat_parsing_skips_a_tricky_command_name() {
        // Field 2 holds spaces and a ')' — utime=250, stime=50 ticks.
        let stat = "4242 (my (odd) cmd) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu_secs(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_secs("garbage"), None);
        assert!(process_cpu_secs().is_some_and(|s| s >= 0.0));
    }

    #[test]
    fn cpu_util_normalizes_by_cores() {
        assert_eq!(cpu_util(2.0, 1.0, 2), 1.0);
        assert_eq!(cpu_util(1.0, 2.0, 2), 0.25);
        assert_eq!(cpu_util(1.0, 0.0, 2), 0.0);
    }

    #[test]
    fn byte_accounting_separates_wal_from_data() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/unit-bytes");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("wal.0"), [0u8; 100]).unwrap();
        std::fs::write(dir.join("wal.3"), [0u8; 20]).unwrap();
        std::fs::write(dir.join("snap.3"), [0u8; 7]).unwrap();
        std::fs::write(dir.join("MANIFEST"), [0u8; 3]).unwrap();
        std::fs::write(dir.join("nested/wal.9"), [0u8; 1000]).unwrap();
        assert_eq!(wal_bytes(&dir), 120);
        assert_eq!(data_dir_bytes(&dir), 130, "directories are not files");
        assert_eq!(wal_bytes(&dir.join("missing")), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
