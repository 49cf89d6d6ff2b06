//! Gateway ↔ telemetry wiring: per-route stage probes, per-worker arena
//! gauges and the background snapshot exporter.
//!
//! The gateway owns one [`Telemetry`] hub; every
//! route registers the same six stage probes under its own histogram names
//! (`route.<label>.stage.<stage>_ns`), so a
//! [`TelemetrySnapshot`] breaks request
//! latency down per route *and* per stage. Journal events share one static
//! name per stage (`stage.queue_wait`, …) and are tagged with the request id
//! instead, which keeps hot-path recording allocation-free.

use sesr_telemetry::{Counter, Gauge, Level, Probe, Telemetry, TelemetrySnapshot};
use sesr_tensor::ArenaStats;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The six timed stages of a gateway request, as one probe bundle per route.
///
/// Every probe journals at [`Level::Debug`] under a static stage name and
/// mirrors durations into that route's `route.<label>.stage.<stage>_ns`
/// histogram.
#[derive(Clone)]
pub(crate) struct StageProbes {
    /// Submission → worker pop: how long a job sat in the bounded queue.
    pub queue_wait: Probe,
    /// Pop → batch start: the linger window a worker spent growing the
    /// batch.
    pub batch_dwell: Probe,
    /// Clamp + JPEG + wavelet, timed inside the defense pipeline.
    pub preprocess: Probe,
    /// The SR forward pass, timed inside the defense pipeline.
    pub sr_forward: Probe,
    /// Classifier forward + argmax over the defended batch.
    pub classify: Probe,
    /// Output-cache probe in the submission path (hit or miss).
    pub cache_lookup: Probe,
}

impl StageProbes {
    /// Register the stage probes for the route labelled `label` on `hub`.
    /// Re-registering the same label (hot reload) reuses the same histograms
    /// and event codes, so metrics survive a shard swap.
    pub fn for_route(hub: &Telemetry, label: &str) -> Self {
        let stage = |event: &'static str, stage: &str| {
            hub.probe(
                event,
                Level::Debug,
                Some(&format!("route.{label}.stage.{stage}_ns")),
            )
        };
        StageProbes {
            queue_wait: stage("stage.queue_wait", "queue_wait"),
            batch_dwell: stage("stage.batch_dwell", "batch_dwell"),
            preprocess: stage("stage.preprocess", "preprocess"),
            sr_forward: stage("stage.sr_forward", "sr_forward"),
            classify: stage("stage.classify", "classify"),
            cache_lookup: stage("stage.cache_lookup", "cache_lookup"),
        }
    }
}

/// Gauge handles mirroring one worker's [`TensorArena`] pool statistics into
/// the registry (`route.<label>.arena.w<i>.*`), refreshed after every batch.
///
/// [`TensorArena`]: sesr_tensor::TensorArena
#[derive(Clone)]
pub(crate) struct ArenaGauges {
    in_use_bytes: Arc<Gauge>,
    high_water_bytes: Arc<Gauge>,
    pooled_bytes: Arc<Gauge>,
    hits: Arc<Gauge>,
    misses: Arc<Gauge>,
}

impl ArenaGauges {
    /// Register the gauges for worker `worker` of the route labelled `label`.
    pub fn for_worker(hub: &Telemetry, label: &str, worker: usize) -> Self {
        let gauge = |field: &str| {
            hub.metrics()
                .gauge(&format!("route.{label}.arena.w{worker}.{field}"))
        };
        ArenaGauges {
            in_use_bytes: gauge("in_use_bytes"),
            high_water_bytes: gauge("high_water_bytes"),
            pooled_bytes: gauge("pooled_bytes"),
            hits: gauge("hits"),
            misses: gauge("misses"),
        }
    }

    /// Publish a fresh [`ArenaStats`] reading. Gauge stores are single
    /// relaxed atomic writes, so this is safe to call once per batch.
    pub fn publish(&self, stats: &ArenaStats) {
        self.in_use_bytes.set(saturate(stats.in_use_bytes as u64));
        self.high_water_bytes
            .set(saturate(stats.high_water_bytes as u64));
        self.pooled_bytes.set(saturate(stats.pooled_bytes as u64));
        self.hits.set(saturate(stats.hits));
        self.misses.set(saturate(stats.misses));
    }
}

fn saturate(value: u64) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

/// Serialize `snapshot` to `path` atomically: the JSON is written to a
/// sibling `.tmp` file and renamed into place, so a concurrent reader (e.g.
/// `sesr-top`) never observes a half-written document.
pub fn write_snapshot_atomic(path: &Path, snapshot: &TelemetrySnapshot) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, snapshot.to_json())?;
    std::fs::rename(&tmp, path)
}

/// Handle to the background thread that periodically writes a
/// [`TelemetrySnapshot`] to a JSON file (the polling surface `sesr-top`
/// reads). Returned by
/// [`GatewayClient::export_telemetry`](crate::gateway::GatewayClient::export_telemetry)
/// and by the cluster front's `Cluster::export_telemetry`.
///
/// The exporter writes one snapshot immediately on spawn, then one per
/// interval, and a final one when stopped — so even `interval`s longer than
/// the process lifetime leave a valid file behind. Dropping the handle
/// without calling [`TelemetryExporter::stop`] detaches the thread; it exits
/// on its next tick after the stop channel closes.
pub struct TelemetryExporter {
    stop: mpsc::Sender<()>,
    thread: Option<JoinHandle<io::Result<()>>>,
    path: PathBuf,
}

impl TelemetryExporter {
    /// Spawn the exporter thread. `snapshot` is called once per tick; the
    /// result is written atomically to `path`.
    ///
    /// A failed periodic write no longer kills the thread: it is counted in
    /// `errors` (the `telemetry.export.errors` counter when spawned through
    /// the gateway or a cluster front) and the next tick tries again — a transiently full or
    /// slow disk must not silently end telemetry for the rest of the
    /// process. The last error, if any, is surfaced by
    /// [`TelemetryExporter::stop`].
    pub fn spawn(
        path: PathBuf,
        interval: Duration,
        errors: Option<Arc<Counter>>,
        snapshot: impl Fn() -> TelemetrySnapshot + Send + 'static,
    ) -> io::Result<Self> {
        // Fail fast: write the first snapshot on the caller's thread so an
        // unwritable path is an immediate error, not a silent dead thread.
        write_snapshot_atomic(&path, &snapshot())?;
        let (stop, stop_rx) = mpsc::channel::<()>();
        let thread_path = path.clone();
        let thread = std::thread::spawn(move || {
            let mut last_err: Option<io::Error> = None;
            let mut attempt = |path: &Path, snapshot: TelemetrySnapshot| {
                if let Err(err) = write_snapshot_atomic(path, &snapshot) {
                    if let Some(errors) = &errors {
                        errors.incr();
                    }
                    last_err = Some(err);
                }
            };
            loop {
                match stop_rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => {
                        attempt(&thread_path, snapshot());
                    }
                    // Stop requested (or the handle was dropped): final flush.
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                        attempt(&thread_path, snapshot());
                        return match last_err {
                            Some(err) => Err(err),
                            None => Ok(()),
                        };
                    }
                }
            }
        });
        Ok(TelemetryExporter {
            stop,
            thread: Some(thread),
            path,
        })
    }

    /// The file this exporter writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop the exporter and write one final snapshot. Returns the most
    /// recent write error from the exporter's whole lifetime (periodic
    /// ticks included — failures that previously vanished into the
    /// background), or `Ok(())` when every write succeeded.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = self.stop.send(());
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("telemetry exporter panicked"))),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for TelemetryExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryExporter")
            .field("path", &self.path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_telemetry::Telemetry;

    #[test]
    fn stage_probes_register_per_route_histograms() {
        let hub = Telemetry::new();
        let probes = StageProbes::for_route(&hub, "sesr-m2:x2:jpeg75+wavelet2");
        probes.queue_wait.observe(7, Duration::from_micros(3));
        probes.classify.observe(7, Duration::from_micros(9));
        let snapshot = hub.snapshot();
        assert_eq!(
            snapshot
                .histogram("route.sesr-m2:x2:jpeg75+wavelet2.stage.queue_wait_ns")
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snapshot
                .histogram("route.sesr-m2:x2:jpeg75+wavelet2.stage.classify_ns")
                .unwrap()
                .count,
            1
        );
        // Re-registering the route (hot reload) reuses the same histograms.
        let again = StageProbes::for_route(&hub, "sesr-m2:x2:jpeg75+wavelet2");
        again.queue_wait.observe(8, Duration::from_micros(4));
        assert_eq!(
            hub.snapshot()
                .histogram("route.sesr-m2:x2:jpeg75+wavelet2.stage.queue_wait_ns")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn arena_gauges_mirror_pool_stats() {
        let hub = Telemetry::new();
        let gauges = ArenaGauges::for_worker(&hub, "r", 3);
        let stats = ArenaStats {
            hits: 5,
            misses: 2,
            recycled: 7,
            in_use_bytes: 1024,
            high_water_bytes: 4096,
            pooled_buffers: 1,
            pooled_bytes: 2048,
        };
        gauges.publish(&stats);
        let snapshot = hub.snapshot();
        assert_eq!(snapshot.gauge("route.r.arena.w3.in_use_bytes"), Some(1024));
        assert_eq!(
            snapshot.gauge("route.r.arena.w3.high_water_bytes"),
            Some(4096)
        );
        assert_eq!(snapshot.gauge("route.r.arena.w3.pooled_bytes"), Some(2048));
        assert_eq!(snapshot.gauge("route.r.arena.w3.hits"), Some(5));
        assert_eq!(snapshot.gauge("route.r.arena.w3.misses"), Some(2));
    }

    #[test]
    fn exporter_writes_valid_snapshots_and_final_flush() {
        let dir = std::env::temp_dir().join(format!(
            "sesr-telemetry-exporter-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let hub = Arc::new(Telemetry::new());
        let writer = Arc::clone(&hub);
        let exporter = TelemetryExporter::spawn(
            path.clone(),
            Duration::from_secs(3600), // ticks never fire; spawn + stop write
            None,
            move || writer.snapshot(),
        )
        .unwrap();
        // The spawn-time write is already there.
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(TelemetrySnapshot::from_json(&first).is_ok());
        hub.metrics().counter("after.spawn").incr();
        exporter.stop().unwrap();
        let last = std::fs::read_to_string(&path).unwrap();
        let parsed = TelemetrySnapshot::from_json(&last).unwrap();
        assert_eq!(
            parsed.counter("after.spawn"),
            Some(1),
            "stop must flush a final snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exporter_counts_write_failures_and_surfaces_the_last_error() {
        let dir = std::env::temp_dir().join(format!(
            "sesr-telemetry-exporter-err-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let hub = Arc::new(Telemetry::new());
        let errors = hub.metrics().counter("telemetry.export.errors");
        let writer = Arc::clone(&hub);
        let exporter = TelemetryExporter::spawn(
            path.clone(),
            Duration::from_millis(5),
            Some(Arc::clone(&errors)),
            move || writer.snapshot(),
        )
        .unwrap();
        // Sabotage the rename target: a directory at the snapshot path makes
        // every subsequent atomic write fail, without touching the exporter.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir_all(&path).unwrap();
        let mut waited = Duration::ZERO;
        while errors.get() < 2 && waited < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
            waited += Duration::from_millis(5);
        }
        assert!(
            errors.get() >= 2,
            "failed periodic writes must be counted, not kill the thread"
        );
        let err = exporter
            .stop()
            .expect_err("stop must surface the last write error");
        assert!(!err.to_string().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
