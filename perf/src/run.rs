//! What every run starts from, and the untraced run the end-to-end metrics
//! come from.

use crate::check::{Checker, ORACLE};
use crate::drive::{closed_loop, Drive, Slice, Stop};
use crate::inputs::Inputs;
use crate::layers::ref_kernel_us;
use crate::link::Link;
use crate::procstat;
use crate::report::Report;
use crate::stats::median;
use crate::sut::{self, Kind, StoreDir, Sut};
use crate::trace::Tracer;
use crate::workloads::{Workload, END_TO_END};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median, so one slow process
/// spawn or page-cache miss does not decide it. The last system built is
/// the one measured.
const SETUP_ROUNDS: usize = 5;

/// `client.ref_kernel_us` before vs after a run may differ by this share
/// before the run is flagged as disturbed.
pub const DISTURBED: f64 = 0.10;

/// One run's fixed inputs: the workload, its seeded request stream, where
/// outputs go and — for the wire and cluster systems — the scratch model
/// store they hydrate from, written here, before any clock starts.
pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub inputs: Inputs,
    pub out_dir: PathBuf,
    store: Option<StoreDir>,
}

impl Plan {
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        seconds: u64,
        out_dir: &Path,
    ) -> Result<Plan, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let store = match workload.kind {
            Kind::Edge => None,
            Kind::Wire | Kind::Cluster => Some(StoreDir::create(out_dir, workload.name)?),
        };
        Ok(Plan {
            workload,
            seed,
            seconds,
            inputs: Inputs::new(seed, workload.dims, workload.hot_set),
            out_dir: out_dir.to_path_buf(),
            store,
        })
    }

    /// The model store directory (unused by the edge system, which builds
    /// its weights from a seed).
    pub fn store_dir(&self) -> &Path {
        self.store.as_ref().map_or(&self.out_dir, |store| &store.0)
    }

    /// The oracle for this run's inputs, computed by direct calls into the
    /// route's pipeline before any clock starts.
    pub fn checker(&self) -> Result<Checker, String> {
        let [c, h, w] = self.workload.dims;
        let (pipeline, classifier) = match self.workload.kind {
            Kind::Edge => (
                sut::edge_pipeline().map_err(|e| e.to_string())?,
                Some(sut::edge_classifier()),
            ),
            Kind::Wire | Kind::Cluster => (sut::wire_pipeline(self.store_dir())?, None),
        };
        Checker::new(
            &self.inputs,
            self.workload.warmup,
            [1, c, 2 * h, 2 * w],
            &pipeline,
            classifier,
        )
    }

    /// A connection to `sut` of the kind the workload drives.
    pub fn connect(&self, sut: &Sut) -> Result<Link, String> {
        let route = self.workload.route();
        match (self.workload.kind, sut.gateway_client(), sut.addr()) {
            (Kind::Edge, Some(client), _) => Ok(Link::in_process(client, route)),
            (_, _, Some(addr)) => Ok(Link::wire(sut::dial(addr)?, route)),
            _ => Err("system has no entry point".to_string()),
        }
    }

    /// Build the system, connect, answer the warm-up. The last value is the
    /// seconds from the first building call to the last warm-up reply.
    pub fn set_up(&self, checker: Option<&mut Checker>) -> Result<(Sut, Link, Drive, f64), String> {
        let started = Instant::now();
        let sut = Sut::start(self.workload.kind, self.store_dir())?;
        let mut link = self.connect(&sut)?;
        let warm = closed_loop(
            &mut link,
            &self.inputs,
            0,
            self.workload.window,
            Stop::Count(self.workload.warmup),
            checker,
            &mut Tracer::off(),
            &[],
        );
        let seconds = started.elapsed().as_secs_f64();
        if let Some(why) = &warm.first_failure {
            // A gateway joins its threads only once every client is gone.
            drop(link);
            sut.shutdown();
            return Err(format!("warm-up failed: {why}"));
        }
        Ok((sut, link, warm, seconds))
    }
}

fn hex(digest: Option<u64>) -> String {
    digest.map_or("incomplete".to_string(), |d| format!("{d:016x}"))
}

/// Note the reference kernel's drift over the run; true when it says the
/// machine changed under the run.
pub fn ref_kernel_notes(before: f64, after: f64, notes: &mut Vec<(String, String)>) -> bool {
    let drift = (after - before).abs() / before;
    let disturbed = drift > DISTURBED;
    notes.push((
        "ref_kernel_us before/after".to_string(),
        format!(
            "{before:.1} / {after:.1}  drift {:.1}%  disturbed {}",
            drift * 100.0,
            if disturbed { "YES" } else { "no" }
        ),
    ));
    disturbed
}

pub fn checker_notes(checker: &Checker, notes: &mut Vec<(String, String)>) {
    notes.push(("output_digest".to_string(), hex(checker.digest())));
    if let Some(problem) = &checker.first_problem {
        notes.push((
            "first output problem".to_string(),
            format!("{problem} ({} replies failed a check)", checker.problems),
        ));
    }
}

/// The untraced run: set up [`SETUP_ROUNDS`] times, then one closed loop of
/// `seconds`, reporting the five end-to-end metrics. Latency is the median
/// over every timed sample; throughput and CPU per image are totals over
/// the whole timed phase.
pub fn untraced(plan: &Plan) -> Result<Report, String> {
    let workload = plan.workload;
    let mut checker = plan.checker()?;
    let ref_before = ref_kernel_us();

    let mut setups = Vec::new();
    let mut live: Option<(Sut, Link, Drive)> = None;
    for round in 1..=SETUP_ROUNDS {
        if let Some((sut, link, _)) = live.take() {
            drop(link);
            sut.shutdown();
        }
        let check = (round == SETUP_ROUNDS).then_some(&mut checker);
        let (sut, link, warm, seconds) = plan.set_up(check)?;
        setups.push(seconds);
        live = Some((sut, link, warm));
    }
    let (sut, mut link, warm) = live.expect("at least one set-up round");

    let pids = sut.pids();
    let timed = closed_loop(
        &mut link,
        &plan.inputs,
        workload.warmup,
        workload.window,
        Stop::Time {
            seconds: plan.seconds as f64,
            min: ORACLE,
        },
        Some(&mut checker),
        &mut Tracer::off(),
        &pids,
    );
    let hwm_kb: Vec<u64> = pids
        .iter()
        .filter_map(|p| procstat::vm_hwm_kb(*p))
        .collect();
    drop(link);
    sut.shutdown();
    let ref_after = ref_kernel_us();

    let (throughput_ips, cpu_ms_per_image) = timed.rates();
    let latencies_ms = timed.latencies_ms();
    let values = [
        median(&setups),
        median(&latencies_ms),
        throughput_ips,
        cpu_ms_per_image,
        hwm_kb.iter().sum::<u64>() as f64 / 1024.0,
    ];
    let setups: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    let hwm_mb: Vec<String> = hwm_kb
        .iter()
        .map(|kb| format!("{:.1}", *kb as f64 / 1024.0))
        .collect();
    let mut notes = vec![
        ("timed samples".to_string(), latencies_ms.len().to_string()),
        (
            "setup rounds (s), the first cold".to_string(),
            setups.join(" "),
        ),
        ("peak RSS per process (MiB)".to_string(), hwm_mb.join(" + ")),
    ];
    checker_notes(&checker, &mut notes);
    let disturbed = ref_kernel_notes(ref_before, ref_after, &mut notes);
    if let Some(why) = &timed.first_failure {
        notes.push(("first failure".to_string(), why.clone()));
    }
    let report = Report {
        workload,
        traced: false,
        seed: plan.seed,
        seconds: plan.seconds,
        correct: checker.problems == 0 && checker.digest().is_some(),
        attempted: warm.attempted + timed.attempted,
        failed: timed.failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        notes,
    };

    // Beside the result, for `selfcheck` and for whoever asks why a run was
    // off: whether the machine drifted, and the timed phase second by second.
    let slices = timed.slices();
    let column = |pick: fn(&Slice) -> f64| slices.iter().map(pick).collect::<Vec<_>>();
    let sidecar = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"samples\": {}, \
         \"output_digest\": \"{}\", \"ref_kernel_before_us\": {ref_before}, \
         \"ref_kernel_after_us\": {ref_after}, \"disturbed\": {disturbed}, \
         \"slice_ips\": {:?}, \"slice_cpu_ms_per_image\": {:?}, \
         \"slice_latency_p50_ms\": {:?}, \"result\": {}}}\n",
        workload.name,
        plan.seed,
        plan.seconds,
        latencies_ms.len(),
        hex(checker.digest()),
        column(|s| s.ips),
        column(|s| s.cpu_ms_per_image),
        column(|s| s.latency_p50_ms),
        report.json_line()
    );
    let path = plan.out_dir.join(format!("{}.json", workload.name));
    std::fs::write(&path, sidecar).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}
