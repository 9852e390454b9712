//! `served_batches`: `run_batch` requests over one TCP connection to a
//! `Server` backed by a store-attached `SimService`, each request then
//! replayed on an in-process twin service outside the client's timer.

use crate::harness::{common_metrics, layer_metrics, measure, Budget, Report, Tally};
use crate::stats::pct;
use crate::trace::Recorder;
use omnisim_suite::api::{RunPath, SimFailure, SimReport};
use omnisim_suite::designs::typea;
use omnisim_suite::gen::Rng;
use omnisim_suite::ir::Design;
use omnisim_suite::serve::wire::{self, Request, Response, WireReport};
use omnisim_suite::serve::{design_key, Client, ClientError, Server, ServerHandle};
use omnisim_suite::{backend, ArtifactStore, DesignKey, RunConfig, SimService};
use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Workload size: design element count, and per pass the number and
/// length of small (phase A) and large (phase B) batches.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: i64,
    pub small_batches: usize,
    pub small_runs: usize,
    pub large_batches: usize,
    pub large_runs: usize,
}

impl Size {
    pub const FULL: Size = Size {
        n: 512,
        small_batches: 20,
        small_runs: 8,
        large_batches: 2,
        large_runs: 256,
    };
}

/// Depth overrides are drawn from `1..=MAX_DEPTH`.
const MAX_DEPTH: usize = 12;

fn designs(n: i64) -> Vec<Design> {
    vec![
        typea::vecadd_stream(n, 2),
        typea::fir_filter(n, 8),
        typea::window_conv(n, 4),
    ]
}

/// A running server with its connected client.
struct Remote {
    client: Client,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Remote {
    fn boot(store_dir: &Path) -> io::Result<Remote> {
        let service = SimService::new(backend("omnisim").expect("registered"))
            .with_store(ArtifactStore::open(store_dir)?);
        let server = Server::bind(service, "127.0.0.1:0")?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        let client = Client::connect(handle.addr())?;
        Ok(Remote {
            client,
            handle,
            thread,
        })
    }

    /// Disconnects, stops the server and waits for its thread.
    fn stop(self) -> io::Result<()> {
        drop(self.client);
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

struct Stack {
    remote: Remote,
    twin: SimService,
    dirs: [PathBuf; 2],
}

impl Stack {
    fn stop(self) -> io::Result<()> {
        let stopped = self.remote.stop();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        stopped
    }
}

fn register(client: &mut Client, designs: &[Design]) -> Vec<DesignKey> {
    designs
        .iter()
        .map(|d| client.register(d).expect("Type A designs register"))
        .collect()
}

/// Boots the server on a fresh store, registers the designs cold,
/// restarts on the same store and registers them again warm, builds the
/// twin, and times the store and codec calls on the three artifacts.
fn build(size: Size, store_root: &Path, rec: &mut Recorder) -> Stack {
    let designs = designs(size.n);
    let dirs = [store_root.join("served"), store_root.join("probe")];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut remote = Remote::boot(&dirs[0]).expect("server boots");
    let (cold, _, _) = rec.time("serve.register_cold", || {
        register(&mut remote.client, &designs)
    });
    remote.stop().expect("server stops");
    let (remote, _, _) = rec.time("serve.restart", || Remote::boot(&dirs[0]));
    let mut remote = remote.expect("server restarts");
    let (warm, _, _) = rec.time("serve.register_warm", || {
        register(&mut remote.client, &designs)
    });
    let keys: Vec<DesignKey> = designs.iter().map(design_key).collect();
    assert_eq!(
        (&cold, &warm),
        (&keys, &keys),
        "designs register under their content keys, cold and warm"
    );

    let omni = backend("omnisim").expect("registered");
    let (twin, _, _) = rec.time("serve.twin_register", || {
        let twin = SimService::new(backend("omnisim").expect("registered"));
        for design in &designs {
            twin.register(design).expect("Type A designs register");
        }
        twin
    });
    let probe = ArtifactStore::open(&dirs[1]).expect("probe store opens");
    for (design, key) in designs.iter().zip(&warm) {
        let artifact = twin.artifact(*key).expect("registered on the twin");
        let (bytes, _, _) = rec.time("codec.encode", || artifact.encode());
        let bytes = bytes.expect("omnisim artifacts encode");
        let (decoded, _, _) = rec.time("codec.decode", || omni.decode_artifact(design, &bytes));
        decoded.expect("a fresh encoding decodes");
        let (saved, _, _) = rec.time("store.save", || probe.save("omnisim", key.raw(), &bytes));
        saved.expect("probe store saves");
        let (loaded, _, _) = rec.time("store.load", || probe.load("omnisim", key.raw()));
        assert_eq!(loaded.as_deref(), Some(&bytes[..]), "store round-trips");
    }
    Stack { remote, twin, dirs }
}

/// One batch: each run picks one of the `(key, FIFO count)` targets; half
/// replay the compiled depths, half override every FIFO's depth.
fn batch(
    rng: &mut Rng,
    targets: &[(DesignKey, usize)],
    runs: usize,
) -> Vec<(DesignKey, RunConfig)> {
    (0..runs)
        .map(|_| {
            let (key, fifos) = *rng.pick(targets);
            let config = if rng.chance(50) {
                RunConfig::default()
            } else {
                RunConfig::new()
                    .with_fifo_depths((0..fifos).map(|_| rng.depth(MAX_DEPTH)).collect::<Vec<_>>())
            };
            (key, config)
        })
        .collect()
}

/// Remote results must equal the twin's, timings aside.
pub fn check_batch(
    remote: &[Result<WireReport, String>],
    twin: &[Result<SimReport, SimFailure>],
) -> Vec<Result<(), String>> {
    if remote.len() != twin.len() {
        return vec![Err(format!(
            "{} results for {} runs",
            remote.len(),
            twin.len()
        ))];
    }
    remote
        .iter()
        .zip(twin)
        .map(|(remote, twin)| match (remote, twin) {
            (Ok(remote), Ok(twin)) => {
                let twin = WireReport::from(twin).without_timings();
                if remote.clone().without_timings() == twin {
                    Ok(())
                } else {
                    Err(format!("remote {remote:?} vs in-process {twin:?}"))
                }
            }
            (remote, twin) => Err(format!(
                "a run failed: remote {:?}, in-process {:?}",
                remote.as_ref().err(),
                twin.as_ref().err()
            )),
        })
        .collect()
}

#[derive(Debug, Default)]
struct Phase {
    client_s: f64,
    service_s: f64,
    encode_s: f64,
    decode_s: f64,
    runs: u64,
}

#[derive(Debug, Default)]
struct PassData {
    small: Phase,
    large: Phase,
    calls_ms: Vec<f64>,
    /// Runs the twin answered by replay, re-finalize and re-simulation.
    paths: [u64; 3],
}

pub fn run(
    size: Size,
    seed: u64,
    budget: &Budget,
    store_root: &Path,
    rec: &mut Recorder,
) -> Report {
    // Every pass sends the same batches, so per-pass counts are exact.
    let targets: Vec<(DesignKey, usize)> = designs(size.n)
        .iter()
        .map(|d| (design_key(d), d.fifos.len()))
        .collect();
    let mut rng = Rng::new(seed ^ 0x7365_7276_6564);
    let small: Vec<_> = (0..size.small_batches)
        .map(|_| batch(&mut rng, &targets, size.small_runs))
        .collect();
    let large: Vec<_> = (0..size.large_batches)
        .map(|_| batch(&mut rng, &targets, size.large_runs))
        .collect();
    let mut tally = Tally::default();
    let build = |rec: &mut Recorder| build(size, store_root, rec);
    let discard = |stack: Stack| stack.stop().expect("set-up server stops");
    let (stack, passes) = measure(budget, rec, build, discard, |rec, stack, _| {
        let mut data = PassData::default();
        for requests in &small {
            let ms = serve_one(
                rec,
                stack,
                requests,
                &mut data.small,
                &mut data.paths,
                &mut tally,
            );
            data.calls_ms.push(ms);
        }
        for requests in &large {
            serve_one(
                rec,
                stack,
                requests,
                &mut data.large,
                &mut data.paths,
                &mut tally,
            );
        }
        data
    });
    if let Err(error) = stack.stop() {
        tally.fail(format!("server did not stop cleanly: {error}"));
    }

    let mut report = Report {
        tally,
        ..Report::default()
    };
    let off = passes.untraced();
    let sheet = &mut report.sheet;
    common_metrics(sheet, &passes);
    sheet.median(
        "pass_s",
        off.iter()
            .map(|p| p.small.client_s + p.large.client_s)
            .collect(),
    );
    sheet.median(
        "work_per_s",
        off.iter()
            .map(|p| p.large.runs as f64 / p.large.client_s)
            .collect(),
    );
    let calls: Vec<Vec<f64>> = off.iter().map(|p| p.calls_ms.clone()).collect();
    sheet.pooled("call_ms_p50", &calls, 50.0);
    sheet.pooled("call_ms_p90", &calls, 90.0);

    if rec.enabled() {
        layer_metrics(
            &mut report,
            rec,
            &passes,
            &[],
            &[
                ("serve.register_cold_pct", "serve.register_cold"),
                ("serve.register_warm_pct", "serve.register_warm"),
                ("store.save_pct", "store.save"),
                ("store.load_pct", "store.load"),
                ("codec.encode_pct", "codec.encode"),
                ("codec.decode_pct", "codec.decode"),
            ],
        );
        let on = passes.traced();
        let sheet = &mut report.sheet;
        let per_pass = |f: &dyn Fn(&PassData) -> f64| on.iter().map(|p| f(p)).collect::<Vec<_>>();
        // What the client waited for beyond the service's own work and
        // the message codec: sockets, framing and scheduling.
        let wire = |p: &Phase| p.client_s - p.service_s - p.encode_s - p.decode_s;
        sheet.median(
            "serve.wire_pct",
            per_pass(&|p| pct(wire(&p.small), p.small.client_s)),
        );
        sheet.median(
            "serve.service_pct",
            per_pass(&|p| pct(p.small.service_s, p.small.client_s)),
        );
        sheet.median(
            "wire.encode_pct",
            per_pass(&|p| pct(p.small.encode_s, p.small.client_s)),
        );
        sheet.median(
            "wire.decode_pct",
            per_pass(&|p| pct(p.small.decode_s, p.small.client_s)),
        );
        sheet.median(
            "serve.wire_large_pct",
            per_pass(&|p| pct(wire(&p.large), p.large.client_s)),
        );
        sheet.median(
            "serve.service_large_pct",
            per_pass(&|p| pct(p.large.service_s, p.large.client_s)),
        );
        for (i, name) in [
            "serve.replay_runs",
            "serve.refinalize_runs",
            "serve.resim_runs",
        ]
        .into_iter()
        .enumerate()
        {
            sheet.median(name, per_pass(&|p| p.paths[i] as f64));
        }
    }
    report
}

/// Sends one batch, times the codec on the same messages, replays it on
/// the twin and checks the results. Returns the client latency in ms.
fn serve_one(
    rec: &mut Recorder,
    stack: &mut Stack,
    requests: &[(DesignKey, RunConfig)],
    phase: &mut Phase,
    paths: &mut [u64; 3],
    tally: &mut Tally,
) -> f64 {
    let message = Request::RunBatch {
        requests: requests.iter().map(|(k, c)| (k.raw(), c.clone())).collect(),
    };
    let (_, encode, _) = rec.time("wire.encode_request", || {
        wire::encode_request(&message, None)
    });
    let client = &mut stack.remote.client;
    let (remote, latency, _) = rec.time("serve.run_batch", || client.run_batch(requests));
    let (twin, service, _) = rec.time("serve.service", || stack.twin.run_batch(requests));
    phase.client_s += latency.as_secs_f64();
    phase.service_s += service.as_secs_f64();
    phase.encode_s += encode.as_secs_f64();
    phase.runs += requests.len() as u64;
    tally.attempt(requests.len() as u64);

    for report in twin.iter().flatten() {
        match report.extras.get::<RunPath>().map(RunPath::as_str) {
            Some("baseline_replay") => paths[0] += 1,
            Some("refinalize") => paths[1] += 1,
            Some("resim_fallback") => paths[2] += 1,
            _ => {}
        }
    }
    match remote {
        Ok(results) => {
            let reply = wire::encode_response(&Response::BatchResults {
                results: results.clone(),
            });
            let (decoded, decode, _) =
                rec.time("wire.decode_response", || wire::decode_response(&reply));
            phase.decode_s += decode.as_secs_f64();
            if decoded.is_err() {
                tally.fail("a reply did not decode".to_owned());
            }
            for check in check_batch(&results, &twin) {
                if let Err(reason) = check {
                    tally.fail(reason);
                }
            }
        }
        Err(error) => {
            let refused = match error {
                ClientError::Overloaded { .. } => "refused",
                _ => "failed",
            };
            for _ in requests {
                tally.fail(format!("batch {refused}: {error}"));
            }
        }
    }
    latency.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_remote_result_counts_as_a_failure() {
        let design = typea::vecadd_stream(16, 2);
        let omni = backend("omnisim").expect("registered");
        let twin: Vec<_> = (0..2).map(|_| omni.simulate(&design)).collect();
        let remote: Vec<_> = twin
            .iter()
            .map(|r| Ok(WireReport::from(r.as_ref().expect("vecadd runs"))))
            .collect();
        assert!(check_batch(&remote, &twin).iter().all(Result::is_ok));

        let mut corrupted = remote.clone();
        if let Ok(report) = &mut corrupted[1] {
            report.total_cycles = report.total_cycles.map(|c| c + 1);
        }
        let mut tally = Tally::default();
        for check in check_batch(&corrupted, &twin) {
            tally.check(check);
        }
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        corrupted[0] = Err("server error".to_owned());
        assert_eq!(
            check_batch(&corrupted, &twin)
                .iter()
                .filter(|c| c.is_err())
                .count(),
            2
        );
    }
}
