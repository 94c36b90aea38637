//! Chaos end-to-end tests over real loopback TCP: wire-level fault
//! injection (corrupted and truncated frames), worker panics healed
//! behind the front door, and typed Shutdown refusals for work the
//! server can no longer take.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use autobatch_chaos::FaultPlan;
use autobatch_core::{lower, ExecOptions, LoweringOptions};
use autobatch_ingress::wire::{self, RejectCode};
use autobatch_ingress::{IngressClient, IngressConfig, IngressError, IngressServer};
use autobatch_ir::build::fibonacci_program;
use autobatch_tensor::Tensor;

fn fib_server(config: IngressConfig) -> autobatch_ingress::IngressHandle {
    let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
    IngressServer::start(pc, config, "127.0.0.1:0").unwrap()
}

fn faulty_config(fault: FaultPlan) -> IngressConfig {
    IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        opts: ExecOptions {
            fault,
            ..ExecOptions::default()
        },
        ..IngressConfig::default()
    }
}

/// Silence the default panic hook for injected worker panics (libtest
/// cannot capture output from the server's worker threads). Real panics
/// still print.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected fault") {
                prev(info);
            }
        }));
    });
}

#[test]
fn truncated_frames_close_the_connection_with_no_silent_loss() {
    // Every inbound frame is cut off mid-stream: the client's terminal
    // outcome is a closed connection, never a hang, and the engine
    // serves nothing.
    let handle = fib_server(faulty_config(FaultPlan {
        seed: 5,
        wire_truncate: FaultPlan::ALWAYS,
        ..FaultPlan::none()
    }));
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    client
        .send(0, 0, &[Tensor::from_i64(&[9], &[1]).unwrap()])
        .unwrap();
    match client.recv() {
        Err(IngressError::Closed) | Err(IngressError::Io(_)) => {}
        other => panic!("expected a dead connection, got {other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 0);
}

#[test]
fn corrupted_frames_are_refused_with_typed_rejects() {
    // Every inbound frame has one byte flipped. With this seed the
    // corruption breaks decoding (pinned by the reject below), so the
    // client gets a typed BadRequest and the connection stays usable —
    // the fault counter keeps advancing per frame either way.
    let handle = fib_server(faulty_config(FaultPlan {
        seed: 5,
        wire_corrupt: FaultPlan::ALWAYS,
        ..FaultPlan::none()
    }));
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    let mut rejected = 0u64;
    for id in 0..4u64 {
        match client.call(id, id, &[Tensor::from_i64(&[9], &[1]).unwrap()]) {
            Err(IngressError::Rejected(r)) => {
                assert_eq!(r.code, RejectCode::BadRequest);
                rejected += 1;
            }
            // A flipped byte can land in tensor payload and still
            // decode; the request is then served (with the corrupted
            // input) — that is the fault model, not a loss.
            Ok(_) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(rejected > 0, "seed 5 corrupts at least one frame fatally");
    let stats = handle.shutdown();
    assert_eq!(stats.bad_frames, rejected);
}

#[test]
fn worker_panics_are_healed_behind_the_front_door() {
    silence_injected_panics();
    // Half of all worker rounds panic. The supervisor respawns the
    // shard and retries, so every request is still answered correctly
    // over TCP and the fleet-death mode (one panic aborting the whole
    // server) is gone.
    let handle = fib_server(faulty_config(FaultPlan {
        seed: 0,
        worker_panic: FaultPlan::ALWAYS / 2,
        ..FaultPlan::none()
    }));
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    for (id, (n, fib)) in [(6i64, 13i64), (9, 55), (7, 21), (8, 34)]
        .into_iter()
        .enumerate()
    {
        let r = client
            .call(
                id as u64,
                id as u64,
                &[Tensor::from_i64(&[n], &[1]).unwrap()],
            )
            .unwrap();
        assert_eq!(r.outputs[0].as_i64().unwrap(), &[fib], "request {id}");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    assert!(stats.respawned > 0, "panics must have cost a respawn");
    assert!(stats.retried > 0, "stranded work must have been retried");
}

#[test]
fn shutdown_answers_late_frames_with_typed_shutdown_rejects() {
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        ..IngressConfig::default()
    });
    let addr = handle.addr();
    let mut handle = Some(handle);
    // Raw wire access so sending and receiving can run concurrently on
    // the two halves of one connection: the reader must keep draining
    // while the writer floods, or TCP backpressure would couple the
    // test to the server's reply pacing.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut write_half = stream.try_clone().unwrap();
    // Keep sending while the server shuts down: frames that arrive
    // after the stop flag flips can no longer be served and must be
    // answered with typed Shutdown rejects (not silently dropped)
    // before the socket closes. One frame goes first; its reply proves
    // the server is serving and starts the flood, and shutdown starts
    // once the writer reports the flood under way — so frames are
    // arriving when the stop flag flips, however this host schedules
    // the threads, and few enough were admitted before it that draining
    // them is quick. The flood ends when the reader has seen a refusal
    // (the server answers late frames for as long as they keep coming,
    // so it closes only once the writer is quiet) or when the socket
    // errors because the server is gone.
    let (flood, flooding) = channel::<()>();
    let (under_way, flood_under_way) = channel::<()>();
    let refused = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn({
        let refused = Arc::clone(&refused);
        move || {
            let row = [Tensor::from_i64(&[6], &[1]).unwrap()];
            let payload = wire::encode_request(1, 1, &row).unwrap();
            wire::write_frame(&mut write_half, &payload).unwrap();
            let mut sent = 1u64;
            flooding.recv().unwrap();
            while !refused.load(Ordering::SeqCst)
                && wire::write_frame(&mut write_half, &payload).is_ok()
            {
                sent += 1;
                if sent == 64 {
                    under_way.send(()).unwrap();
                }
            }
            sent
        }
    });
    let mut read_half = stream;
    let mut reader = wire::FrameReader::new();
    let mut shutdown_rejects = 0u64;
    let mut served = 0u64;
    let mut shutdown = None;
    // Drain until EOF / reset: every frame the server read got an answer.
    while let Ok(Some(payload)) = reader.next_frame(&mut read_half) {
        match wire::decode(&payload).unwrap() {
            wire::Message::Response(_) => {
                served += 1;
                if served == 1 {
                    flood.send(()).unwrap();
                    flood_under_way.recv().unwrap();
                    let handle = handle.take().unwrap();
                    shutdown = Some(std::thread::spawn(move || handle.shutdown()));
                }
            }
            wire::Message::Reject(rej) => {
                assert_eq!(rej.code, RejectCode::Shutdown, "only Shutdown refusals");
                shutdown_rejects += 1;
                refused.store(true, Ordering::SeqCst);
            }
            wire::Message::Request(_) | wire::Message::Cancel(_) => {
                panic!("server sent a client-only frame")
            }
        }
    }
    let sent = writer.join().unwrap();
    assert!(
        shutdown_rejects > 0,
        "frames sent during shutdown must be refused, not dropped \
         (served {served} of {sent} sent)"
    );
    shutdown
        .expect("a reply was served before the socket closed")
        .join()
        .unwrap();
}

#[test]
fn a_client_that_never_stops_sending_cannot_hold_shutdown_open() {
    // The queue budget bounds what was admitted before the stop flag
    // flipped, so what shutdown must drain is a handful of fib(6).
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_budget: Some(16),
        ..IngressConfig::default()
    });
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut write_half = stream.try_clone().unwrap();
    // Writes frames back to back until the server closes the socket:
    // after the stop flag flips there is never a quiet 10 ms on this
    // connection.
    let writer = std::thread::spawn(move || {
        let row = [Tensor::from_i64(&[6], &[1]).unwrap()];
        let payload = wire::encode_request(1, 1, &row).unwrap();
        let mut sent = 0u64;
        while wire::write_frame(&mut write_half, &payload).is_ok() {
            sent += 1;
        }
        sent
    });
    // Replies are drained and dropped so that TCP backpressure never
    // stalls the server's writes; the first one shows the flood is being
    // served.
    let (first_reply, flood_served) = channel::<()>();
    let reader = std::thread::spawn(move || {
        let mut read_half = stream;
        let mut frames = wire::FrameReader::new();
        let mut replies = 0u64;
        while let Ok(Some(_)) = frames.next_frame(&mut read_half) {
            replies += 1;
            if replies == 1 {
                first_reply.send(()).unwrap();
            }
        }
        replies
    });
    flood_served.recv().unwrap();
    let t0 = std::time::Instant::now();
    let stats = handle.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} under a flood"
    );
    // The socket closed under the writer, and every frame the server
    // answered was a whole frame.
    let sent = writer.join().unwrap();
    let replies = reader.join().unwrap();
    assert!(replies <= sent, "{replies} replies to {sent} requests");
    assert!(stats.completed > 0);
}
