//! End-to-end tests over real loopback TCP: correctness, pipelining,
//! deadline-bounded waits, load shedding, and malformed-input handling.

use std::time::{Duration, Instant};

use autobatch_core::{lower, LoweringOptions};
use autobatch_ingress::wire::{self, RejectCode};
use autobatch_ingress::{IngressClient, IngressConfig, IngressError, IngressServer};
use autobatch_ir::build::fibonacci_program;
use autobatch_tensor::Tensor;

fn fib_server(config: IngressConfig) -> autobatch_ingress::IngressHandle {
    let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
    IngressServer::start(pc, config, "127.0.0.1:0").unwrap()
}

const NS: [i64; 10] = [14, 2, 9, 1, 12, 5, 16, 3, 10, 7];
const FIB: [i64; 10] = [610, 2, 55, 1, 233, 8, 1597, 3, 89, 21];

#[test]
fn pipelined_requests_are_served_correctly_over_tcp() {
    let handle = fib_server(IngressConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    for (id, &n) in NS.iter().enumerate() {
        client
            .send(
                id as u64,
                id as u64,
                &[Tensor::from_i64(&[n], &[1]).unwrap()],
            )
            .unwrap();
    }
    let mut got = vec![None; NS.len()];
    for _ in 0..NS.len() {
        let r = client.recv().unwrap();
        let out = r.outputs[0].as_i64().unwrap()[0];
        got[r.id as usize] = Some(out);
    }
    let got: Vec<i64> = got.into_iter().map(Option::unwrap).collect();
    assert_eq!(got, FIB);
    let stats = handle.shutdown();
    assert_eq!(stats.completed, NS.len() as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.failed, 0);
}

#[test]
fn two_connections_with_colliding_ids_each_get_their_own_answers() {
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        ..IngressConfig::default()
    });
    let mut a = IngressClient::connect(handle.addr()).unwrap();
    let mut b = IngressClient::connect(handle.addr()).unwrap();
    // Both connections use request id 0: the engine must pair replies
    // by connection, not by the caller-chosen id.
    a.send(0, 1, &[Tensor::from_i64(&[9], &[1]).unwrap()])
        .unwrap();
    b.send(0, 2, &[Tensor::from_i64(&[12], &[1]).unwrap()])
        .unwrap();
    let ra = a.recv().unwrap();
    let rb = b.recv().unwrap();
    assert_eq!(ra.id, 0);
    assert_eq!(rb.id, 0);
    assert_eq!(ra.outputs[0].as_i64().unwrap(), &[55]);
    assert_eq!(rb.outputs[0].as_i64().unwrap(), &[233]);
    drop((a, b));
    handle.shutdown();
}

#[test]
fn a_lone_request_launches_at_the_deadline_not_never() {
    // Arrival rate far below batch width: only the deadline can admit.
    let max_wait = Duration::from_millis(40);
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 8,
        max_wait,
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    let t0 = Instant::now();
    let r = client
        .call(0, 0, &[Tensor::from_i64(&[9], &[1]).unwrap()])
        .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(r.outputs[0].as_i64().unwrap(), &[55]);
    // The reply cannot beat the collection deadline, and the recorded
    // queue wait is bounded by the SLO (ticks are nanoseconds; the
    // engine stamps the real arrival and admission times).
    assert!(elapsed >= max_wait, "replied after {elapsed:?}");
    let slack = Duration::from_secs(5); // scheduler noise bound
    assert!(
        r.queued_ticks >= max_wait.as_nanos() as u64
            && r.queued_ticks <= (max_wait + slack).as_nanos() as u64,
        "queued {} ticks against a {:?} SLO",
        r.queued_ticks,
        max_wait
    );
    handle.shutdown();
}

#[test]
fn overload_is_shed_with_a_typed_reject_frame() {
    // Budget 1 on one worker; a long deadline keeps the first request
    // buffered while the next two arrive and must be shed.
    let max_wait = Duration::from_millis(300);
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 8,
        max_wait,
        queue_budget: Some(1),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    for id in 0..3u64 {
        client
            .send(id, id, &[Tensor::from_i64(&[5], &[1]).unwrap()])
            .unwrap();
    }
    let mut served = Vec::new();
    let mut shed = Vec::new();
    for _ in 0..3 {
        match client.recv() {
            Ok(r) => served.push(r),
            Err(IngressError::Rejected(rej)) => shed.push(rej),
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(served.len(), 1, "exactly one request fit the budget");
    assert_eq!(served[0].outputs[0].as_i64().unwrap(), &[8]);
    assert_eq!(shed.len(), 2);
    for rej in &shed {
        assert_eq!(rej.code, RejectCode::Overloaded);
        assert_eq!(rej.budget, 1);
        assert!(rej.depth >= 1);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.shed, 2);
}

#[test]
fn wrong_arity_is_refused_per_request_not_per_connection() {
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    // fib takes one input; send two tensors.
    let t = Tensor::from_i64(&[3], &[1]).unwrap();
    client.send(7, 0, &[t.clone(), t.clone()]).unwrap();
    let err = client.recv().unwrap_err();
    match err {
        IngressError::Rejected(rej) => {
            assert_eq!(rej.id, 7);
            assert_eq!(rej.code, RejectCode::BadRequest);
        }
        other => panic!("unexpected: {other}"),
    }
    // The connection survives: a well-formed request still works.
    let r = client.call(8, 0, &[t]).unwrap();
    assert_eq!(r.outputs[0].as_i64().unwrap(), &[3]);
    handle.shutdown();
}

#[test]
fn statically_invalid_requests_get_an_invalid_reject_on_the_wire() {
    // A request violating the program's statically inferred signature
    // (wrong dtype or wrong element shape) is refused at *submission*
    // with the dedicated `Invalid` code — it never reaches a shard
    // machine — and the connection stays usable for valid traffic.
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    // Correct arity, wrong element shape: fibonacci's input feeds a
    // branch condition, so its element must be scalar.
    let bad_shape = Tensor::from_i64(&[1, 2], &[1, 2]).unwrap();
    match client.call(1, 1, &[bad_shape]).unwrap_err() {
        IngressError::Rejected(rej) => {
            assert_eq!(rej.id, 1);
            assert_eq!(rej.code, RejectCode::Invalid);
        }
        other => panic!("unexpected: {other}"),
    }
    // Correct arity and shape, wrong dtype: fibonacci takes an integer.
    let bad_dtype = Tensor::from_f64(&[9.0], &[1]).unwrap();
    match client.call(2, 2, &[bad_dtype]).unwrap_err() {
        IngressError::Rejected(rej) => {
            assert_eq!(rej.id, 2);
            assert_eq!(rej.code, RejectCode::Invalid);
        }
        other => panic!("unexpected: {other}"),
    }
    // The connection survives: later well-formed requests still serve.
    for (id, n, fib) in [(3u64, 12i64, 233i64), (4, 5, 8)] {
        let r = client
            .call(id, id, &[Tensor::from_i64(&[n], &[1]).unwrap()])
            .unwrap();
        assert_eq!(
            r.outputs[0].as_i64().unwrap(),
            &[fib],
            "server wedged after the static-invalid reject"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.failed, 0);
}

#[test]
fn admission_shape_conflict_rejects_the_offender_without_wedging_the_shard() {
    // A shape-*polymorphic* program admits requests of any element
    // shape through static verification; a payload whose shape
    // conflicts with the spec the shard's first accepted request fixed
    // (the spec its machine's buffers hold) is refused at *submission*
    // with a typed `BadRequest`, before it touches the machine. The
    // engine answers exactly the offender with a typed reject and keeps
    // serving: the only worker is neither poisoned nor wedged.
    use autobatch_ir::build::ProgramBuilder;
    use autobatch_ir::Prim;
    // `y = x; repeat n times { y = y + 1 }` — the branch condition only
    // sees the scalar counter, so `x` may be any element shape.
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("countup", &["n", "x"], &["y"]);
    pb.define(f, |fb| {
        let n = fb.param(0);
        let x = fb.param(1);
        let y = fb.output(0);
        fb.assign(&y, Prim::Id, &[x]);
        let zero = fb.const_i64(0);
        let i = fb.emit(Prim::Id, &[zero]);
        fb.while_loop(
            |fb| fb.emit(Prim::Lt, &[i.clone(), n.clone()]),
            |fb| {
                let one_f = fb.const_f64(1.0);
                fb.assign(&y, Prim::Add, &[y.clone(), one_f]);
                let one_i = fb.const_i64(1);
                fb.assign(&i, Prim::Add, &[i.clone(), one_i]);
            },
        );
        fb.ret();
    });
    let (pc, _) = lower(&pb.finish(f).unwrap(), LoweringOptions::default()).unwrap();
    let handle = IngressServer::start(
        pc,
        IngressConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            ..IngressConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let scalar = |n: i64| {
        vec![
            Tensor::from_i64(&[n], &[1]).unwrap(),
            Tensor::from_f64(&[0.0], &[1]).unwrap(),
        ]
    };
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    // The first accepted request fixes the served payload spec to
    // scalar rows.
    let r = client.call(0, 0, &scalar(9)).unwrap();
    assert_eq!(r.outputs[0].as_f64().unwrap(), &[9.0]);
    // Statically valid (the program is shape-polymorphic), but in
    // conflict with the established spec: refused per-request at
    // submission.
    let offender = vec![
        Tensor::from_i64(&[3], &[1]).unwrap(),
        Tensor::from_f64(&[0.0, 0.0], &[1, 2]).unwrap(),
    ];
    match client.call(1, 1, &offender).unwrap_err() {
        IngressError::Rejected(rej) => {
            assert_eq!(rej.id, 1);
            assert_eq!(rej.code, RejectCode::BadRequest);
        }
        other => panic!("unexpected: {other}"),
    }
    // The shard is not wedged: later well-formed requests still serve.
    for (id, n) in [(2u64, 12i64), (3, 5)] {
        let r = client.call(id, id, &scalar(n)).unwrap();
        assert_eq!(
            r.outputs[0].as_f64().unwrap(),
            &[n as f64],
            "server wedged after the shape-conflict reject"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn garbage_frames_get_a_bad_request_reject() {
    let handle = fib_server(IngressConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // A well-framed but undecodable payload.
    wire::write_frame(&mut stream, &[0x7f, 1, 2, 3]).unwrap();
    let mut reader = wire::FrameReader::new();
    let payload = reader.next_frame(&mut stream).unwrap().unwrap();
    match wire::decode(&payload).unwrap() {
        wire::Message::Reject(rej) => assert_eq!(rej.code, RejectCode::BadRequest),
        other => panic!("unexpected: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn bad_configs_are_refused_at_start() {
    let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
    for config in [
        IngressConfig {
            workers: 0,
            ..IngressConfig::default()
        },
        IngressConfig {
            max_batch: 0,
            ..IngressConfig::default()
        },
        IngressConfig {
            max_wait: Duration::ZERO,
            ..IngressConfig::default()
        },
    ] {
        let err = IngressServer::start(pc.clone(), config, "127.0.0.1:0").unwrap_err();
        assert!(matches!(err, IngressError::Config(_)), "{err}");
    }
}

#[test]
fn idle_shutdown_joins_cleanly() {
    // The acceptor blocks in `accept()`; shutdown wakes it by connecting
    // to its own port — over loopback when the bind address is the
    // unspecified one. A wake-up that missed would hang this test.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let handle = IngressServer::start(pc, IngressConfig::default(), addr).unwrap();
        // An open, silent connection must not hold shutdown up either.
        let idle = IngressClient::connect(("127.0.0.1", handle.addr().port())).unwrap();
        let t0 = Instant::now();
        let stats = handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "idle shutdown on {addr} took {:?}",
            t0.elapsed()
        );
        assert_eq!(stats.completed, 0);
        drop(idle);
    }
}

#[test]
fn a_lone_call_costs_the_deadline_and_a_round_trip_not_a_delayed_ack() {
    // One request at a time on an idle server: each waits out `max_wait`
    // (2 ms) and then a batch of one runs. Two writes per frame, or a
    // socket with Nagle on at either end, adds the peer's 40 ms delayed
    // ACK each way.
    let handle = fib_server(IngressConfig {
        max_wait: Duration::from_millis(2),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    let row = [Tensor::from_i64(&[6], &[1]).unwrap()];
    let mut took: Vec<Duration> = (0..9)
        .map(|id| {
            // Let the last call's drive end: a request that arrives
            // while the fleet still runs joins it without waiting.
            std::thread::sleep(Duration::from_millis(5));
            let t0 = Instant::now();
            let r = client.call(id, id, &row).unwrap();
            assert_eq!(r.outputs[0].as_i64().unwrap(), &[13]);
            t0.elapsed()
        })
        .collect();
    took.sort();
    assert!(
        took[4] < Duration::from_millis(20),
        "median lone call took {:?} (all: {took:?})",
        took[4]
    );
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 9);
    // The fleet is idle between calls: each call starts a drive of its
    // own, and its one reply leaves in one write.
    assert_eq!(stats.flushes, 9, "one request, one drive");
    assert_eq!(stats.reply_writes, 9, "one reply, one write");
    // fib(6) is 25 calls deep in recursion: well over one superstep a
    // request, and the same count on every run.
    assert!(stats.supersteps > 9 * 25, "{} supersteps", stats.supersteps);
}

#[test]
fn a_shallow_request_is_not_held_behind_a_running_straggler() {
    // An idle 2-worker fleet starts a drive for one deep request. A
    // shallow request that arrives while it runs joins the running
    // fleet on the other shard and is answered when it retires — not
    // when the straggler's drive ends.
    let max_wait = Duration::from_millis(2);
    let handle = fib_server(IngressConfig {
        workers: 2,
        max_batch: 4,
        max_wait,
        ..IngressConfig::default()
    });
    let row = |n: i64| [Tensor::from_i64(&[n], &[1]).unwrap()];
    let mut deep = IngressClient::connect(handle.addr()).unwrap();
    let mut shallow = IngressClient::connect(handle.addr()).unwrap();
    let t0 = Instant::now();
    deep.send(0, 0, &row(25)).unwrap();
    let straggler = std::thread::spawn(move || {
        let r = deep.recv().unwrap();
        (r.outputs[0].as_i64().unwrap()[0], t0.elapsed())
    });
    // The straggler's drive has started by now.
    std::thread::sleep(max_wait + Duration::from_millis(20));
    let r = shallow.call(1, 1, &row(3)).unwrap();
    let shallow_at = t0.elapsed();
    assert_eq!(r.outputs[0].as_i64().unwrap(), &[3]);
    let (fib25, deep_at) = straggler.join().unwrap();
    assert_eq!(fib25, 121_393);
    assert!(
        deep_at >= Duration::from_millis(100),
        "the straggler must run for a while: {deep_at:?}"
    );
    assert!(
        shallow_at < deep_at,
        "the shallow reply waited for the straggler: {shallow_at:?} against {deep_at:?}"
    );
    let stats = handle.shutdown();
    assert_eq!(
        (stats.completed, stats.flushes),
        (2, 1),
        "one drive served both"
    );
}

#[test]
fn read_ahead_is_bounded_in_requests_and_every_reply_is_right() {
    // A client pipelines 200,000 requests of 8-byte inputs, far fewer
    // bytes than the read-ahead bound, while a second thread reads the
    // replies: the connection stops reading at a fixed number of
    // decoded requests, and every one is still answered correctly.
    const N: u64 = 200_000;
    let handle = fib_server(IngressConfig::default());
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // If the reading side fails, the server stops reading too: the
    // writer must then fail rather than block for good.
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reading = stream.try_clone().unwrap();
    let replies = std::thread::spawn(move || {
        let mut reader = wire::FrameReader::new();
        let mut seen = vec![false; N as usize];
        for _ in 0..N {
            let payload = reader.next_frame(&mut reading).unwrap().unwrap();
            match wire::decode(&payload).unwrap() {
                wire::Message::Response(r) => {
                    // fib(n) for n = id % 8.
                    let want = [1, 1, 2, 3, 5, 8, 13, 21][(r.id % 8) as usize];
                    assert_eq!(r.outputs[0].as_i64().unwrap(), &[want], "reply {}", r.id);
                    assert!(!seen[r.id as usize], "reply {} twice", r.id);
                    seen[r.id as usize] = true;
                }
                other => panic!("expected a response, got {other:?}"),
            }
        }
    });
    let mut writer = std::io::BufWriter::new(stream);
    for id in 0..N {
        let n = (id % 8) as i64;
        let payload =
            wire::encode_request(id, id, &[Tensor::from_i64(&[n], &[1]).unwrap()]).unwrap();
        wire::write_frame(&mut writer, &payload).unwrap();
    }
    drop(writer.into_inner().unwrap());
    replies.join().unwrap();
    let stats = handle.shutdown();
    assert_eq!(stats.completed, N);
    assert!(
        stats.peak_buffered <= 2048,
        "{} decoded requests waited at once",
        stats.peak_buffered
    );
}

#[test]
fn read_ahead_is_bounded_in_bytes_and_nothing_is_lost_to_it() {
    // Forty pipelined requests of 64 KiB each, against an engine that
    // only flushes at its 50 ms deadline: the connection stops reading
    // at 1 MiB of decoded inputs (sixteen of these), the rest wait in
    // the socket, and each flush lets the next sixteen in. Their shape
    // is wrong for fib, so every one is answered with a typed reject —
    // what matters here is that all forty are answered.
    let handle = fib_server(IngressConfig {
        workers: 1,
        max_batch: 64,
        max_wait: Duration::from_millis(50),
        ..IngressConfig::default()
    });
    let mut client = IngressClient::connect(handle.addr()).unwrap();
    let wide = [Tensor::from_f64(&vec![0.0; 8192], &[1, 8192]).unwrap()];
    for id in 0..40 {
        client.send(id, id, &wide).unwrap();
    }
    let mut answered: Vec<u64> = (0..40)
        .map(|_| match client.recv() {
            Err(IngressError::Rejected(r)) => {
                assert_eq!(r.code, RejectCode::Invalid, "{r}");
                r.id
            }
            other => panic!("expected an Invalid reject, got {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (0..40).collect::<Vec<u64>>());
    let stats = handle.shutdown();
    assert_eq!(stats.rejected, 40);
    assert!(
        stats.peak_buffered <= 16,
        "{} requests of 64 KiB were buffered at once",
        stats.peak_buffered
    );
}
