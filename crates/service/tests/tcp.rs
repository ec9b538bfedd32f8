//! End-to-end tests of the TCP front end: concurrent clients over real
//! sockets, model verification, stats, eviction, daemon shutdown, and
//! pipelined (tagged, out-of-order) sessions on the epoll reactor.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use lwsnap_service::{
    protocol, Disconnected, PipelinedClient, Request, Response, Server, ServiceConfig,
    ShardedService, SolverBackend,
};

/// One blocking `Solve` exchange on wire ids, returning whatever the
/// server answered (`Solved` or `Error`).
fn solve(client: &PipelinedClient, parent: u64, clauses: &[Vec<i64>]) -> Response {
    client
        .call(&Request::Solve {
            parent,
            clauses: clauses.to_vec(),
        })
        .unwrap()
}

/// The server's complaint about a request, or a panic if it had none.
fn error_of(response: Response) -> String {
    match response {
        Response::Error(msg) => msg,
        other => panic!("expected an error response, got {other:?}"),
    }
}

fn assert_model_satisfies(model: &[bool], stack: &[Vec<i64>]) {
    assert!(
        lwsnap_solver::model_satisfies(&protocol::clauses_to_lits(stack), model),
        "stack {stack:?} unsatisfied by {model:?}"
    );
}

#[test]
fn tcp_session_roundtrip_with_verification() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(4), 2).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4u64)
        .map(|session| {
            std::thread::spawn(move || {
                let client = PipelinedClient::connect(addr).unwrap();
                let root = client.session_root(session).unwrap().to_wire();
                let mut stack: Vec<Vec<i64>> = Vec::new();
                let mut cur = root;
                for step in 0..5 {
                    // A chain of satisfiable constraints unique per session.
                    let v = (session * 5 + step + 1) as i64;
                    let clauses = vec![vec![v, v + 1], vec![-v, v + 1]];
                    stack.extend(clauses.clone());
                    let Response::Solved {
                        problem,
                        sat,
                        model,
                        ..
                    } = solve(&client, cur, &clauses)
                    else {
                        panic!("expected Solved");
                    };
                    assert!(sat, "chain stays satisfiable");
                    assert_model_satisfies(&model.unwrap(), &stack);
                    cur = problem;
                }
                cur
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let client = PipelinedClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.queries, 20, "4 sessions × 5 queries");
    assert_eq!(stats.rederivations, 0, "no eviction configured");

    let final_stats = client.shutdown_server().unwrap();
    assert_eq!(final_stats.queries, 20);
    let worker_stats = server.wait();
    assert_eq!(worker_stats.len(), 2);
    assert_eq!(worker_stats.iter().map(|w| w.jobs).sum::<u64>(), 20);
}

#[test]
fn tcp_surfaces_dead_references_and_eviction() {
    let config = ServiceConfig::new(2).with_snapshot_budget(1);
    let server = Server::start("127.0.0.1:0", config, 2).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();

    let root = client.session_root(7).unwrap().to_wire();
    // March a chain past the budget so early nodes get evicted.
    let mut refs = vec![root];
    let mut cur = root;
    for v in 1..=5i64 {
        let Response::Solved { problem, sat, .. } = solve(&client, cur, &[vec![v]]) else {
            panic!("expected Solved");
        };
        assert!(sat);
        refs.push(problem);
        cur = problem;
    }
    // Query an early (evicted) node: still answers, flags the replay.
    let Response::Solved { sat, rederived, .. } = solve(&client, refs[1], &[vec![6]]) else {
        panic!("expected Solved");
    };
    assert!(sat);
    assert!(rederived, "early node was evicted and replayed");
    let stats = client.stats().unwrap();
    assert!(stats.evictions > 0);
    assert!(stats.rederivations > 0);
    assert!(stats.replayed_clauses > 0);

    // A wire id naming a shard the service does not have is a decode
    // error (satellite: no silent acceptance of arbitrary u64s); one
    // naming a different cluster NODE is the typed routing error ...
    let release = |problem: u64| client.call(&Request::Release { problem }).unwrap();
    let bad_shard = 0xbeefu64 << 32 | 1; // node 0, shard 0xbeef
    let err = error_of(release(bad_shard));
    assert!(err.contains("shard index"), "expected BadShard, got: {err}");
    let err = error_of(solve(&client, bad_shard, &[vec![1]]));
    assert!(err.contains("shard index"));
    let err = error_of(release(0xdead_beef_0000_0001));
    assert!(
        err.contains("routed to node 57005"),
        "expected WrongNode, got: {err}"
    );
    let err = error_of(solve(&client, 0xdead_beef_0000_0001, &[vec![1]]));
    assert!(err.contains("this is node 0"));
    // ... while releasing an in-range-but-dead id stays harmless and
    // idempotent.
    assert_eq!(release((1u64 << 32) | 0xbeef), Response::Released);
    assert_eq!(release(refs[2]), Response::Released);
    let err = error_of(solve(&client, refs[2], &[vec![9]]));
    assert!(err.contains("dead or unknown"), "dead reference: {err}");

    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_client_completes_out_of_order_submissions() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(8), 4).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    let root = client.session_root(3).unwrap();

    // Submit a window of independent solves, then wait in REVERSE
    // order: completions must match their tickets, not arrival order.
    let lits = |v: i64| vec![vec![lwsnap_solver::Lit::from_dimacs(v)]];
    let tickets: Vec<_> = (1..=8i64)
        .map(|v| client.submit(root, lits(v)).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate().rev() {
        let reply = client.wait(ticket).unwrap().expect("live root");
        assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
        let model = reply.model.unwrap();
        assert!(model[i], "reply {i} answers its own query");
    }
    // Dead references answer None through the trait, like in-process.
    let dead = client.submit(root, lits(1)).unwrap();
    let alive = client.wait(dead).unwrap().unwrap();
    client.release(alive.problem).unwrap();
    let gone = client.submit(alive.problem, lits(2)).unwrap();
    assert!(client.wait(gone).unwrap().is_none());

    // 8 window solves + 1 live solve; the dead-reference attempt never
    // reaches a solver.
    assert_eq!(client.stats().unwrap().queries, 9);
    client.shutdown_server().unwrap();
    server.wait();
}

/// The acceptance bar: ≥ 64 concurrent pipelined sessions multiplexed
/// on ONE reactor thread, each keeping a depth-8 window in flight, all
/// models verified.
#[test]
fn sixty_four_pipelined_sessions_on_one_reactor() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(16), 4).unwrap();
    let addr = server.local_addr();
    const SESSIONS: u64 = 64;
    const DEPTH: i64 = 8;

    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            std::thread::spawn(move || {
                let client = PipelinedClient::connect(addr).unwrap();
                let root = client.session_root(session).unwrap();
                // Depth-8 pipelined window of independent constraints.
                let tickets: Vec<_> = (0..DEPTH)
                    .map(|step| {
                        let v = (session as i64 * DEPTH + step) % 50 + 1;
                        let clauses = vec![
                            vec![lwsnap_solver::Lit::from_dimacs(v)],
                            vec![
                                lwsnap_solver::Lit::from_dimacs(-v),
                                lwsnap_solver::Lit::from_dimacs(v + 1),
                            ],
                        ];
                        (v, client.submit(root, clauses).unwrap())
                    })
                    .collect();
                for (v, ticket) in tickets {
                    let reply = client.wait(ticket).unwrap().expect("live root");
                    assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
                    let model = reply.model.unwrap();
                    let idx = (v - 1) as usize;
                    assert!(model[idx] && model[idx + 1], "v{v} and v{} set", v + 1);
                    client.release(reply.problem).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let probe = PipelinedClient::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.queries, SESSIONS * DEPTH as u64);
    probe.shutdown_server().unwrap();
    server.wait();
}

/// Backpressure regression: a single connection pipelines far more
/// requests than the server's per-connection in-flight cap (1024); the
/// reactor must throttle reads mid-burst and resume from its buffered
/// bytes as completions free capacity — every request still answers.
#[test]
fn overdriven_pipeline_is_throttled_not_dropped() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(8), 4).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    let root = client.session_root(5).unwrap();
    const BURST: usize = 3000;
    let tickets: Vec<_> = (0..BURST)
        .map(|i| {
            let v = (i % 60 + 1) as i64;
            client
                .submit(root, vec![vec![lwsnap_solver::Lit::from_dimacs(v)]])
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        let reply = client.wait(ticket).unwrap().expect("live root");
        assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
    }
    assert_eq!(client.stats().unwrap().queries, BURST as u64);
    client.shutdown_server().unwrap();
    server.wait();
}

/// `solve_batch` on a pipelined connection corks the whole window —
/// every submit buffers its frame, the first wait flushes them all —
/// and still answers in request order with correct per-request
/// replies.
#[test]
fn corked_batch_answers_in_request_order() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(8), 4).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    let root = client.session_root(9).unwrap();
    let lits = |v: i64| vec![vec![lwsnap_solver::Lit::from_dimacs(v)]];
    let requests: Vec<_> = (1..=32i64).map(|v| (root, lits(v))).collect();
    let replies = SolverBackend::solve_batch(&client, requests).unwrap();
    assert_eq!(replies.len(), 32);
    for (i, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().expect("live root");
        assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
        assert!(
            reply.model.as_ref().unwrap()[i],
            "reply {i} answers v{}",
            i + 1
        );
    }
    // A dead reference inside a corked window answers None in place.
    let dead = replies[0].as_ref().unwrap().problem;
    client.release(dead).unwrap();
    let mixed = SolverBackend::solve_batch(
        &client,
        vec![(root, lits(40)), (dead, lits(41)), (root, lits(42))],
    )
    .unwrap();
    assert!(mixed[0].is_some());
    assert!(mixed[1].is_none(), "dead reference answers None in order");
    assert!(mixed[2].is_some());
    client.shutdown_server().unwrap();
    server.wait();
}

/// Submits cork: eight `submit_request`s put no byte on the socket,
/// and the first `wait_response` flushes all eight frames at once.
#[test]
fn submits_stay_corked_until_a_wait() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (submitted_tx, submitted_rx) = std::sync::mpsc::channel::<()>();
    let (silent_tx, silent_rx) = std::sync::mpsc::channel::<bool>();
    let srv = std::thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        submitted_rx.recv().unwrap();
        // Nothing may arrive while the client has not waited.
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut probe = [0u8; 1];
        let silent = matches!(
            (&s).read(&mut probe),
            Err(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        );
        silent_tx.send(silent).unwrap();
        // Read all eight frames before answering any, so the first
        // wait returns only if its flush delivered the whole window.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(&s);
        let tags: Vec<u64> = (0..8)
            .map(|_| protocol::read_any_frame(&mut reader).unwrap().unwrap().tag)
            .collect();
        let mut writer = &s;
        for &tag in &tags {
            protocol::write_tagged_frame(&mut writer, tag, &Response::Released.encode()).unwrap();
        }
        tags
    });
    let client = PipelinedClient::connect(addr).unwrap();
    let tags: Vec<u64> = (0..8)
        .map(|_| client.submit_request(&Request::Stats).unwrap())
        .collect();
    submitted_tx.send(()).unwrap();
    assert!(
        silent_rx.recv().unwrap(),
        "a submit reached the socket before any wait"
    );
    assert!(matches!(
        client.wait_response(tags[0]).unwrap(),
        Response::Released
    ));
    assert_eq!(srv.join().unwrap(), tags, "one wait delivered every frame");
    for &tag in &tags[1..] {
        assert!(matches!(
            client.wait_response(tag).unwrap(),
            Response::Released
        ));
    }
}

/// A release is fire-and-forget: it reaches the server with no later
/// call on the client to flush it.
#[test]
fn a_release_is_sent_without_a_wait() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(2), 1).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    let root = client.session_root(4).unwrap();
    let reply = client
        .solve(root, vec![vec![lwsnap_solver::Lit::from_dimacs(1)]])
        .unwrap()
        .expect("live root");
    let live = server.stats().live_problems;
    client.release(reply.problem).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().live_problems >= live {
        assert!(
            std::time::Instant::now() < deadline,
            "the release never reached the server"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

/// Threads sharing one client each get their own replies: four threads
/// submit a window of 16 solves apiece and wait in reverse order, so
/// one reads the socket for all while the others park.
#[test]
fn threads_sharing_a_client_get_their_own_replies() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(4), 2).unwrap();
    let client = Arc::new(PipelinedClient::connect(server.local_addr()).unwrap());
    let root = client.session_root(6).unwrap();
    let threads: Vec<_> = (0..4i64)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let vars: Vec<i64> = (1..=16).map(|i| t * 16 + i).collect();
                let tickets: Vec<_> = vars
                    .iter()
                    .map(|&v| {
                        client
                            .submit(root, vec![vec![lwsnap_solver::Lit::from_dimacs(v)]])
                            .unwrap()
                    })
                    .collect();
                for (&v, ticket) in vars.iter().zip(tickets).rev() {
                    let reply = client.wait(ticket).unwrap().expect("live root");
                    assert_eq!(reply.result, lwsnap_solver::SolveResult::Sat);
                    assert!(
                        reply.model.unwrap()[v as usize - 1],
                        "thread {t}: reply answers x{v}"
                    );
                }
            })
        })
        .collect();
    // Bounded: a lost wake-up parks a thread forever.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for thread in threads {
            thread.join().unwrap();
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("every thread got its replies");
    assert_eq!(client.stats().unwrap().queries, 64);
    client.shutdown_server().unwrap();
    server.wait();
}

/// The waiter that reads the socket wakes a parked one, and a lone
/// parked waiter is enough: two threads wait on one client, and the
/// server answers the second request first. Whichever thread reads,
/// the other must be woken — to take its filed reply, or to take the
/// socket over once the reader returns.
#[test]
fn a_lone_parked_waiter_is_woken() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let srv = std::thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(&s);
        let first = protocol::read_any_frame(&mut reader).unwrap().unwrap().tag;
        let second = protocol::read_any_frame(&mut reader).unwrap().unwrap().tag;
        go_rx.recv().unwrap();
        let mut writer = &s;
        for tag in [second, first] {
            protocol::write_tagged_frame(&mut writer, tag, &Response::Released.encode()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        // Hold the connection open until the test ends: a lost
        // wake-up must show as a parked thread, not as an
        // end-of-stream error.
        let _ = go_rx.recv();
    });
    let client = Arc::new(PipelinedClient::connect(addr).unwrap());
    let tags = [
        client.submit_request(&Request::Stats).unwrap(),
        client.submit_request(&Request::Stats).unwrap(),
    ];
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for tag in tags {
        let (client, done_tx) = (Arc::clone(&client), done_tx.clone());
        std::thread::spawn(move || {
            let reply = client.wait_response(tag);
            done_tx.send((tag, reply.is_ok())).unwrap();
        });
    }
    // Let one thread start reading and the other park. Nothing outside
    // the client can see that state, so this is a pause: if it is too
    // short the case goes untested, but the verdict is never wrong.
    std::thread::sleep(Duration::from_millis(200));
    go_tx.send(()).unwrap();
    for _ in tags {
        let (tag, ok) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("both waiters return");
        assert!(ok, "tag {tag} got its reply");
    }
    drop(go_tx);
    srv.join().unwrap();
}

/// A parked waiter gets the reader's error: two threads wait on one
/// client, and the server reads both requests and closes without
/// answering. The reader sees the close; the other waiter must be woken
/// to return the same typed error instead of parking forever.
#[test]
fn a_parked_waiter_gets_the_readers_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let srv = std::thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(&s);
        for _ in 0..2 {
            protocol::read_any_frame(&mut reader).unwrap().unwrap();
        }
        go_rx.recv().unwrap();
        // Dropping the stream closes it cleanly between frames.
    });
    let client = Arc::new(PipelinedClient::connect(addr).unwrap());
    let tags = [
        client.submit_request(&Request::Stats).unwrap(),
        client.submit_request(&Request::Stats).unwrap(),
    ];
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for tag in tags {
        let (client, done_tx) = (Arc::clone(&client), done_tx.clone());
        std::thread::spawn(move || {
            done_tx.send((tag, client.wait_response(tag))).unwrap();
        });
    }
    // Let one thread start reading and the other park. As in
    // `a_lone_parked_waiter_is_woken`, too short a pause leaves the
    // case untested but never gives a wrong verdict.
    std::thread::sleep(Duration::from_millis(200));
    go_tx.send(()).unwrap();
    for _ in tags {
        let (tag, reply) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("both waiters return");
        let err = reply.expect_err("the server answered nothing");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::ConnectionAborted,
            "tag {tag}"
        );
        assert!(
            err.get_ref().is_some_and(|e| e.is::<Disconnected>()),
            "tag {tag} gets the typed Disconnected error: {err:?}"
        );
    }
    srv.join().unwrap();
}

/// Satellite: a clean server close between frames is the typed
/// [`Disconnected`] error; a stream dying mid-frame is `UnexpectedEof`.
#[test]
fn clean_disconnect_and_truncation_are_distinct_errors() {
    // Fake server 1: reads the request, closes cleanly at the boundary.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf); // swallow the request, reply nothing
                                  // drop(s): clean FIN between frames
    });
    let client = PipelinedClient::connect(addr).unwrap();
    let err = client.call(&Request::Stats).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    assert!(
        err.get_ref().is_some_and(|e| e.is::<Disconnected>()),
        "clean close carries the typed Disconnected payload: {err:?}"
    );
    srv.join().unwrap();

    // Fake server 2: replies with a truncated frame, then closes.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf);
        // 16-byte frame promised, 2 bytes delivered.
        let mut partial = (16u32 | protocol::TAGGED).to_le_bytes().to_vec();
        partial.extend_from_slice(&[1, 2]);
        s.write_all(&partial).unwrap();
    });
    let client = PipelinedClient::connect(addr).unwrap();
    let err = client.call(&Request::Stats).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        err.get_ref().is_none_or(|e| !e.is::<Disconnected>()),
        "truncation must NOT look like a clean disconnect"
    );
    srv.join().unwrap();
}

/// Satellite: the client read timeout bounds a call against a hung
/// server instead of blocking forever.
#[test]
fn client_read_timeout_detects_hung_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // Read the request and then just sit on it.
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf);
        std::thread::sleep(Duration::from_millis(400));
    });
    let client = PipelinedClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let start = std::time::Instant::now();
    let err = client.call(&Request::Stats).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "timeout error, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_millis(350), "bounded wait");
    srv.join().unwrap();
}

/// A garbage header on the wire — an absurd length, or a header
/// without the tagged bit (what a pre-tagging client would send) —
/// gets an error response on the connection-level tag and the
/// connection is closed; the reactor must not wedge or crash.
#[test]
fn framing_garbage_gets_an_error_then_close() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::new(2), 1).unwrap();
    let stats = Request::Stats.encode();
    let mut untagged = (stats.len() as u32).to_le_bytes().to_vec();
    untagged.extend_from_slice(&stats);
    for (garbage, diagnosis) in [
        // Length prefix far beyond MAX_FRAME.
        (u32::MAX.to_le_bytes().to_vec(), "length"),
        // A well-formed frame of the pre-tagging protocol: bit 31 clear.
        (untagged, "untagged"),
    ] {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&garbage).unwrap();
        let mut response = Vec::new();
        raw.read_to_end(&mut response).unwrap(); // server closes after the error frame
        let mut r = response.as_slice();
        let frame = protocol::read_any_frame(&mut r)
            .unwrap()
            .expect("error frame");
        assert_eq!(frame.tag, protocol::CONNECTION_TAG);
        let msg = error_of(Response::decode(&frame.payload).unwrap());
        assert!(msg.contains(diagnosis), "framing diagnosis: {msg}");
        assert!(r.is_empty(), "one error frame, then close");
    }
    // The server is still healthy for well-formed clients.
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().queries, 0);
    server.shutdown();
}

#[test]
fn server_over_existing_service_shares_state() {
    let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
    // Pre-populate in-process, then read through TCP.
    let root = service.session_root(3);
    let reply = service
        .solve(root, &[vec![lwsnap_solver::Lit::from_dimacs(1)]])
        .unwrap();
    let server = Server::serve("127.0.0.1:0", Arc::clone(&service), 1).unwrap();
    let client = PipelinedClient::connect(server.local_addr()).unwrap();
    let Response::Solved { sat, model, .. } = solve(&client, reply.problem.to_wire(), &[vec![2]])
    else {
        panic!("expected Solved");
    };
    assert!(sat);
    let model = model.unwrap();
    assert!(
        model[0] && model[1],
        "both in-process and TCP constraints hold"
    );
    assert_eq!(client.stats().unwrap().queries, 2);
    server.shutdown();
}
