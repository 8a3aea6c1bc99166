//! Protocol error paths: every way a client can misbehave must produce
//! a typed error frame (or a clean close), never a panic, and must
//! leave the daemon serving other traffic.

mod support;

use copack_io::TuneProfile;
use copack_serve::{encode_request, ErrorKind, JobSpec, Request, Response, ServeConfig};
use std::io::Write as _;
use std::net::TcpStream;
use support::{circuit_text, TestServer};

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    }
}

/// Decodes a raw response line and asserts it is a typed error of the
/// given kind.
fn assert_error_frame(line: &str, kind: ErrorKind) {
    match copack_serve::decode_response(line).expect("response frame decodes") {
        Response::Error(e) => assert_eq!(e.kind, kind, "message: {}", e.message),
        other => panic!("expected a {kind:?} error, got {other:?}"),
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = TestServer::start(quick_config());
    let mut client = server.client();

    // Not JSON at all.
    let line = client.raw(b"this is not json\n").expect("a response");
    assert_error_frame(&line, ErrorKind::BadFrame);

    // JSON, but not an object.
    let line = client.raw(b"[1,2,3]\n").expect("a response");
    assert_error_frame(&line, ErrorKind::BadFrame);

    // Not UTF-8.
    let line = client
        .raw(b"\xff\xfe{\"op\":\"status\"}\n")
        .expect("a response");
    assert_error_frame(&line, ErrorKind::BadFrame);

    // The same connection still serves valid requests afterwards.
    let status = client.status().expect("connection survived the garbage");
    assert_eq!(status.submitted, 0);

    server.shutdown_and_join();
}

#[test]
fn bad_requests_are_distinguished_from_bad_frames() {
    let server = TestServer::start(quick_config());
    let mut client = server.client();

    // Well-formed JSON, unknown op.
    let line = client.raw(b"{\"op\":\"levitate\"}\n").expect("a response");
    assert_error_frame(&line, ErrorKind::BadRequest);

    // A plan whose circuit text does not parse.
    let err = client
        .plan(&JobSpec::new("this is not a circuit"))
        .expect_err("bad circuit is rejected");
    assert_eq!(err.kind, ErrorKind::BadRequest);

    // A plan with an out-of-range parameter.
    let line = client
        .raw(b"{\"op\":\"plan\",\"circuit\":\"x\",\"psi\":0}\n")
        .expect("a response");
    assert_error_frame(&line, ErrorKind::BadRequest);

    // A portfolio mode that does not exist (`temper` did once) is
    // refused, and the refusal names the modes that do.
    let line = client
        .raw(b"{\"op\":\"plan\",\"circuit\":\"x\",\"starts\":4,\"mode\":\"temper\"}\n")
        .expect("a response");
    assert_error_frame(&line, ErrorKind::BadRequest);
    assert!(line.contains("race") && line.contains("coop"), "{line}");

    // Tunable values no planner accepts are refused as they decode,
    // before a cache key or a queue slot.
    let multi = JobSpec {
        exchange: true,
        starts: 2,
        ..JobSpec::new(circuit_text(1))
    };
    for (field, spec) in [
        (
            "prune_margin_bits",
            JobSpec {
                prune_margin_bits: f64::NAN.to_bits(),
                ..multi.clone()
            },
        ),
        (
            "margin_bits",
            JobSpec {
                margin_bits: (-1.0f64).to_bits(),
                ..multi.clone()
            },
        ),
    ] {
        let frame = encode_request(&Request::Plan(spec)) + "\n";
        let line = client.raw(frame.as_bytes()).expect("a response");
        assert_error_frame(&line, ErrorKind::BadRequest);
        assert!(line.contains(&format!("`{field}`")), "{line}");
    }

    let summary = server.shutdown_and_join();
    // The unparsable circuit was counted but nothing ever executed.
    assert_eq!(summary.status.submitted, 1);
    assert_eq!(summary.status.completed, 0);
}

#[test]
fn a_profile_job_that_sets_a_replaced_tunable_is_a_bad_request() {
    let server = TestServer::start(ServeConfig {
        profile: Some(TuneProfile {
            seed: 1,
            space_fingerprint: 1,
            classes: Vec::new(),
        }),
        ..quick_config()
    });
    let mut client = server.client();
    let profiled = JobSpec {
        exchange: true,
        profile: true,
        ..JobSpec::new(circuit_text(1))
    };
    let frame = encode_request(&Request::Plan(profiled.clone()));
    // Each tunable the profile replaces, set on the wire beside it.
    for (field, value) in [
        ("starts", "8".to_owned()),
        ("prune_margin_bits", 0.5f64.to_bits().to_string()),
        ("mode", "\"coop\"".to_owned()),
        ("kick_size", "3".to_owned()),
        ("margin_bits", 0.5f64.to_bits().to_string()),
    ] {
        let line = frame.replacen(
            "\"profile\":true",
            &format!("\"profile\":true,\"{field}\":{value}"),
            1,
        ) + "\n";
        match copack_serve::decode_response(&client.raw(line.as_bytes()).expect("a response")) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.kind, ErrorKind::BadRequest, "{field}: {}", e.message);
                assert!(e.message.contains(&format!("`{field}`")), "{}", e.message);
            }
            other => panic!("{field}: expected a bad request, got {other:?}"),
        }
    }
    // The same job without them plans under the profile.
    client.plan(&profiled).expect("a plain profile job plans");

    let summary = server.shutdown_and_join();
    assert_eq!(summary.status.completed, 1);
}

#[test]
fn oversized_frames_are_rejected_without_killing_the_connection() {
    let server = TestServer::start(quick_config());
    let mut client = server.client();

    let mut frame = vec![b'x'; copack_serve::MAX_FRAME + 1];
    frame.push(b'\n');
    let line = client.raw(&frame).expect("a response");
    assert_error_frame(&line, ErrorKind::Oversized);

    // The next frame on the same connection is served normally.
    let status = client.status().expect("connection survived the flood");
    assert!(!status.shutting_down);

    server.shutdown_and_join();
}

#[test]
fn a_mid_frame_disconnect_does_not_take_the_daemon_down() {
    let server = TestServer::start(quick_config());

    // Write half a frame and slam the connection.
    {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .write_all(b"{\"op\":\"plan\",\"circ")
            .expect("partial write");
        // Dropped here without a newline.
    }

    // A fresh connection still gets full service, including real work.
    let mut client = server.client();
    let plan = client
        .plan(&JobSpec::new(circuit_text(1)))
        .expect("daemon still plans after a peer vanished mid-frame");
    assert_eq!(plan.cache, "miss");

    let summary = server.shutdown_and_join();
    assert_eq!(summary.status.completed, 1);
}

#[test]
fn double_shutdown_on_one_connection_is_a_typed_error() {
    let server = TestServer::start(quick_config());
    let mut client = server.client();

    client.shutdown().expect("first shutdown is acknowledged");
    let err = client
        .shutdown()
        .expect_err("second shutdown is refused, not dropped");
    assert_eq!(err.kind, ErrorKind::ShuttingDown);

    drop(client);
    server.join();
}

#[test]
fn requests_on_a_pre_opened_connection_during_drain_get_typed_errors() {
    let server = TestServer::start(quick_config());
    // Open BEFORE the shutdown so the daemon already owns the socket.
    let mut bystander = server.client();
    let mut closer = server.client();

    closer.shutdown().expect("shutdown acknowledged");

    // The bystander's next requests land in the grace window: typed
    // `shutting_down` errors, not a slammed socket.
    let err = bystander
        .plan(&JobSpec::new(circuit_text(1)))
        .expect_err("no new jobs during drain");
    assert_eq!(err.kind, ErrorKind::ShuttingDown);
    let err = bystander.shutdown().expect_err("already draining");
    assert_eq!(err.kind, ErrorKind::ShuttingDown);

    drop(bystander);
    drop(closer);
    let summary = server.join();
    assert!(summary.status.shutting_down);
}

#[test]
fn unknown_ops_do_not_disturb_concurrent_valid_traffic() {
    let server = TestServer::start(quick_config());
    let mut noisy = server.client();
    let mut polite = server.client();

    for _ in 0..5 {
        let line = noisy.raw(b"{\"op\":\"nope\"}\n").expect("a response");
        assert_error_frame(&line, ErrorKind::BadRequest);
        let plan = polite
            .plan(&JobSpec::new(circuit_text(1)))
            .expect("valid traffic unaffected");
        assert!(matches!(plan.cache.as_str(), "miss" | "hit"));
    }
    // Round-trip symmetry sanity: a request the client would send is
    // decodable by the server-side codec.
    let encoded = copack_serve::encode_request(&Request::Status);
    assert!(copack_serve::decode_request(&encoded).is_ok());

    let summary = server.shutdown_and_join();
    assert_eq!(summary.status.completed, 1, "four of five plans were hits");
    assert_eq!(summary.status.cache_hits, 4);
}
