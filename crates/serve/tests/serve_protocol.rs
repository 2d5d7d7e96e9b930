//! Protocol abuse against a *live* daemon: truncated frames, version skew,
//! oversized length claims, and systematic byte flips. Every case must end
//! in a typed reject or a clean close — never a panic, never a hang — and
//! the daemon must keep answering fresh connections afterwards.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{b0, retire_tier, scratch, spec_one, ServerProc};
use fast_core::{Fidelity, SurrogateTier};
use fast_serve::{
    read_frame, write_frame, ClientError, FrameError, ListenAddr, RejectReason, Request, Response,
    MAGIC, VERSION,
};
use serde::bin::{Encode, Writer};

/// A raw TCP connection to the daemon, bypassing [`fast_serve::Client`] so
/// tests can speak the protocol wrong on purpose. Reads are bounded: a
/// server that stops answering fails the test instead of wedging it.
fn raw_conn(server: &ServerProc) -> TcpStream {
    let ListenAddr::Tcp(addr) = &server.addr else { panic!("test server listens on tcp") };
    let stream = TcpStream::connect(addr).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("bounded reads");
    stream
}

/// The bytes of one well-formed frame.
fn frame_bytes(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, req).expect("encode to memory");
    bytes
}

/// Sends `bytes`, half-closes the write side, and reads the daemon's
/// verdict: `Some(response)` or `None` for a clean close.
fn send_and_read(server: &ServerProc, bytes: &[u8]) -> Option<Response> {
    let mut stream = raw_conn(server);
    // The daemon may reject and close before we finish writing or manage
    // the half-close (EPIPE / ENOTCONN) — that's the *fast* variant of the
    // behavior under test, so press on to read the verdict either way.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    match read_frame::<Response>(&mut stream) {
        Ok(response) => Some(response),
        Err(FrameError::Closed) => None,
        // A reset mid-read is the kernel's spelling of "the daemon closed
        // on us with bytes still in flight" — a close, not an answer.
        Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(other) => panic!("daemon answered garbage with garbage: {other}"),
    }
}

/// The daemon must still answer a fresh, well-formed connection.
fn assert_alive(server: &ServerProc) {
    server.client().ping().expect("daemon still answers after abuse");
}

fn assert_bad_frame(verdict: Option<Response>, what: &str) {
    match verdict {
        Some(Response::Rejected { reason: RejectReason::BadFrame { .. } }) | None => {}
        other => panic!("{what}: expected a BadFrame reject or clean close, got {other:?}"),
    }
}

#[test]
fn truncated_frames_are_typed_rejects_at_every_interesting_cut() {
    let journal = scratch("proto-truncated");
    let server = ServerProc::spawn(&journal, &[]);
    let frame = frame_bytes(&Request::Submit { spec: spec_one("t", b0(), 8, 4), watch: false });

    // Cut inside the header, one short of it, just past it, and one byte
    // short of the whole frame.
    for cut in [1, 7, 27, 29, frame.len() - 1] {
        assert_bad_frame(send_and_read(&server, &frame[..cut]), &format!("cut at {cut}"));
    }
    assert_alive(&server);
}

#[test]
fn version_skew_is_a_typed_reject_naming_the_version() {
    let journal = scratch("proto-version");
    let server = ServerProc::spawn(&journal, &[]);

    // A structurally perfect envelope from a "future" protocol revision.
    let mut w = serde::bin::Writer::new();
    serde::bin::Encode::encode(&Request::Ping, &mut w);
    let skewed = serde::bin::write_envelope(MAGIC, VERSION + 1, &w.into_bytes());
    match send_and_read(&server, &skewed) {
        Some(Response::Rejected { reason: RejectReason::BadFrame { what } }) => {
            assert!(
                what.contains("version"),
                "the reject should name the version mismatch, got {what:?}"
            );
        }
        other => panic!("expected a version-skew reject, got {other:?}"),
    }
    assert_alive(&server);
}

#[test]
fn oversized_length_claims_are_rejected_before_any_payload_arrives() {
    let journal = scratch("proto-oversized");
    let server = ServerProc::spawn(&journal, &[]);

    // Header claiming a 1 TiB payload — and not a byte of payload behind
    // it. The daemon must reject from the header alone, promptly, instead
    // of trying to read (or worse, allocate) a terabyte.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(1u64 << 40).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    let mut stream = raw_conn(&server);
    stream.write_all(&header).expect("send header");
    // Deliberately no shutdown: the 10s read bound is the hang detector.
    match read_frame::<Response>(&mut stream) {
        Ok(Response::Rejected { reason: RejectReason::BadFrame { what } }) => {
            assert!(what.contains("frame"), "reject should describe the claim, got {what:?}");
        }
        Ok(other) => panic!("expected a prompt reject, got {other:?}"),
        Err(e) => panic!("expected a prompt reject, got frame error {e}"),
    }
    assert_alive(&server);
}

#[test]
fn single_byte_flips_never_panic_or_hang_the_daemon() {
    let journal = scratch("proto-flips");
    let server = ServerProc::spawn(&journal, &[]);
    let frame = frame_bytes(&Request::Submit { spec: spec_one("f", b0(), 8, 4), watch: false });

    // ~40 flip positions spread across the frame (header and payload), each
    // on a fresh connection. Magic flips, version flips, length flips,
    // checksum flips, payload flips: all must produce a typed reject or a
    // clean close. The FNV checksum makes a silently-accepted mutation a
    // hash collision, not a test gap.
    let positions: Vec<usize> = (0..40).map(|i| i * frame.len() / 40).collect();
    for pos in positions {
        let mut bent = frame.clone();
        bent[pos] ^= 0x5A;
        let verdict = send_and_read(&server, &bent);
        match verdict {
            Some(Response::Rejected { .. }) | None => {}
            other => panic!("flip at byte {pos}: expected reject or close, got {other:?}"),
        }
    }
    assert_alive(&server);
}

#[test]
fn semantic_nonsense_gets_semantic_rejects() {
    let journal = scratch("proto-semantic");
    let server = ServerProc::spawn(&journal, &[]);

    // A well-framed spec with an empty domain axis: BadSpec, not BadFrame.
    let mut empty = spec_one("empty", b0(), 8, 4);
    empty.matrix.domains.clear();
    let mut client = server.client();
    match client.submit(&empty, false) {
        Err(ClientError::Rejected(RejectReason::BadSpec { .. })) => {}
        other => panic!("expected a typed BadSpec reject, got {other:?}"),
    }

    // Watching and probing a job that was never submitted: UnknownJob.
    for req in [Request::Watch { id: 999_999 }, Request::Status { id: 999_999 }] {
        let mut client = server.client();
        match client.request(&req).expect("answered") {
            Response::Rejected { reason: RejectReason::UnknownJob { id } } => {
                assert_eq!(id, 999_999);
            }
            other => panic!("expected UnknownJob for {req:?}, got {other:?}"),
        }
    }
    assert_alive(&server);
}

#[test]
fn submit_with_an_unknown_surrogate_tier_is_a_typed_reject() {
    let journal = scratch("proto-tier");
    let server = ServerProc::spawn(&journal, &[]);

    let mut spec = spec_one("tier", b0(), 8, 4);
    spec.config.fidelity =
        Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S0 };
    let mut w = Writer::new();
    spec.encode(&mut w);
    let spec_bytes = w.into_bytes();
    let mut w = Writer::new();
    Request::Submit { spec, watch: false }.encode(&mut w);
    let mut payload = w.into_bytes();
    // A Submit payload is the one-byte request tag, the spec, then `watch`.
    let spec_at = 1..1 + spec_bytes.len();
    assert_eq!(payload[spec_at.clone()], spec_bytes[..], "the spec follows the tag");
    retire_tier(&mut payload[spec_at]);

    // A well-formed envelope, so only the payload decode can object.
    let frame = serde::bin::write_envelope(MAGIC, VERSION, &payload);
    match send_and_read(&server, &frame) {
        Some(Response::Rejected { reason: RejectReason::BadFrame { what } }) => {
            assert!(
                what.contains("SurrogateTier tag 1"),
                "the reject should name the tag: {what:?}"
            );
        }
        other => panic!("expected a typed BadFrame reject, got {other:?}"),
    }
    assert_alive(&server);
}
