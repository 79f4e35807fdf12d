//! Wire-version compatibility: a legacy v2 client against a v3 server
//! (a control plane in its single-tenant in-process role).
//!
//! The v3 codec added control-plane frame kinds but changed nothing
//! about the v2 ones, and servers echo the codec version each request
//! arrived with. These tests pin both halves from the *client's* byte
//! perspective: every reply a hand-rolled v2 client reads — response,
//! stats, progress, error — carries a version-2 header and a payload
//! that re-encodes byte for byte under the v2 stamp, so a client
//! compiled against the old codec can never observe v3 on its wire.

use std::io::Read;
use std::net::TcpStream;

use dpm_ctl::{CtlConfig, CtlServer};
use dpm_diffusion::DiffusionConfig;
use dpm_gen::{CircuitSpec, InflationSpec};
use dpm_serve::wire::{
    decode_error, decode_progress, decode_response, decode_stats, encode_error, encode_progress,
    encode_request, encode_response, encode_stats, write_frame_versioned, FrameKind, JobKind,
    JobRequest, PayloadEncoding,
};

/// Reads one raw frame (header + payload) off a blocking stream.
fn read_raw_frame(stream: &mut TcpStream) -> (u16, u8, Vec<u8>) {
    let mut header = [0u8; 11];
    stream.read_exact(&mut header).expect("frame header");
    assert_eq!(&header[..4], b"DPMS", "magic");
    let version = u16::from_le_bytes([header[4], header[5]]);
    let kind = header[6];
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("frame payload");
    (version, kind, payload)
}

/// Asserts `payload` re-encodes to the identical bytes via `reencode`,
/// i.e. nothing in the v2 payload shape drifted under the v3 codec.
fn assert_reencodes(payload: &[u8], reencode: impl FnOnce(&[u8]) -> Vec<u8>) {
    let again = reencode(payload);
    assert_eq!(again, payload, "payload must re-encode byte for byte");
}

fn v2_request(id: u64, progress_stride: u32) -> JobRequest {
    let mut bench = CircuitSpec::with_size("compat_v2", 160, 7).generate();
    bench.inflate(&InflationSpec::centered(0.3, 0.25, 0xD1E));
    JobRequest {
        id,
        deadline_ms: 0,
        progress_stride,
        kind: JobKind::Local,
        design: format!("compat_v2_{id}"),
        config: DiffusionConfig::default(),
        netlist: bench.netlist,
        die: bench.die,
        placement: bench.placement,
        vol: None,
        trace: None,
    }
}

#[test]
fn v2_frames_round_trip_byte_for_byte_against_a_v3_server() {
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Job request, stamped v2 on the wire.
    let req = v2_request(1, 0);
    let payload = encode_request(&req, PayloadEncoding::Binary);
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &payload).expect("send v2 request");
    let (version, kind, reply) = read_raw_frame(&mut stream);
    assert_eq!(version, 2, "reply header must echo the request's v2");
    assert_eq!(kind, 2, "Response frame kind byte");
    let resp = decode_response(&reply).expect("v2 client can decode the response");
    assert_eq!(resp.id, 1);
    assert!(resp.steps > 0, "the job must do real work");
    assert_reencodes(&reply, |p| encode_response(&decode_response(p).unwrap()));

    // Stats request on the same connection: also echoed at v2.
    write_frame_versioned(&mut stream, 2, FrameKind::StatsRequest, &[]).expect("send v2 stats");
    let (version, kind, stats) = read_raw_frame(&mut stream);
    assert_eq!(version, 2);
    assert_eq!(kind, 6, "Stats frame kind byte");
    let snap = decode_stats(&stats).expect("v2 client can decode stats");
    assert_eq!(snap.served, 1);
    assert_reencodes(&stats, |p| encode_stats(&decode_stats(p).unwrap()));

    server.shutdown();
}

#[test]
fn v2_progress_and_error_frames_are_echoed_at_v2() {
    let server = CtlServer::start(CtlConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // A streaming request: progress frames must arrive v2-stamped too,
    // since a v2 client reads them with the old header check.
    let req = v2_request(2, 1);
    let payload = encode_request(&req, PayloadEncoding::Binary);
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &payload).expect("send");
    let mut saw_progress = false;
    loop {
        let (version, kind, body) = read_raw_frame(&mut stream);
        assert_eq!(version, 2, "every frame on a v2 conversation is v2");
        match kind {
            4 => {
                saw_progress = true;
                assert_reencodes(&body, |p| encode_progress(&decode_progress(p).unwrap()));
            }
            2 => {
                assert_eq!(decode_response(&body).expect("response").id, 2);
                break;
            }
            other => panic!("unexpected frame kind {other}"),
        }
    }
    assert!(saw_progress, "stride-1 request must stream progress");

    // A malformed payload gets its error reply at v2 as well.
    write_frame_versioned(&mut stream, 2, FrameKind::Request, &[0xFF; 3]).expect("send junk");
    let (version, kind, err) = read_raw_frame(&mut stream);
    assert_eq!(version, 2);
    assert_eq!(kind, 3, "Error frame kind byte");
    let decoded = decode_error(&err).expect("typed error");
    assert_reencodes(&err, |p| encode_error(&decode_error(p).unwrap()));
    assert_eq!(decoded.id, 0, "undecodable request has no id to echo");

    server.shutdown();
}
