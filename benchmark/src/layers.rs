//! Timed calls into the serving layers that sit above the engine: the
//! wire codec (`spa-server::wire`) and the transport-neutral API
//! (`SpaApi::dispatch_enveloped`). Traced runs call them after their
//! timed phase, on requests of the same kind, so the per-layer metrics
//! exist for every workload while the traced phase itself makes exactly
//! the untraced phase's calls.

use crate::trace::{SpanId, Tracer};
use bytes::BytesMut;
use spa_core::{ApiRequest, ApiResponse, RequestEnvelope, SpaApi};
use spa_server::wire;
use std::time::{Duration, Instant};

/// Byte totals of the requests and responses run through the codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireBytes {
    pub requests: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

/// Encodes and decodes one request and its response exactly as the
/// client and server do, each step in its own span. Returns `false`
/// when a decoded value differs from the original.
pub fn codec_round_trip(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request_id: u64,
    request: &ApiRequest,
    response: &ApiResponse,
    bytes: &mut WireBytes,
) -> bool {
    let envelope = RequestEnvelope::stamped(request_id, 0);
    let mut out = BytesMut::new();
    tracer.time("wire.encode_req", parent, request_id, || {
        wire::encode_enveloped_request(&envelope, request, &mut out)
    });
    let request_bytes = out.len();
    let decoded_request =
        tracer.time("wire.decode_req", parent, request_id, || wire::decode_enveloped_request(&out));
    let mut back = BytesMut::new();
    tracer.time("wire.encode_resp", parent, request_id, || {
        wire::encode_enveloped_response(request_id, false, response, &mut back)
    });
    let decoded_response = tracer
        .time("wire.decode_resp", parent, request_id, || wire::decode_enveloped_response(&back));
    bytes.requests += 1;
    bytes.request_bytes += request_bytes as u64;
    bytes.response_bytes += back.len() as u64;
    matches!(decoded_request, Ok((_, ref r)) if r == request)
        && matches!(decoded_response, Ok((id, false, ref r)) if id == request_id && r == response)
}

/// Dispatches one request through the API facade inside an
/// `api.dispatch` span.
pub fn dispatch(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    api: &SpaApi,
    request_id: u64,
    request: &ApiRequest,
) -> ApiResponse {
    let envelope = RequestEnvelope::stamped(request_id, 0);
    tracer
        .time("api.dispatch", parent, request_id, || api.dispatch_enveloped(&envelope, request))
        .response
}

/// What [`probe`] measured of one request.
pub struct Probed {
    pub response: ApiResponse,
    /// Time spent in the wire codec and in the API facade.
    pub codec: Duration,
    pub dispatch: Duration,
    /// Whether the codec gave the request and response back unchanged.
    pub codec_ok: bool,
}

/// Dispatches one request through the API facade, then runs it and its
/// response through the wire codec, every call in a span under `parent`.
pub fn probe(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    api: &SpaApi,
    request_id: u64,
    request: &ApiRequest,
    bytes: &mut WireBytes,
) -> Probed {
    let start = Instant::now();
    let response = dispatch(tracer, parent, api, request_id, request);
    let dispatched = Instant::now();
    let codec_ok = codec_round_trip(tracer, parent, request_id, request, &response, bytes);
    Probed { response, codec: dispatched.elapsed(), dispatch: dispatched - start, codec_ok }
}
