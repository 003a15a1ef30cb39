"""Reference implementations the tests compare the vectorized code against,
and builders of packet tables from rows and of captures from packet tables.

`parse_pcap_records` decodes a classic pcap one record at a time with plain
`struct` calls; `assign_frames` is the scalar frame scan; `loop_frames` and
`loop_segment_features` build the frames and their per-segment features one
packet and one frame at a time. They state the rules in the most direct form
and must agree exactly with the columnar parser, the frame scan and the
grouping of `FrameTable` columns. `write_pcap` builds the classic pcap test
captures. `vector_guess_record_start` is the split-point guess as whole-window
array passes, which the scalar chain walk of `ingest._guess_record_start`
must match.
`dict_adam_fit` is Adam with early stopping over a dict of separate arrays,
one key at a time, each gradient and each validation forward taken from
float32 copies of the arrays and windows, which the one-vector update of
`Predictor.fit` must match.
`transformer_forward`/`transformer_backward` are the transformer's kernels
written out of place, one new array per expression, which the in-place
kernels of `models.transformer` must match bit for bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from numpy.lib.stride_tricks import as_strided

from reslearn import ingest
from reslearn.errors import BadMagic, TruncatedHeader
from reslearn.ingest import EndpointFilter, PacketTable
from reslearn.viewframe import FrameTable, SegmentFeatures

PCAP_MAGIC = 0xA1B2C3D4
PCAP_NS_MAGIC = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
DOWNLINK, UPLINK = True, False


def table(rows) -> PacketTable:
    """A packet table from (ts, length, downlink) rows."""
    rows = list(rows)
    return PacketTable([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def rows(packets: PacketTable) -> list[tuple[float, int, bool]]:
    return list(zip(packets.ts.tolist(), packets.length.tolist(),
                    packets.downlink.tolist()))


def write_pcap(
    packets: PacketTable,
    filt: EndpointFilter,
    client_address: str = "192.168.0.2",
) -> bytes:
    """Assemble a classic little-endian pcap of `packets`, whose ts are absolute
    capture times; the inverse of parse_pcap for synthetic fixtures.

    Each length is the captured frame length and must be >= 42
    (Ethernet + IPv4 + UDP headers).
    """
    server = filt.packed_address()
    client = bytes(int(p) for p in client_address.split("."))
    port = filt.port if filt.port is not None else 51000
    out = bytearray()
    out += struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
    for ts, length, downlink in rows(packets):
        if length < 42:
            raise ValueError(f"cannot fit headers in {length} bytes")
        if downlink:
            src, dst = server, client
            sport, dport = port, 52000
        else:
            src, dst = client, server
            sport, dport = 52000, port
        payload_len = length - 42
        ip_total = 20 + 8 + payload_len
        eth = struct.pack("!6s6sH", b"\xaa" * 6, b"\xbb" * 6, 0x0800)
        ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, ip_total, 0, 0, 64, 17, 0, src, dst)
        udp = struct.pack("!HHHH", sport, dport, 8 + payload_len, 0)
        frame = eth + ip + udp + b"\x00" * payload_len
        assert len(frame) == length
        sec = int(ts)
        usec = int(round((ts - sec) * 1e6))
        if usec == 1_000_000:
            sec, usec = sec + 1, 0
        out += struct.pack("<IIII", sec, usec, length, length)
        out += frame
    return bytes(out)


def parse_pcap_records(data: bytes, server: bytes, port: int | None):
    """([(ts, orig_len, downlink)], skipped, warnings) of a whole capture."""
    if len(data) < 24:
        raise TruncatedHeader("short global header")
    magic_le = struct.unpack_from("<I", data, 0)[0]
    magic_be = struct.unpack_from(">I", data, 0)[0]
    if magic_le in (PCAP_MAGIC, PCAP_NS_MAGIC):
        endian, magic = "<", magic_le
    elif magic_be in (PCAP_MAGIC, PCAP_NS_MAGIC):
        endian, magic = ">", magic_be
    elif PCAPNG_MAGIC in (magic_le, magic_be):
        raise BadMagic("pcapng")
    else:
        raise BadMagic("unknown magic")
    scale = 1e-6 if magic == PCAP_MAGIC else 1e-9
    if struct.unpack_from(endian + "I", data, 20)[0] != 1:
        raise BadMagic("link type")

    offset = 24
    raw = []
    skipped = 0
    warnings = 0
    while offset < len(data):
        if offset + 16 > len(data):
            warnings += 1
            break
        sec, frac, incl_len, orig_len = struct.unpack_from(endian + "IIII", data, offset)
        offset += 16
        if offset + incl_len > len(data):
            warnings += 1
            break
        frame = data[offset:offset + incl_len]
        offset += incl_len
        downlink = match_frame(frame, server, port)
        if downlink is None:
            skipped += 1
            continue
        raw.append((sec + frac * scale, orig_len, downlink))
    if raw:
        t0 = raw[0][0]
        raw = [(t - t0, ln, d) for t, ln, d in raw]
    return raw, skipped, warnings


def vector_guess_record_start(cap, offset: int) -> int | None:
    """`ingest._guess_record_start` of the capture `cap` at `offset`: every
    window offset's header fields as one strided view, a plausibility mask
    over them, and the chains followed through a next-header array for all
    candidates at once. The window and chain length are read from `ingest`
    at each call, so a test that patches them patches both."""
    buf = bytearray(max(min(ingest.GUESS_WINDOW, cap.size - offset), 0))
    size = cap.read_at(memoryview(buf), offset) if buf else 0
    heads = size - 16 + 1                     # window offsets with a whole header
    if heads < 1:
        return None
    data = np.frombuffer(buf, dtype=np.uint8, count=size)
    u32 = as_strided(data, (size - 3, 4), (1, 1), writeable=False).view(cap.endian + "u4")[:, 0]
    frac, incl, orig = u32[4:4 + heads], u32[8:8 + heads], u32[12:12 + heads]
    nxt = np.arange(heads, dtype=np.int64) + 16 + incl
    to_end = cap.size - offset - nxt          # bytes after the next header's start
    plausible = ((frac < round(1 / cap.frac_scale)) & (incl > 0) & (incl <= orig)
                 & (orig <= ingest.GUESS_MAX_ORIG) & (incl <= cap.snaplen)
                 & ((to_end == 0) | (to_end >= 16)))
    # two sentinels past the window's headers: the file's end, which closes a
    # chain, and a next header beyond the window, which is left unchecked
    at_end, unknown = heads, heads + 1
    nxt = np.where(to_end == 0, at_end, np.where(nxt < heads, nxt, unknown))
    nxt = np.append(nxt, [at_end, unknown])
    plausible = np.append(plausible, [True, False])
    chain = np.flatnonzero(plausible[:heads])
    here, alive = chain, np.ones(chain.size, dtype=bool)
    for _ in range(ingest.GUESS_CHAIN - 1):
        here = nxt[here]
        alive &= plausible[here]
    found = chain[alive]
    return offset + int(found[0]) if found.size else None


def match_frame(frame: bytes, server: bytes, port: int | None) -> bool | None:
    """True for downlink, False for uplink, None when the frame is skipped."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    l2 = 14
    if ethertype == 0x8100 and len(frame) >= 18:
        ethertype = struct.unpack_from("!H", frame, 16)[0]
        l2 = 18
    if ethertype != 0x0800:
        return None
    ip = frame[l2:]
    if len(ip) < 20 or ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    proto = ip[9]
    if proto not in (6, 17) or len(ip) < ihl + 4:
        return None
    src = ip[12:16]
    dst = ip[16:20]
    sport, dport = struct.unpack_from("!HH", ip, ihl)
    if src == server and (port is None or sport == port):
        return DOWNLINK
    if dst == server and (port is None or dport == port):
        return UPLINK
    return None


def assign_frames(ts, eligible, dur_th):
    """Frame id per packet, -1 for non-members. Consecutive eligible packets
    with gap <= dur_th share a frame."""
    n = ts.shape[0]
    fid = np.full(n, -1, dtype=np.int64)
    cur = -1
    last_ts = None
    for i in range(n):
        if eligible[i]:
            if last_ts is None or ts[i] - last_ts > dur_th:
                cur += 1
            fid[i] = cur
            last_ts = ts[i]
    return fid


def frame_table(rows) -> FrameTable:
    """A frame table from (start_ts, end_ts, size, packet_count) rows."""
    rows = list(rows)
    return FrameTable(*([r[i] for r in rows] for i in range(4)))


def frame_rows(frames: FrameTable) -> list[tuple[float, float, int, int]]:
    return list(zip(frames.start_ts.tolist(), frames.end_ts.tolist(), frames.size.tolist(),
                    frames.packet_count.tolist()))


def loop_frames(packets: PacketTable, len_th, dur_th, min_packets=1):
    """(start_ts, end_ts, size, packet_count) rows of the frames, one packet
    at a time: consecutive downlink packets of at least len_th bytes, in
    capture order, share a frame while the gap to the previous one is at
    most dur_th."""
    groups = []
    current = []
    last = None
    for ts, length, downlink in rows(packets):
        if not downlink or length < len_th:
            continue
        if last is not None and ts - last > dur_th:
            groups.append(current)
            current = []
        current.append((ts, length))
        last = ts
    if current:
        groups.append(current)
    return [(g[0][0], g[-1][0], sum(length for _, length in g), len(g))
            for g in groups if len(g) >= min_packets]


def loop_segment_features(frame_rows, segment_duration, num_segments):
    """The per-segment features of (start_ts, end_ts, size, packet_count)
    rows, one frame at a time: a frame joins the segment its start falls in,
    in frame order, and f_iat is np.mean of the gaps between the starts of a
    segment's frames."""
    by_segment: dict[int, list] = {}
    for fr in frame_rows:
        idx = int(fr[0] // segment_duration)
        if 0 <= idx < num_segments:
            by_segment.setdefault(idx, []).append(fr)
    out = []
    for idx in range(num_segments):
        members = by_segment.get(idx, [])
        f_c = len(members)
        f_s = sum(fr[2] for fr in members)
        f_iat = float(np.mean(np.diff([fr[0] for fr in members]))) if f_c >= 2 else None
        out.append(SegmentFeatures(idx, f_c, f_s, f_iat))
    return out


def dict_adam_fit(model, inputs, targets, val_inputs, val_targets) -> dict[str, np.ndarray]:
    """The parameters that `model.fit(inputs, targets, val_inputs, val_targets)`
    must end with, from Adam run key by key on copies of `model.params`; the
    model itself is not changed. Each step's gradient and each epoch's
    validation predictions come from float32 copies of the params and the
    windows; Adam updates the float64 copies, and the validation loss is taken
    in float64. The validation windows must fit in one inference block, so
    that one forward gives the validation predictions."""
    cfg = model.config
    params = {k: v.copy() for k, v in model.params.items()}
    rng = np.random.default_rng(cfg.seed + 1)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_val, best_params, stall = np.inf, None, 0
    n = inputs.shape[0]
    inputs32, targets32 = inputs.astype(np.float32), targets.astype(np.float32)
    val_inputs32 = val_inputs.astype(np.float32)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            params32 = {k: v.astype(np.float32) for k, v in params.items()}
            pred, cache = model._forward(params32, inputs32[idx])
            diff = pred - targets32[idx]
            grads = model._backward(params32, cache, 2.0 * diff / diff.size)
            step += 1
            for k, g in grads.items():
                g = g.astype(np.float64)
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
                m_hat = adam_m[k] / (1 - beta1 ** step)
                v_hat = adam_v[k] / (1 - beta2 ** step)
                params[k] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        params32 = {k: v.astype(np.float32) for k, v in params.items()}
        val_pred = model._forward(params32, val_inputs32)[0].astype(np.float64)
        val_loss = float(np.mean((val_pred - val_targets) ** 2))
        if val_loss < best_val - cfg.early_stop_min_delta:
            best_val, best_params, stall = val_loss, {k: v.copy() for k, v in params.items()}, 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
    return best_params if best_params is not None else params


LN_EPS = 1e-5


def layernorm_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def layernorm_backward(d_out, gain, cache):
    xhat, inv = cache
    d_gain = (d_out * xhat).sum(axis=(0, 1))
    d_bias = d_out.sum(axis=(0, 1))
    d_xhat = d_out * gain
    d_x = inv * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    )
    return d_x, d_gain, d_bias


def softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _matmul_t(x, w):
    """`x @ w.T` over the last axis of `x` as one 2-D product, the shape the
    kernels multiply in: numpy multiplies a stacked `x` slice by slice, and a
    BLAS kernel may round a row differently by its place in the tiling."""
    return (_flat(x) @ w.T).reshape(*x.shape[:-1], w.shape[0])


def transformer_forward(model, params, inputs):
    """(predictions, cache) of `model`, a TransformerPredictor, on `inputs`."""
    cfg = model.config
    x_in = inputs[:, :, None]
    h = x_in @ params["in_W"] + params["in_b"] + model.pe.astype(inputs.dtype, copy=False)
    layer_caches = []
    for layer in range(cfg.n_layers):
        p = f"l{layer}_"
        q = model._split_heads(h @ params[p + "Wq"] + params[p + "bq"])
        k = model._split_heads(h @ params[p + "Wk"] + params[p + "bk"])
        v = model._split_heads(h @ params[p + "Wv"] + params[p + "bv"])
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(model.head_dim)
        attn = softmax(scores)
        ctx = model._merge_heads(attn @ v)
        attn_out = ctx @ params[p + "Wo"] + params[p + "bo"]
        res1 = h + attn_out
        h1, ln1_cache = layernorm_forward(res1, params[p + "ln1_g"], params[p + "ln1_b"])
        z1 = h1 @ params[p + "ffn_W1"] + params[p + "ffn_b1"]
        a1 = np.maximum(z1, 0.0)
        ffn_out = a1 @ params[p + "ffn_W2"] + params[p + "ffn_b2"]
        res2 = h1 + ffn_out
        h_next, ln2_cache = layernorm_forward(res2, params[p + "ln2_g"], params[p + "ln2_b"])
        layer_caches.append((h, q, k, v, attn, ctx, ln1_cache, h1, z1, a1, ln2_cache))
        h = h_next
    pooled = h.mean(axis=1)
    pred = (pooled @ params["head_W"] + params["head_b"])[:, 0]
    return pred, (x_in, layer_caches, pooled)


def transformer_backward(model, params, cache, d_pred):
    """Gradients keyed like `params`, from a `transformer_forward` cache."""
    cfg = model.config
    x_in, layer_caches, pooled = cache
    grads = {}
    d_out = d_pred[:, None]
    grads["head_W"] = pooled.T @ d_out
    grads["head_b"] = d_out.sum(axis=0)
    d_pooled = d_out @ params["head_W"].T
    w = cfg.lookback
    d_h = np.repeat(d_pooled[:, None, :], w, axis=1) / w
    for layer in range(cfg.n_layers - 1, -1, -1):
        p = f"l{layer}_"
        h_in, q, k, v, attn, ctx, ln1_cache, h1, z1, a1, ln2_cache = layer_caches[layer]
        d_res2, grads[p + "ln2_g"], grads[p + "ln2_b"] = layernorm_backward(
            d_h, params[p + "ln2_g"], ln2_cache)
        d_ffn = d_res2
        grads[p + "ffn_W2"] = _flat(a1).T @ _flat(d_ffn)
        grads[p + "ffn_b2"] = d_ffn.sum(axis=(0, 1))
        d_a1 = _matmul_t(d_ffn, params[p + "ffn_W2"])
        d_z1 = d_a1 * (z1 > 0)
        grads[p + "ffn_W1"] = _flat(h1).T @ _flat(d_z1)
        grads[p + "ffn_b1"] = d_z1.sum(axis=(0, 1))
        d_h1 = d_res2 + _matmul_t(d_z1, params[p + "ffn_W1"])
        d_res1, grads[p + "ln1_g"], grads[p + "ln1_b"] = layernorm_backward(
            d_h1, params[p + "ln1_g"], ln1_cache)
        d_attn_out = d_res1
        grads[p + "Wo"] = _flat(ctx).T @ _flat(d_attn_out)
        grads[p + "bo"] = d_attn_out.sum(axis=(0, 1))
        d_ctx = model._split_heads(_matmul_t(d_attn_out, params[p + "Wo"]))
        d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores = d_scores / math.sqrt(model.head_dim)
        d_q = model._merge_heads(d_scores @ k)
        d_k = model._merge_heads(d_scores.transpose(0, 1, 3, 2) @ q)
        d_v = model._merge_heads(d_v)
        grads[p + "Wq"] = _flat(h_in).T @ _flat(d_q)
        grads[p + "bq"] = d_q.sum(axis=(0, 1))
        grads[p + "Wk"] = _flat(h_in).T @ _flat(d_k)
        grads[p + "bk"] = d_k.sum(axis=(0, 1))
        grads[p + "Wv"] = _flat(h_in).T @ _flat(d_v)
        grads[p + "bv"] = d_v.sum(axis=(0, 1))
        d_h = (d_res1 + _matmul_t(d_q, params[p + "Wq"]) + _matmul_t(d_k, params[p + "Wk"])
               + _matmul_t(d_v, params[p + "Wv"]))
    grads["in_W"] = _flat(x_in).T @ _flat(d_h)
    grads["in_b"] = d_h.sum(axis=(0, 1))
    return grads
