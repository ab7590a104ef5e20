"""WAV I/O, framing, speech detection, and SNR estimation."""

import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cognopipe import dsp
from cognopipe.errors import AudioFormatError

from conftest import SR, tone


# ---------------------------------------------------------------------------
# WAV I/O

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, 4000)
    p = tmp_path / "a.wav"
    dsp.write_wav(p, x, SR)
    audio = dsp.read_wav(p)
    assert audio.sample_rate_hz == SR
    assert audio.samples.size == 4000
    assert np.max(np.abs(audio.samples - x)) <= 0.5 / 32768 + 1e-12


def test_wav_exact_on_quantized_grid(tmp_path):
    x = np.array([0, 1, -1, 100, -32768, 32767]) / 32768.0
    p = tmp_path / "g.wav"
    dsp.write_wav(p, x, 8000)
    assert np.array_equal(dsp.read_wav(p).samples, x)


def test_wav_write_clips_overdrive(tmp_path):
    p = tmp_path / "c.wav"
    dsp.write_wav(p, np.array([2.0, -2.0]), 8000)
    got = dsp.read_wav(p).samples
    assert got[0] == 32767 / 32768.0
    assert got[1] == -1.0


def test_read_wav_info_matches_read_wav(tmp_path):
    p = tmp_path / "i.wav"
    dsp.write_wav(p, tone(100, 0.5), SR)
    sr, n = dsp.read_wav_info(p)
    audio = dsp.read_wav(p)
    assert sr == audio.sample_rate_hz
    assert n == audio.samples.size


def _wav_bytes(sr=8000, channels=1, bits=16, fmt=1, n=100, chop=0):
    data = b"\x00\x00" * n
    block = channels * bits // 8
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, sr, sr * block, block, bits)
    out += b"data" + struct.pack("<I", len(data)) + data
    return out[: len(out) - chop] if chop else out


def _extensible_wav(subformat: bytes, channels=1, bits=16) -> bytes:
    data = struct.pack("<3h", 5, -5, 7)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, 8000, 8000 * block, block, bits)
    fmt += struct.pack("<HHI", 22, bits, 0x4) + subformat
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _repeated_chunk_wav(chunk_id: bytes) -> bytes:
    """fmt, a 2-sample data chunk, then a second fmt or a 1-sample data chunk."""
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    extra = fmt if chunk_id == b"fmt " else struct.pack("<h", 300)
    chunks = [(b"fmt ", fmt), (b"data", struct.pack("<2h", 100, 200)), (chunk_id, extra)]
    body = b"".join(cid + struct.pack("<I", len(payload)) + payload for cid, payload in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
_FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


@pytest.mark.parametrize(
    "raw,defect",
    [
        (b"not a wav at all", "RIFF"),
        (_wav_bytes(channels=2), "channel"),
        (_wav_bytes(bits=8), "8-bit"),
        (_wav_bytes(fmt=3), "non-PCM"),
        (_wav_bytes(chop=50), "truncated"),
        (_wav_bytes()[:40], "data"),
        (_extensible_wav(_FLOAT_GUID), "non-PCM format tag 65534 (subformat 00000003-"),
        (_extensible_wav(_PCM_GUID, channels=2), "multi-channel"),
        (_extensible_wav(_PCM_GUID, bits=24), "24-bit"),
        (_extensible_wav(_PCM_GUID)[:56], "truncated fmt chunk"),
        (_repeated_chunk_wav(b"fmt "), "repeated fmt chunk"),
        (_repeated_chunk_wav(b"data"), "repeated data chunk"),
    ],
)
def test_read_wav_rejects_malformed(tmp_path, raw, defect):
    p = tmp_path / "bad.wav"
    p.write_bytes(raw)
    with pytest.raises(AudioFormatError) as exc:
        dsp.read_wav(p)
    assert "bad.wav" in str(exc.value)
    assert defect.lower() in str(exc.value).lower()


def test_read_wav_skips_extra_chunks(tmp_path):
    """LIST/INFO chunks between fmt and data must be tolerated."""
    data = struct.pack("<4h", 100, -100, 200, -200)
    body = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
    body += b"LIST" + struct.pack("<I", 4) + b"INFO"
    body += b"data" + struct.pack("<I", len(data)) + data
    raw = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    p = tmp_path / "x.wav"
    p.write_bytes(raw)
    audio = dsp.read_wav(p)
    assert audio.samples.size == 4
    assert audio.samples[2] == 200 / 32768.0


def test_read_wav_accepts_extensible_pcm(tmp_path):
    p = tmp_path / "ext.wav"
    p.write_bytes(_extensible_wav(_PCM_GUID))
    audio = dsp.read_wav(p)
    assert audio.sample_rate_hz == 8000
    assert np.array_equal(audio.samples, np.array([5, -5, 7]) / 32768.0)
    assert dsp.read_wav_info(p) == (8000, 3)


def test_read_wav_info_reads_only_headers(tmp_path, monkeypatch):
    """A minute of audio is validated from a few dozen header bytes."""
    p = tmp_path / "long.wav"
    dsp.write_wav(p, np.zeros(60 * SR), SR)
    read_sizes = []

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            out = super().read(size)
            read_sizes.append(len(out))
            return out

    monkeypatch.setattr(dsp, "open", lambda path, mode, buffering: CountingFile(path, mode),
                        raising=False)
    assert dsp.read_wav_info(p) == (SR, 60 * SR)
    assert 0 < sum(read_sizes) <= 64


_UNKNOWN_IDS = [b"LIST", b"junk", b"fact", b"\x00\x00\x00\x00"]
# Defects every parser must reject, then defects that may leave a readable file.
_WAV_REJECTED = ["bad magic", "no fmt", "no data", "format 3", "float subformat", "stereo",
                 "8-bit", "rate 0", "odd data", "empty data", "repeated fmt", "repeated data"]
_WAV_DEFECTS = _WAV_REJECTED + ["truncated", "short fmt", "length past end", "no pad byte"]


@st.composite
def riff_files(draw):
    """(RIFF/WAVE bytes, expected).  Without a defect the file has one fmt
    and one data chunk among unknown chunks in random order, odd-length
    bodies padded, and expected is its (sample_rate, samples).  Otherwise
    the file carries one defect, and expected is "reject" for a defect in
    _WAV_REJECTED and None for the others."""
    defect = draw(st.none() | st.sampled_from(_WAV_DEFECTS))
    tag = {"format 3": 3, "float subformat": 0xFFFE}.get(defect) or draw(
        st.sampled_from([1, 0xFFFE]))
    channels = 2 if defect == "stereo" else 1
    bits = 8 if defect == "8-bit" else 16
    sr = 0 if defect == "rate 0" else draw(st.sampled_from([8000, 16000]))
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, sr, sr * block, block, bits)
    if tag == 0xFFFE or draw(st.booleans()):
        guid = _FLOAT_GUID if defect == "float subformat" else _PCM_GUID
        fmt += struct.pack("<HHI", 22, bits, 0x4) + guid
    if defect == "short fmt":
        fmt = fmt[: draw(st.integers(0, len(fmt) - 1))]
    n = 0 if defect == "empty data" else draw(st.integers(1, 10))
    data = draw(st.binary(min_size=2 * n, max_size=2 * n))
    if defect == "odd data":
        data += b"\x01"
    chunks = []
    if defect != "no fmt":
        chunks.append((b"fmt ", fmt))
    if defect != "no data":
        chunks.append((b"data", data))
    if defect == "repeated fmt":
        chunks.append((b"fmt ", fmt))
    if defect == "repeated data":
        chunks.append((b"data", data[: 2 * draw(st.integers(0, n))]))
    chunks += draw(st.lists(st.tuples(st.sampled_from(_UNKNOWN_IDS), st.binary(max_size=9)),
                            max_size=3))
    chunks = draw(st.permutations(chunks))
    liar = draw(st.integers(0, len(chunks) - 1)) if chunks and defect == "length past end" else -1
    body = b""
    for i, (cid, payload) in enumerate(chunks):
        declared = len(payload) + (draw(st.integers(1, 100)) if i == liar else 0)
        pad = b"\x00" if len(payload) % 2 and defect != "no pad byte" else b""
        body += cid + struct.pack("<I", declared) + payload + pad
    magic = b"AVI " if defect == "bad magic" else b"WAVE"
    raw = b"RIFF" + struct.pack("<I", 4 + len(body)) + magic + body
    if defect == "truncated":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    if defect is None:
        return raw, (sr, np.frombuffer(data, "<i2") / 32768.0)
    return raw, "reject" if defect in _WAV_REJECTED else None


@settings(max_examples=300, deadline=None)
@given(riff_files())
def test_wav_parser_fuzz(tmp_path_factory, case):
    """read_wav decodes a well-formed file exactly, rejects a file with a
    fatal defect, and on any file either decodes or raises a one-line
    AudioFormatError; read_wav_info accepts exactly what read_wav accepts,
    plus an empty data chunk."""
    raw, expected = case
    p = tmp_path_factory.mktemp("fuzz") / "f.wav"
    p.write_bytes(raw)
    try:
        audio = dsp.read_wav(p)
        err = None
    except AudioFormatError as exc:
        err = str(exc)
        assert err.startswith(f"dsp.read_wav: {p}: ") and "\n" not in err
    try:
        info = dsp.read_wav_info(p)
    except AudioFormatError:
        info = None
    if expected == "reject":
        assert err is not None
    elif expected is not None:
        assert err is None
        assert audio.sample_rate_hz == expected[0]
        assert np.array_equal(audio.samples, expected[1])
    if err is None:
        assert info == (audio.sample_rate_hz, audio.samples.size)
    elif err.endswith("empty data chunk"):
        assert info is not None and info[1] == 0
    else:
        assert info is None


def test_audio_buffer_validation():
    with pytest.raises(AudioFormatError):
        dsp.AudioBuffer(np.array([]), SR)
    with pytest.raises(AudioFormatError):
        dsp.AudioBuffer(np.array([np.nan]), SR)
    with pytest.raises(AudioFormatError):
        dsp.AudioBuffer(np.zeros(10), 0)


# ---------------------------------------------------------------------------
# framing / FFT wrappers

def test_frame_signal_layout():
    x = np.arange(1000, dtype=float)
    frames = dsp.frame_signal(x, SR, 0.025, 0.010)  # len 400, hop 160
    assert frames.shape == (1 + (1000 - 400) // 160, 400)
    assert np.array_equal(frames[0], x[:400])
    assert np.array_equal(frames[1], x[160:560])
    assert np.array_equal(frames[-1], x[3 * 160 : 3 * 160 + 400])
    # a view of the signal, which cannot be written through
    assert np.shares_memory(frames, x)
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0


def test_frame_signal_short_input():
    assert dsp.frame_signal(np.zeros(10), SR).shape[0] == 0


@pytest.mark.parametrize("frame_len_s, hop_s", [
    (0.025, 0.0),
    (0.025, 1e-5),  # 0.16 samples rounds to 0
    (0.0, 0.010),
])
def test_frame_signal_rejects_sub_sample_frame_or_hop(frame_len_s, hop_s):
    with pytest.raises(AudioFormatError) as exc:
        dsp.frame_signal(np.zeros(1000), SR, frame_len_s, hop_s)
    assert str(exc.value).startswith("dsp.frame_signal: ")
    assert "\n" not in str(exc.value)


def test_next_pow2():
    assert [dsp.next_pow2(n) for n in (1, 2, 3, 400, 512, 513)] == [1, 2, 4, 512, 512, 1024]


def test_fft_real_zero_pads():
    x = np.array([1.0, 2.0, 3.0])
    got = dsp.fft_real(x, 8)
    padded = np.zeros(8)
    padded[:3] = x
    k = np.arange(5)[:, None]
    t = np.arange(8)[None, :]
    want = (np.exp(-2j * np.pi * k * t / 8) * padded).sum(axis=1)
    assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(ValueError):
        dsp.fft_real(x, 6)


def test_frame_energies_db():
    frames = np.vstack([np.full(100, 0.1), np.zeros(100)])
    e = dsp.frame_energies_db(frames)
    assert abs(e[0] - (-20.0)) < 1e-6
    assert abs(e[1] - (-120.0)) < 1e-9


# ---------------------------------------------------------------------------
# order statistics

_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_TIED = st.integers(-3, 3).map(float)  # few distinct values: ties, constant rows


@st.composite
def _tables(draw):
    """1-D or 2-D float arrays, each row 1..30 long, drawn wide or tied."""
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 5)), n)]))
    return draw(hnp.arrays(np.float64, shape, elements=draw(st.sampled_from([_FINITE, _TIED]))))


_Q = st.floats(0.0, 100.0)


@settings(max_examples=300, deadline=None)
@given(x=_tables(), q=st.one_of(_Q, st.lists(_Q, min_size=1, max_size=5)))
@example(x=np.array([2.5]), q=[0.0, 37.5, 100.0])  # n = 1
@example(x=np.array([[3.0, -1.0], [4.0, 4.0]]), q=[0.0, 12.5, 50.0, 100.0])  # n = 2, constant row
@example(x=np.array([1.0, 2.0, 2.0, 2.0, 7.0, 7.0]), q=[20.0, 50.0, 80.0])  # ties
@example(x=np.array([5.0, 1.0, 4.0]), q=10.0)  # scalar q
def test_sorted_percentiles_equal_numpy(x, q):
    got = dsp.sorted_percentiles(np.sort(x, axis=-1), q)
    want = np.percentile(x, q, axis=-1)
    assert got.shape == np.shape(want)
    assert np.array_equal(got, want)
    if not (x == 0).any():  # only a zero's sign is free to differ
        assert got.tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(_FINITE, _TIED)))
@example(np.array([1.0]))
@example(np.array([4.0, 1.0]))
@example(np.array([3.0, 1.0, 2.0]))
def test_mean_of_the_middle_is_numpy_median(x):
    """detect_speech's median of sorted energies: odd and even n."""
    s = np.sort(x)
    n = s.size
    assert np.array_equal((s[(n - 1) // 2] + s[n // 2]) / 2, np.median(x))


@pytest.mark.parametrize("seconds", [0.5, 0.51])  # 48 and 49 frames
def test_homogeneous_branch_compares_numpy_median(seconds):
    """The all-or-nothing decision flips exactly at np.median of the energies."""
    rng = np.random.default_rng(7)
    x = 0.05 * rng.standard_normal(int(seconds * SR))
    audio = dsp.AudioBuffer(x, SR)
    cfg = dsp.VadConfig()
    energies = dsp.frame_energies_db(dsp.frame_signal(x, SR, cfg.frame_len_s, cfg.hop_s))
    assert np.percentile(energies, 90) - np.percentile(energies, 10) < cfg.homogeneous_range_db
    median = np.median(energies)
    at = dsp.VadConfig(homogeneous_speech_floor_db=median)
    below = dsp.VadConfig(homogeneous_speech_floor_db=np.nextafter(median, -np.inf))
    assert dsp.detect_speech(audio, at).speech == ()
    assert dsp.detect_speech(audio, below).speech == ((0.0, audio.duration_s),)


# ---------------------------------------------------------------------------
# speech detection

def _tone_silence_tone():
    quiet = np.zeros(SR)
    return np.concatenate([tone(200, 1.0), quiet, tone(200, 1.0)])


def test_detect_speech_tone_silence_tone():
    audio = dsp.AudioBuffer(_tone_silence_tone(), SR)
    segs = dsp.detect_speech(audio)
    assert len(segs.speech) == 2
    (s0, e0), (s1, e1) = segs.speech
    assert s0 == 0.0
    assert abs(e0 - 1.0) < 0.05
    assert abs(s1 - 2.0) < 0.05
    assert e1 == audio.duration_s  # trailing speech runs to the end


def test_detect_speech_constant_tone_is_all_speech():
    audio = dsp.AudioBuffer(tone(150, 2.0), SR)
    segs = dsp.detect_speech(audio)
    assert segs.speech == ((0.0, audio.duration_s),)


def test_detect_speech_silence_is_empty():
    audio = dsp.AudioBuffer(np.zeros(SR), SR)
    assert dsp.detect_speech(audio).speech == ()


def test_detect_speech_low_level_noise_is_empty():
    rng = np.random.default_rng(0)
    audio = dsp.AudioBuffer(1e-5 * rng.standard_normal(SR), SR)
    assert dsp.detect_speech(audio).speech == ()


def test_detect_speech_drops_short_blips():
    x = np.zeros(2 * SR)
    blip = tone(200, 0.05)
    x[SR : SR + blip.size] = blip  # 50 ms < min_segment_s
    segs = dsp.detect_speech(dsp.AudioBuffer(x, SR))
    assert segs.speech == ()


def test_detect_speech_bridges_short_gaps():
    part = tone(200, 0.5)
    gap = np.zeros(int(0.1 * SR))  # 100 ms < bridge_gap_s
    x = np.concatenate([part, gap, part])
    segs = dsp.detect_speech(dsp.AudioBuffer(x, SR))
    assert len(segs.speech) == 1


def test_detect_speech_gain_invariant():
    x = _tone_silence_tone() + 1e-4 * np.random.default_rng(1).standard_normal(3 * SR)
    a = dsp.detect_speech(dsp.AudioBuffer(x, SR))
    b = dsp.detect_speech(dsp.AudioBuffer(0.25 * x, SR))
    assert a.speech == b.speech


def test_segment_set_validation():
    with pytest.raises(ValueError):
        dsp.SegmentSet(((1.0, 0.5),))
    with pytest.raises(ValueError):
        dsp.SegmentSet(((0.0, 1.0), (0.5, 2.0)))
    s = dsp.SegmentSet(((0.0, 1.0), (2.0, 3.0)))
    assert s.total_speech_s == 2.0
    mask = s.sample_mask(4 * SR, SR)
    assert mask[: SR].all() and not mask[SR : 2 * SR].any()


# ---------------------------------------------------------------------------
# SNR

def test_snr_constructed_20db():
    # first half: sine amplitude 0.3; second half: same waveform at 0.03
    # -> power ratio 100 -> exactly 20 dB
    x = np.concatenate([tone(200, 1.0, amp=0.3), tone(200, 1.0, amp=0.03)])
    segs = dsp.SegmentSet(((0.0, 1.0),))
    audio = dsp.AudioBuffer(x, SR)
    assert abs(dsp.estimate_snr(audio, segs) - 20.0) < 1e-9


def test_snr_caps():
    audio = dsp.AudioBuffer(tone(200, 1.0), SR)
    assert dsp.estimate_snr(audio, dsp.SegmentSet(())) == -120.0
    assert dsp.estimate_snr(audio, dsp.SegmentSet(((0.0, 1.0),))) == 120.0
    # speech over digital silence also caps high
    x = np.concatenate([tone(200, 1.0), np.zeros(SR)])
    audio2 = dsp.AudioBuffer(x, SR)
    assert dsp.estimate_snr(audio2, dsp.SegmentSet(((0.0, 1.0),))) == 120.0


def test_snr_through_vad_tail_not_leaked():
    """The last partial frame of a trailing tone counts as speech."""
    audio = dsp.AudioBuffer(_tone_silence_tone(), SR)
    segs = dsp.detect_speech(audio)
    assert dsp.estimate_snr(audio, segs) == 120.0


def test_snr_gain_invariant():
    x = np.concatenate([tone(200, 1.0, amp=0.3), tone(200, 1.0, amp=0.01)])
    segs = dsp.SegmentSet(((0.0, 1.0),))
    a = dsp.estimate_snr(dsp.AudioBuffer(x, SR), segs)
    b = dsp.estimate_snr(dsp.AudioBuffer(0.25 * x, SR), segs)
    assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=2**32 - 1))
def test_wav_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 32767 / 32768.0, n)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "p.wav"
        dsp.write_wav(p, x, SR)
        got = dsp.read_wav(p).samples
    assert got.size == n
    assert np.max(np.abs(got - x)) <= 0.5 / 32768 + 1e-12


def naive_detect_speech(audio, config=None):
    """Reference VAD: frame runs and gap bridging with explicit loops."""
    cfg = config or dsp.VadConfig()
    frames = dsp.frame_signal(audio.samples, audio.sample_rate_hz, cfg.frame_len_s, cfg.hop_s)
    if frames.shape[0] == 0:
        return dsp.SegmentSet(())
    energies = dsp.frame_energies_db(frames)
    lo = np.percentile(energies, cfg.noise_floor_percentile)
    hi = np.percentile(energies, 90.0)
    if hi - lo < cfg.homogeneous_range_db:
        if np.median(energies) > cfg.homogeneous_speech_floor_db:
            mask = np.ones(energies.size, dtype=bool)
        else:
            mask = np.zeros(energies.size, dtype=bool)
    else:
        mask = energies > lo + cfg.threshold_margin_db
    if not mask.any():
        return dsp.SegmentSet(())

    intervals = []
    in_run = False
    start = 0
    for i, flag in enumerate(mask):
        if flag and not in_run:
            start = i
            in_run = True
        elif not flag and in_run:
            intervals.append([start * cfg.hop_s, (i - 1) * cfg.hop_s + cfg.frame_len_s])
            in_run = False
    if in_run:
        intervals.append([start * cfg.hop_s, (mask.size - 1) * cfg.hop_s + cfg.frame_len_s])
    dur = audio.duration_s
    if mask[-1]:
        intervals[-1][1] = dur

    merged = []
    for seg in intervals:
        if merged and seg[0] - merged[-1][1] < cfg.bridge_gap_s:
            merged[-1][1] = max(merged[-1][1], seg[1])
        else:
            merged.append(seg)
    kept = tuple((s, min(e, dur)) for s, e in merged if min(e, dur) - s >= cfg.min_segment_s)
    return dsp.SegmentSet(kept)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["bursts", "tone", "silent"]))
@example(seed=0, kind="tone")
@example(seed=0, kind="silent")
def test_detect_speech_output_invariants(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 3 * SR))
    x = np.zeros(n)
    if kind == "bursts":  # random bursts of tone
        for _ in range(int(rng.integers(0, 4))):
            a = int(rng.integers(0, n))
            b = min(n, a + int(rng.integers(1, SR)))
            t = np.arange(b - a) / SR
            x[a:b] += 0.3 * np.sin(2 * np.pi * 180 * t)
    elif kind == "tone":  # homogeneous and loud: all speech
        x += rng.uniform(0.01, 0.9) * np.sin(2 * np.pi * rng.uniform(80, 400) * np.arange(n) / SR)
    audio = dsp.AudioBuffer(x + 1e-6, SR)
    segs = dsp.detect_speech(audio)
    assert segs.speech == naive_detect_speech(audio).speech
    if kind != "bursts" and audio.duration_s >= dsp.VadConfig().min_segment_s:
        # each outcome of the homogeneous-input branch
        assert segs.speech == (((0.0, audio.duration_s),) if kind == "tone" else ())
    prev_end = -1.0
    for s, e in segs.speech:
        assert 0.0 <= s < e <= audio.duration_s + 1e-9
        assert s >= prev_end
        assert e - s >= dsp.VadConfig().min_segment_s - 1e-9
        prev_end = e
    assert -120.0 <= dsp.estimate_snr(audio, segs) <= 120.0
