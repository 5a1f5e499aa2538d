package compress

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// seededNoise returns n deterministic pseudo-random bytes (fuzz seeds
// must be reproducible across runs).
func seededNoise(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(b)
	return b
}

// FuzzUnpackFrame throws arbitrary bytes at the frame reader: open the
// frame (block table or header scan), then read the whole stream.
// Invariants: neither may panic or allocate unboundedly on hostile
// input (the block plausibility checks run before any allocation), and
// whenever the whole-stream read accepts a frame, a demand read through
// the block cache must produce identical bytes.
//
// Seeds come in pairs: a table-bearing frame and its TrimTable'd twin,
// so both the table parser and the header scan get fuzzed.
//
// Run a short smoke locally with:
//
//	go test ./internal/compress/ -run=NONE -fuzz=FuzzUnpackFrame -fuzztime=10s
func FuzzUnpackFrame(f *testing.F) {
	addPair := func(data []byte, o Options) {
		o.BlockTable = true
		frame, err := Pack(data, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(TrimTable(frame))
	}
	// Well-formed frames across codecs and shapes.
	for _, data := range [][]byte{
		nil,
		[]byte("hello frame"),
		bytes.Repeat([]byte("abcdefgh"), 1024),
		make([]byte, 4096), // all-zero: compresses hard
	} {
		for _, codec := range []uint8{CodecRaw, CodecFlate, CodecLZS, CodecAuto} {
			addPair(data, Options{}.WithCodec(codec))
		}
	}
	// Multi-block frames: default codec and an adaptive frame with mixed
	// per-block codec bits (lzs + raw blocks in one frame).
	addPair(bytes.Repeat([]byte{1, 2, 3}, 10000), Options{BlockSize: 1024})
	mixed := append(bytes.Repeat([]byte("pane line "), 512), seededNoise(4096)...)
	addPair(mixed, Options{BlockSize: 4096, Codec: CodecAuto})
	// Header-only, truncated, and bomb-shaped inputs.
	f.Add(appendHeader(nil, CodecFlate))
	f.Add(appendBlockHeader(appendHeader(nil, CodecFlate), 0, 64<<20, 0))
	f.Add([]byte("DVZB"))

	f.Fuzz(func(t *testing.T, frame []byte) {
		ff, err := OpenFrameBytes(frame)
		if err != nil {
			return
		}
		out, err := ff.ReadAll()
		if err != nil {
			// Rejected by the whole-stream read: the demand path must
			// not crash either.
			_, _ = io.Copy(io.Discard, ff.SequentialReader())
			return
		}
		demand, err := io.ReadAll(ff.SequentialReader())
		if err != nil {
			t.Fatalf("whole-stream read accepted but demand read failed: %v", err)
		}
		if !bytes.Equal(out, demand) {
			t.Fatalf("whole-stream and demand reads disagree: %d vs %d bytes", len(out), len(demand))
		}
		// And the decoded payload must re-pack/unpack cleanly.
		refr, err := Pack(out, Options{})
		if err != nil {
			t.Fatalf("re-Pack: %v", err)
		}
		back, err := Unpack(refr)
		if err != nil {
			t.Fatalf("re-Unpack: %v", err)
		}
		if !bytes.Equal(out, back) {
			t.Fatal("re-packed payload does not round-trip")
		}
	})
}

// FuzzLZSDecode drives the raw LZS token decoder with hostile streams
// against a fuzzer-chosen output size. Invariants: no panic, no write
// outside dst, errors are ErrCorrupt-classified, and any accepted
// (stream, size) pair re-encodes to a stream that decodes to the same
// bytes (encoder and decoder agree on the format).
//
// Run a short smoke locally with:
//
//	go test ./internal/compress/ -run=NONE -fuzz=FuzzLZSDecode -fuzztime=10s
func FuzzLZSDecode(f *testing.F) {
	var c lzsCodec
	for _, data := range [][]byte{
		[]byte("abcdabcdabcdabcd"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("display line "), 200),
		seededNoise(512),
	} {
		coded, err := c.Compress(nil, data, 0)
		if err != nil {
			f.Fatal(err)
		}
		if len(coded) < len(data) {
			f.Add(coded, len(data))
		}
	}
	// Hand-built hostile streams: forward offset, zero offset + overrun.
	f.Add([]byte{0b00000001, 0, 0, 0}, 8)
	f.Add([]byte{0b00010000, 'a', 'b', 'c', 'd', 9, 0, 255}, 300)

	f.Fuzz(func(t *testing.T, stream []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return // the frame layer caps rawLen before sizing dst
		}
		dst := make([]byte, rawLen)
		if err := c.Decompress(dst, stream); err != nil {
			return
		}
		// Accepted: the stream fully determined dst. Re-encoding it must
		// produce a stream that decodes back to the same bytes.
		reEnc, err := c.Compress(nil, dst, 0)
		if err != nil {
			t.Fatalf("re-encode of decoded output: %v", err)
		}
		if len(reEnc) >= len(dst) && len(dst) > 0 {
			return // encoder bailed (incompressible); stored-raw path
		}
		back := make([]byte, len(dst))
		if err := c.Decompress(back, reEnc); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(dst, back) {
			t.Fatal("lzs re-encode does not round-trip")
		}
	})
}
