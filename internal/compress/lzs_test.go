package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// lzsRoundtrip compresses data with the raw codec entry points (no frame
// layer) and decodes it back, failing on any mismatch. It returns the
// coded stream for callers that want to inspect or corrupt it.
func lzsRoundtrip(t *testing.T, data []byte) []byte {
	t.Helper()
	var c lzsCodec
	coded, err := c.Compress(nil, data, 0)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(coded) >= len(data) && len(data) > 0 {
		// Encoder bailed out (incompressible); callers store such blocks
		// raw, so there is nothing to decode.
		return nil
	}
	got := make([]byte, len(data))
	if err := c.Decompress(got, coded); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("lzs roundtrip mismatch: %d bytes", len(data))
	}
	return coded
}

func TestLZSRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	noise := make([]byte, 100_000)
	rng.Read(noise)
	inputs := map[string][]byte{
		"empty":        {},
		"one":          {0x42},
		"three":        {1, 2, 3}, // below lzsMinMatch: literal-only path
		"min-match":    []byte("abababab"),
		"run":          bytes.Repeat([]byte{7}, 50_000), // RLE via overlap
		"text":         bytes.Repeat([]byte("the same desktop line over and over "), 10_000),
		"counters":     corpus(200_000, 22),
		"noise":        noise, // must bail out, not expand the frame
		"window-reach": append(append(bytes.Repeat([]byte("UNIQ-PREFIX-0123"), 64), make([]byte, 60_000)...), bytes.Repeat([]byte("UNIQ-PREFIX-0123"), 64)...),
		"max-match":    bytes.Repeat([]byte{9}, lzsMaxMatch*3+5),
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			lzsRoundtrip(t, data)
		})
	}
}

// TestLZSCompressesRuns locks the ratio floor on the codec's home turf:
// XOR-delta'd keyframes and repeated display commands are run- and
// phrase-heavy, and the matcher must convert that into real shrinkage.
func TestLZSCompressesRuns(t *testing.T) {
	data := bytes.Repeat([]byte("MOVE 12,34 DRAW rect 640x480 FILL #ffffff "), 20_000)
	coded := lzsRoundtrip(t, data)
	if coded == nil || len(coded) > len(data)/20 {
		t.Fatalf("phrase-heavy input coded to %d of %d bytes", len(coded), len(data))
	}
	// Pure runs floor out at ~3.4 bytes per lzsMaxMatch-byte match
	// (3-byte token plus amortized control bits), ≈1.3% of raw.
	zeros := lzsRoundtrip(t, make([]byte, 1<<20))
	if zeros == nil || len(zeros) > (1<<20)/64 {
		t.Fatalf("1 MiB of zeros coded to %d bytes", len(zeros))
	}
}

// TestLZSPooledStateReuse runs many compressions of different shapes on
// the same goroutine so pooled tables are reused across blocks with
// stale head/chain contents, which the validity bitmap and backwards
// walk must neutralize.
func TestLZSPooledStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(1<<16)
		data := corpus(n, int64(i))
		lzsRoundtrip(t, data)
	}
}

// TestLZSDecompressCorrupt: every malformed token stream must surface
// ErrCorrupt — never a panic, never out-of-bounds writes.
func TestLZSDecompressCorrupt(t *testing.T) {
	var c lzsCodec
	// A valid stream to mutate: one control byte, match bit 1 set after a
	// 4-literal prefix would be position-dependent, so build by hand.
	// ctrl 0b00010000: items 0-3 literal "abcd", item 4 match off=4 len=4.
	valid := []byte{0b00010000, 'a', 'b', 'c', 'd', 4, 0, 0}
	out := make([]byte, 8)
	if err := c.Decompress(out, valid); err != nil || string(out) != "abcdabcd" {
		t.Fatalf("hand-built stream: %q, %v", out, err)
	}
	cases := map[string]struct {
		dstLen int
		src    []byte
	}{
		"empty-src-nonempty-dst": {4, nil},
		"stream-ends-short":      {8, []byte{0, 'a', 'b'}},
		"literal-past-end":       {2, []byte{0, 'a'}},
		"match-token-truncated":  {8, []byte{0b00010000, 'a', 'b', 'c', 'd', 4, 0}},
		"zero-offset":            {8, []byte{0b00010000, 'a', 'b', 'c', 'd', 0, 0, 0}},
		"offset-before-start":    {8, []byte{0b00010000, 'a', 'b', 'c', 'd', 9, 0, 0}},
		"match-overruns-dst":     {6, []byte{0b00010000, 'a', 'b', 'c', 'd', 4, 0, 200}},
		"trailing-bytes":         {8, []byte{0b00010000, 'a', 'b', 'c', 'd', 4, 0, 0, 0xee}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := c.Decompress(make([]byte, tc.dstLen), tc.src)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLZSFrameCodec exercises CodecLZS through the full frame layer, and
// TestAutoFrame the adaptive path, including cross-format agreement with
// the streaming writer (same invariant TestPackWorkerCounts locks for
// flate).
func TestLZSFrameCodec(t *testing.T) {
	data := corpus(3*DefaultBlockSize+999, 24)
	frame := roundtrip(t, data, Options{}.WithCodec(CodecLZS))
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st := ff.Stats(); st.Codec != CodecLZS || st.Blocks == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st := ff.Stats(); st.PerCodec["lzs"] == 0 {
		t.Fatalf("no lzs-coded blocks in an lzs frame: %+v", st.PerCodec)
	}
}

func TestAutoFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	noise := make([]byte, 256<<10)
	rng.Read(noise)
	// Three-personality payload: phrase-heavy (lzs), noise (raw), and
	// skewed-but-unrepetitive (flate) blocks, one block each.
	skew := make([]byte, 256<<10)
	for i := range skew {
		skew[i] = byte(rng.Intn(16)) // low entropy, few 4-gram repeats
	}
	data := append(append(bytes.Repeat([]byte("scroll line 42 "), 256<<10/15+1)[:256<<10], noise...), skew...)
	frame := roundtrip(t, data, Options{BlockSize: 256 << 10, Codec: CodecAuto})
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	st := ff.Stats()
	if st.Codec != CodecAuto {
		t.Fatalf("frame codec = %d, want CodecAuto", st.Codec)
	}
	if st.PerCodec["lzs"] == 0 || st.PerCodec["raw"] == 0 {
		t.Fatalf("auto selection missed a personality: %+v", st.PerCodec)
	}
	// Deterministic regardless of worker count, like every other codec.
	for _, w := range []int{1, 2, 8} {
		f2 := roundtrip(t, data, Options{BlockSize: 256 << 10, Codec: CodecAuto, Workers: w})
		if !bytes.Equal(frame, f2) {
			t.Fatalf("auto frame differs at %d workers", w)
		}
	}
}

// TestSelectCodecID pins the heuristic's behavior on each block
// personality so a tuning change that flips a class shows up here, not
// as a silent ratio regression in dvbench.
func TestSelectCodecID(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	noise := make([]byte, 128<<10)
	rng.Read(noise)
	skew := make([]byte, 128<<10)
	for i := range skew {
		skew[i] = byte(rng.Intn(16))
	}
	repeats := bytes.Repeat([]byte("DRAW 640x480 rect at 12,34 "), 5000)
	cases := map[string]struct {
		data []byte
		want uint8
	}{
		"tiny":     {[]byte{1, 2, 3}, CodecRaw},
		"noise":    {noise, CodecRaw},
		"skewed":   {skew, CodecFlate},
		"repeats":  {repeats, CodecLZS},
		"zeros":    {make([]byte, 64 << 10), CodecLZS},
		"sampled":  {bytes.Repeat(repeats, 20), CodecLZS}, // > autoSampleBytes, strided
		"xordelta": {append(make([]byte, 100<<10), repeats...), CodecLZS},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if got := selectCodecID(tc.data); got != tc.want {
				t.Fatalf("selectCodecID = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestMatchLen covers the 8-at-a-time comparison's boundary behavior.
func TestMatchLen(t *testing.T) {
	src := []byte("abcdefgh-abcdefgh-abcdefgX")
	if got := matchLen(src, 0, 9, 17); got != 8+1+7 {
		t.Fatalf("matchLen = %d, want 16", got)
	}
	if got := matchLen(src, 0, 9, 4); got != 4 {
		t.Fatalf("capped matchLen = %d, want 4", got)
	}
	same := bytes.Repeat([]byte{5}, 64)
	if got := matchLen(same, 0, 32, 32); got != 32 {
		t.Fatalf("tail matchLen = %d, want 32", got)
	}
}

// TestStatsRejectsCorrupt: the block index Stats reads is validated like
// the decoders validate blocks.
func TestStatsRejectsCorrupt(t *testing.T) {
	frame := roundtrip(t, corpus(100_000, 27), Options{})
	if _, err := OpenFrameBytes(frame[:len(frame)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	// Nonzero codec bits in a single-codec frame are structural corruption.
	f2 := roundtrip(t, corpus(100_000, 28), Options{}.WithCodec(CodecFlate))
	bad := append([]byte(nil), f2...)
	compLen := binary.LittleEndian.Uint32(bad[headerSize:])
	binary.LittleEndian.PutUint32(bad[headerSize:], compLen|uint32(CodecLZS)<<blockCodecShift)
	if _, err := OpenFrameBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("codec bits in flate frame: %v", err)
	}
	if _, err := Unpack(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Unpack codec bits in flate frame: %v", err)
	}
}
