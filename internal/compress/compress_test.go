package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// corpus builds n bytes of mixed content: compressible structured runs
// interleaved with incompressible noise, exercising both block paths.
func corpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, n)
	for len(b) < n {
		switch rng.Intn(3) {
		case 0: // run
			c := byte(rng.Intn(256))
			for i := 0; i < 4096 && len(b) < n; i++ {
				b = append(b, c)
			}
		case 1: // structured counters
			for i := 0; i < 1024 && len(b) < n; i++ {
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], uint64(i)*0x9E3779B9)
				b = append(b, w[:]...)
			}
		default: // noise
			for i := 0; i < 512 && len(b) < n; i++ {
				b = append(b, byte(rng.Intn(256)))
			}
		}
	}
	return b[:n]
}

func roundtrip(t *testing.T, data []byte, o Options) []byte {
	t.Helper()
	frame, err := Pack(data, o)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(frame)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch: %d bytes in, %d out", len(data), len(got))
	}
	return frame
}

func TestPackRoundtrip(t *testing.T) {
	inputs := map[string][]byte{
		"empty":        {},
		"one":          {0x42},
		"block-exact":  corpus(DefaultBlockSize, 1),
		"block-plus-1": corpus(DefaultBlockSize+1, 2),
		"multi-block":  corpus(3*DefaultBlockSize+777, 3),
		"zeros":        make([]byte, 100_000),
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			roundtrip(t, data, Options{})
		})
	}
}

func TestPackWorkerCounts(t *testing.T) {
	data := corpus(1<<20, 4)
	var frames [][]byte
	for _, w := range []int{1, 2, 4, 8} {
		frames = append(frames, roundtrip(t, data, Options{Workers: w, BlockSize: 64 << 10}))
	}
	// The frame bytes must be deterministic regardless of parallelism.
	for i := 1; i < len(frames); i++ {
		if !bytes.Equal(frames[0], frames[i]) {
			t.Fatalf("frame differs between worker counts")
		}
	}
}

func TestPackCompresses(t *testing.T) {
	data := bytes.Repeat([]byte("the same desktop line over and over "), 20_000)
	frame := roundtrip(t, data, Options{})
	if len(frame) > len(data)/4 {
		t.Fatalf("redundant input compressed to %d of %d bytes", len(frame), len(data))
	}
}

func TestPackIncompressibleOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 1<<20)
	rng.Read(data)
	frame := roundtrip(t, data, Options{})
	overhead := len(frame) - len(data)
	blocks := (len(data) + DefaultBlockSize - 1) / DefaultBlockSize
	maxOverhead := headerSize + (blocks+1)*blockHeaderSize
	if overhead > maxOverhead {
		t.Fatalf("incompressible input grew by %d bytes, framing bound is %d", overhead, maxOverhead)
	}
}

func TestRawCodec(t *testing.T) {
	data := corpus(300_000, 5)
	frame, err := Pack(data, Options{}.WithCodec(CodecRaw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(frame)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("raw roundtrip failed: %v", err)
	}
}

func TestUnknownCodec(t *testing.T) {
	frame, _ := Pack([]byte("x"), Options{})
	frame[5] = 0x7f
	if _, err := Unpack(frame); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("got %v, want ErrUnknownCodec", err)
	}
}

// Corruption table: every structural violation must surface as
// ErrCorrupt, never a panic or silent bad data.
func TestUnpackCorrupt(t *testing.T) {
	data := corpus(DefaultBlockSize+500, 6)
	frame, err := Pack(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":          func(f []byte) []byte { return nil },
		"bad-magic":      func(f []byte) []byte { f[0] = 'X'; return f },
		"bad-version":    func(f []byte) []byte { f[4] = 99; return f },
		"short-header":   func(f []byte) []byte { return f[:5] },
		"truncated-mid":  func(f []byte) []byte { return f[:len(f)/2] },
		"no-terminator":  func(f []byte) []byte { return f[:len(f)-blockHeaderSize] },
		"crc-flip":       func(f []byte) []byte { f[len(f)-blockHeaderSize-1] ^= 0xff; return f },
		"bad-terminator": func(f []byte) []byte { f[len(f)-1] = 1; return f },
		"rawlen-overflow": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[headerSize+4:], MaxBlockSize+1)
			return f
		},
		"complen-overflow": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[headerSize:], uint32(len(f)+100))
			return f
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mutated := mutate(append([]byte(nil), frame...))
			_, err := Unpack(mutated)
			if err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestStreamRoundtrip(t *testing.T) {
	data := corpus(2*DefaultBlockSize+123, 7)
	for _, chunk := range []int{1, 7, 4096, len(data)} {
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, Options{BlockSize: 64 << 10, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += chunk {
			if _, err := zw.Write(data[off:min(off+chunk, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		// A streamed frame is also a valid Pack frame.
		got, err := Unpack(buf.Bytes())
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("chunk=%d: Unpack of streamed frame failed: %v", chunk, err)
		}
		ff, err := OpenFrameBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err = io.ReadAll(ff.SequentialReader())
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("chunk=%d: demand read failed: %v", chunk, err)
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf.Bytes())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: got %d bytes, err %v", len(got), err)
	}
}

// TestReaderTruncated: a frame cut mid-stream never reads back as a
// shorter stream through MaybeReader.
func TestReaderTruncated(t *testing.T) {
	data := corpus(300_000, 10)
	frame, _ := Pack(data, Options{BlockSize: 64 << 10})
	if _, err := MaybeReader(bytes.NewReader(frame[:len(frame)/2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestMaybeReader(t *testing.T) {
	data := corpus(200_000, 11)
	frame, _ := Pack(data, Options{})
	for name, in := range map[string][]byte{"compressed": frame, "raw": data, "short": {1, 2}} {
		t.Run(name, func(t *testing.T) {
			want := data
			if name == "short" {
				want = in
			}
			r, err := MaybeReader(bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("MaybeReader mismatch: %d bytes, want %d", len(got), len(want))
			}
		})
	}
}
