package compress

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"dejaview/internal/failpoint"
)

// tableTestData builds a deterministic mixed-entropy payload that spans
// several blocks.
func tableTestData(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, n)
	for i := range data {
		switch (i / 512) % 3 {
		case 0:
			data[i] = byte(i % 7) // repetitive: compresses
		case 1:
			data[i] = byte(rng.Intn(256)) // noise: stored raw
		default:
			data[i] = 'a' + byte(i%13)
		}
	}
	return data
}

func TestBlockTableRoundTrip(t *testing.T) {
	data := tableTestData(10000)
	for _, codec := range []uint8{CodecRaw, CodecFlate, CodecLZS, CodecAuto} {
		o := Options{BlockSize: 1024, BlockTable: true}.WithCodec(codec)
		frame, err := Pack(data, o)
		if err != nil {
			t.Fatalf("codec %d: Pack: %v", codec, err)
		}
		if !HasBlockTable(frame) {
			t.Fatalf("codec %d: no table footer", codec)
		}
		// Sequential readers must be oblivious to the table.
		got, err := Unpack(frame)
		if err != nil {
			t.Fatalf("codec %d: Unpack: %v", codec, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("codec %d: Unpack mismatch", codec)
		}
		// TrimTable recovers the table-less frame byte for byte.
		plain, err := Pack(data, Options{BlockSize: 1024}.WithCodec(codec))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(TrimTable(frame), plain) {
			t.Fatalf("codec %d: TrimTable != table-less Pack", codec)
		}
		// Random access decodes the same bytes.
		ff, err := OpenFrameBytes(frame)
		if err != nil {
			t.Fatalf("codec %d: OpenFrameBytes: %v", codec, err)
		}
		if ff.RawSize() != int64(len(data)) {
			t.Fatalf("codec %d: RawSize %d, want %d", codec, ff.RawSize(), len(data))
		}
		for _, span := range [][2]int{{0, 100}, {1000, 3000}, {9990, 10}, {5000, 1}, {0, len(data)}} {
			buf := make([]byte, span[1])
			if _, err := ff.ReadAt(buf, int64(span[0])); err != nil {
				t.Fatalf("codec %d: ReadAt(%d,%d): %v", codec, span[0], span[1], err)
			}
			if !bytes.Equal(buf, data[span[0]:span[0]+span[1]]) {
				t.Fatalf("codec %d: ReadAt(%d,%d) mismatch", codec, span[0], span[1])
			}
		}
		// Past-the-end reads follow io.ReaderAt semantics.
		buf := make([]byte, 32)
		if n, err := ff.ReadAt(buf, int64(len(data))-16); n != 16 || !errors.Is(err, io.EOF) {
			t.Fatalf("codec %d: tail ReadAt = (%d, %v), want (16, EOF)", codec, n, err)
		}
	}
}

// TestBlockTableStreamWriter locks Writer's table against Pack's: the
// two write paths must emit identical frames for identical input.
func TestBlockTableStreamWriter(t *testing.T) {
	data := tableTestData(5000)
	o := Options{BlockSize: 512, BlockTable: true}.WithCodec(CodecLZS)
	packed, err := Pack(data, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), packed) {
		t.Fatalf("Writer frame (%d bytes) differs from Pack frame (%d bytes)", buf.Len(), len(packed))
	}
}

func TestBlockTableLazyDecode(t *testing.T) {
	data := tableTestData(64 << 10)
	frame, err := Pack(data, Options{BlockSize: 4096, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	var loads int
	ff.SetLoadHook(func(n int) { loads += n })
	buf := make([]byte, 100)
	if _, err := ff.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("one-block read decoded %d blocks", loads)
	}
	// Re-reading the same block hits the cache.
	if _, err := ff.ReadAt(buf, 50); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("cached re-read decoded %d extra blocks", loads-1)
	}
	if ff.NumBlocks() != 16 {
		t.Fatalf("NumBlocks = %d, want 16", ff.NumBlocks())
	}
}

func TestBlockTableSequentialReader(t *testing.T) {
	data := tableTestData(20000)
	frame, err := Pack(data, Options{BlockSize: 1000, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(ff.SequentialReader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("SequentialReader mismatch")
	}
}

func TestBlockTableMissing(t *testing.T) {
	frame, err := Pack(tableTestData(1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if HasBlockTable(frame) {
		t.Fatal("table-less frame claims a table")
	}
	// It still opens: the block index comes from a header scan, and
	// both read shapes decode the same bytes.
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatalf("table-less OpenFrameBytes: %v", err)
	}
	buf := make([]byte, 100)
	if _, err := ff.ReadAt(buf, 450); err != nil || !bytes.Equal(buf, tableTestData(1000)[450:550]) {
		t.Fatalf("table-less ReadAt: %v", err)
	}
	if all, err := ff.ReadAll(); err != nil || !bytes.Equal(all, tableTestData(1000)) {
		t.Fatalf("table-less ReadAll: %v", err)
	}
	// Losing the terminator leaves nothing to scan to.
	if _, err := OpenFrameBytes(frame[:len(frame)-blockHeaderSize]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("terminator-less OpenFrameBytes = %v, want ErrCorrupt", err)
	}
	// Empty-input frame with a table still opens.
	empty, err := Pack(nil, Options{BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err = OpenFrameBytes(empty)
	if err != nil {
		t.Fatal(err)
	}
	if ff.RawSize() != 0 || ff.NumBlocks() != 0 {
		t.Fatalf("empty frame: size %d blocks %d", ff.RawSize(), ff.NumBlocks())
	}
}

func TestBlockTableCorrupt(t *testing.T) {
	data := tableTestData(8192)
	frame, err := Pack(data, Options{BlockSize: 1024, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), frame...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"table crc":    mutate(func(b []byte) { b[len(b)-40] ^= 0xff }),
		"footer off":   mutate(func(b []byte) { b[len(b)-20] ^= 0x01 }),
		"footer count": mutate(func(b []byte) { b[len(b)-12] ^= 0x01 }),
	}
	for name, b := range cases {
		if _, err := OpenFrameBytes(b); err == nil {
			t.Errorf("%s: corrupt table opened", name)
		}
	}
	// A truncated footer loses the table, not the data: without the
	// footer magic the frame is indexed by its block headers and still
	// reads back exactly what was packed.
	ff, err := OpenFrameBytes(frame[:len(frame)-1])
	if err != nil {
		t.Fatalf("truncated footer: %v", err)
	}
	if got, err := ff.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("truncated footer: ReadAll = %v, or wrong bytes", err)
	}
	// Payload corruption surfaces at decode time through the CRC.
	b := append([]byte(nil), frame...)
	b[headerSize+blockHeaderSize+3] ^= 0xff
	ff, err = OpenFrameBytes(b)
	if err != nil {
		t.Fatalf("open with corrupt payload: %v", err)
	}
	if _, err := ff.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload ReadAt = %v, want ErrCorrupt", err)
	}
}

// TestBlockTableReadFailpoint proves the compress/readat failpoint is
// live on the demand-decode path: injected read errors and corruption
// surface as errors, never as silently wrong bytes.
func TestBlockTableReadFailpoint(t *testing.T) {
	defer failpoint.Reset()
	data := tableTestData(8192)
	frame, err := Pack(data, Options{BlockSize: 1024, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Arm("compress/readat", failpoint.Policy{Mode: failpoint.ModeError})
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff.ReadAt(make([]byte, 10), 0); err == nil {
		t.Fatal("armed readat failpoint: ReadAt succeeded")
	}
	failpoint.Reset()
	failpoint.Arm("compress/readat", failpoint.Policy{Mode: failpoint.ModeCorrupt})
	ff2, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff2.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped block ReadAt = %v, want ErrCorrupt", err)
	}
}

func FuzzBlockTable(f *testing.F) {
	data := tableTestData(4096)
	for _, o := range []Options{
		{BlockSize: 512, BlockTable: true},
		{BlockSize: 1024, BlockTable: true, Codec: CodecLZS},
	} {
		frame, err := Pack(data, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-7])  // truncated footer
		f.Add(frame[:len(frame)-40]) // truncated table
		mut := append([]byte(nil), frame...)
		mut[len(mut)-16] ^= 0x40 // corrupt count
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ff, err := OpenFrameBytes(b)
		if err != nil {
			return
		}
		// A structurally valid table must never promise more raw bytes
		// than the block-expansion bound allows (decompression-bomb
		// guard: same 2048:1 cap as Unpack).
		if ff.RawSize() > int64(len(b))*maxBlockRatio+64*int64(ff.NumBlocks()+1) {
			t.Fatalf("table promises %d raw bytes from a %d-byte frame", ff.RawSize(), len(b))
		}
		buf := make([]byte, 256)
		for off := int64(0); off < ff.RawSize(); off += 1777 {
			if _, err := ff.ReadAt(buf, off); err != nil {
				return // corrupt payloads must error, not crash
			}
		}
	})
}

// TestReadRange pins the whole-stream read: any span reads back exactly,
// resident blocks are copied rather than decoded again, the load hook
// sees only the blocks actually decoded, and the cache is left exactly
// as it was — no insertions, no hit or miss counted.
func TestReadRange(t *testing.T) {
	data := tableTestData(10000)
	frame, err := Pack(data, Options{BlockSize: 1024, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBlockCache(1 << 20)
	ff.SetBlockCache(bc)
	var loads int
	ff.SetLoadHook(func(n int) { loads += n })
	if _, err := ff.ReadAt(make([]byte, 10), 2100); err != nil { // block 2 resident
		t.Fatal(err)
	}
	before := bc.Stats()
	loads = 0
	p := make([]byte, 7000-1500)
	if err := ff.ReadRange(p, 1500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[1500:7000]) {
		t.Fatal("ReadRange returned wrong bytes")
	}
	// Blocks 1..6 cover the span; block 2 was resident.
	if loads != 5 {
		t.Errorf("ReadRange decoded %d blocks, want 5", loads)
	}
	if after := bc.Stats(); after != before {
		t.Errorf("ReadRange touched the cache: %+v -> %+v", before, after)
	}
	if all, err := ff.ReadAll(); err != nil || !bytes.Equal(all, data) {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := ff.ReadRange(make([]byte, 2), int64(len(data))-1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadRange past the end = %v, want ErrCorrupt", err)
	}
}

// TestOpenStream: the framed-versus-raw sniff. A frame opens framed; any
// other bytes — including streams too short to hold the magic — read
// back verbatim through every read shape.
func TestOpenStream(t *testing.T) {
	data := tableTestData(3000)
	frame, err := Pack(data, Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		in     []byte
		framed bool
	}{
		"frame": {frame, true},
		"raw":   {data, false},
		"short": {[]byte{1, 2}, false},
		"empty": {nil, false},
	} {
		ff, err := OpenStream(bytes.NewReader(tc.in), int64(len(tc.in)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tc.in
		if tc.framed {
			want = data
		}
		if ff.Framed() != tc.framed {
			t.Errorf("%s: Framed = %v", name, ff.Framed())
		}
		all, err := ff.ReadAll()
		if err != nil || !bytes.Equal(all, want) {
			t.Errorf("%s: ReadAll = %v, or wrong bytes", name, err)
		}
		seq, err := io.ReadAll(ff.SequentialReader())
		if err != nil || !bytes.Equal(seq, want) {
			t.Errorf("%s: SequentialReader = %v, or wrong bytes", name, err)
		}
	}
	// A stream with the magic must be a whole frame.
	if _, err := OpenStream(bytes.NewReader(frame[:6]), 6); !errors.Is(err, ErrCorrupt) {
		t.Errorf("magic-only stream = %v, want ErrCorrupt", err)
	}
}

// TestConcurrentReads races demand reads and whole-stream reads of one
// frame over a shared cache (run under -race): every reader sees the
// packed bytes.
func TestConcurrentReads(t *testing.T) {
	data := tableTestData(40 << 10)
	frame, err := Pack(data, Options{BlockSize: 4096, BlockTable: true})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFrameBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetBlockCache(NewBlockCache(1 << 20))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var got []byte
				var err error
				if (g+i)%2 == 0 {
					got, err = ff.ReadAll()
				} else {
					got, err = io.ReadAll(ff.SequentialReader())
				}
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("reader %d pass %d: %v, or wrong bytes", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
