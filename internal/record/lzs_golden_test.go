package record

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dejaview/internal/compress"
)

// The lzsrecord golden fixture locks the adaptive-codec container:
// testdata/lzsrecord was written by TestGenLZSFixture with CodecAuto on
// repeat-dense content, so every coded block is LZS or stored raw — both
// byte-deterministic formats we own — and the fixture can be locked byte
// for byte like the CodecRaw one (flate blocks could not be: their
// bitstream belongs to the stdlib and may drift between Go releases).

// TestLZSGoldenOpens locks the read side: the committed adaptive fixture
// must open and decode to the scripted logical record.
func TestLZSGoldenOpens(t *testing.T) {
	got, err := Open("testdata/lzsrecord")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	assertStoresEqual(t, got, lzsFixtureStore())
}

// TestLZSGoldenBytes locks the write side: re-saving the scripted store
// with CodecAuto must reproduce the committed files byte for byte. A
// mismatch means the LZS token format, the adaptive selector, or the
// per-block codec-bit encoding changed — all format breaks, not fixture
// drift.
func TestLZSGoldenBytes(t *testing.T) {
	s := lzsFixtureStore()
	s.SetCompression(compress.Options{}.WithCodec(compress.CodecAuto))
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, name := range recordFiles {
		want, err := os.ReadFile(filepath.Join("testdata/lzsrecord", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("saved %s: %v", name, err)
		}
		// The fixture predates the block table; compare the sequential
		// frame only (the table sits past the terminator).
		if !bytes.Equal(compress.TrimTable(got), want) {
			t.Errorf("%s: saved bytes differ from golden fixture (len %d vs %d)",
				name, len(got), len(want))
		}
	}
}

// TestLZSGoldenStats guards the fixture's reason to exist: every frame
// is an adaptive frame, no block is flate-coded (the fixture would stop
// being byte-lockable), and at least one block actually took the LZS
// path.
func TestLZSGoldenStats(t *testing.T) {
	lzsBlocks := 0
	for _, name := range []string{commandsFile, screenshotsFile, timelineFile} {
		b, err := os.ReadFile(filepath.Join("testdata/lzsrecord", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		ff, err := compress.OpenFrameBytes(b)
		if err != nil {
			t.Fatalf("%s: OpenFrameBytes: %v", name, err)
		}
		st := ff.Stats()
		if st.Codec != compress.CodecAuto {
			t.Errorf("%s: frame codec %d, want CodecAuto", name, st.Codec)
		}
		if n := st.PerCodec["flate"]; n != 0 {
			t.Errorf("%s: %d flate blocks in the byte-locked fixture", name, n)
		}
		lzsBlocks += st.PerCodec["lzs"]
	}
	if lzsBlocks == 0 {
		t.Error("fixture has no lzs-coded blocks; it does not exercise the codec")
	}
}
