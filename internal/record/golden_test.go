package record

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dejaview/internal/compress"
)

// The v2 golden fixture locks the on-disk storage format: testdata/v2record
// was written by TestGenV2Fixture (CodecRaw, so the byte stream is fully
// determined by the container framing, not by any codec's bitstream) and
// is committed to the repository. These tests fail if either direction of
// the format drifts — the reader must keep opening archived bytes, and
// the writer must keep producing exactly them.

var recordFiles = []string{commandsFile, screenshotsFile, timelineFile, metaFile}

// TestV2GoldenOpens locks the read side: the committed v2 fixture must
// open and decode to the same logical record the generator scripted.
func TestV2GoldenOpens(t *testing.T) {
	got, err := Open("testdata/v2record")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	assertStoresEqual(t, got, fixtureStore())
}

// TestV2GoldenBytes locks the write side: re-saving the scripted fixture
// store must reproduce the committed files byte for byte. A mismatch
// means the v2 container framing changed — that is a format break and
// needs a version bump, not a fixture regeneration. The fixture predates
// the seekable block table, so the comparison strips the table that
// current saves append past the frame terminator: everything a
// sequential reader consumes must still match exactly.
func TestV2GoldenBytes(t *testing.T) {
	s := fixtureStore()
	s.SetCompression(compress.Options{}.WithCodec(compress.CodecRaw))
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, name := range recordFiles {
		want, err := os.ReadFile(filepath.Join("testdata/v2record", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("saved %s: %v", name, err)
		}
		if !bytes.Equal(compress.TrimTable(got), want) {
			t.Errorf("%s: saved bytes differ from golden fixture (len %d vs %d)",
				name, len(got), len(want))
		}
	}
}

// TestV2GoldenIsV2 guards the fixture itself: every stream except the
// raw metadata header must carry the v2 frame magic, so the fixture
// really exercises the compressed container path.
func TestV2GoldenIsV2(t *testing.T) {
	for _, name := range []string{commandsFile, screenshotsFile, timelineFile} {
		b, err := os.ReadFile(filepath.Join("testdata/v2record", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		if _, err := compress.FrameCodec(b); err != nil {
			t.Errorf("%s: fixture stream is not a v2 frame", name)
		}
	}
}
