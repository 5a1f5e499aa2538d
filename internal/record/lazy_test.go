package record

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejaview/internal/compress"
	"dejaview/internal/display"
	"dejaview/internal/simclock"
)

// The tablerecord golden fixture locks the table-bearing on-disk format
// written by current saves: the v2 frame (identical to the v2record
// fixture) followed by the seekable block table. Byte-locking the whole
// file pins the table serialization itself.

// TestTableGoldenBytes locks the write side including the table.
func TestTableGoldenBytes(t *testing.T) {
	s := fixtureStore()
	s.SetCompression(compress.Options{}.WithCodec(compress.CodecRaw))
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, name := range recordFiles {
		want, err := os.ReadFile(filepath.Join("testdata/tablerecord", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("saved %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: saved bytes differ from golden fixture (len %d vs %d)",
				name, len(got), len(want))
		}
	}
}

// TestTableGoldenOpens locks the read side, eagerly and lazily.
func TestTableGoldenOpens(t *testing.T) {
	eager, err := Open("testdata/tablerecord")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	assertStoresEqual(t, eager, fixtureStore())

	lazy, err := OpenLazy("testdata/tablerecord", nil, nil)
	if err != nil {
		t.Fatalf("OpenLazy: %v", err)
	}
	if err := lazy.Materialize(); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	assertStoresEqual(t, lazy, fixtureStore())
}

// TestTableGoldenHasTable guards the fixture's reason to exist.
func TestTableGoldenHasTable(t *testing.T) {
	for _, name := range []string{commandsFile, screenshotsFile, timelineFile} {
		b, err := os.ReadFile(filepath.Join("testdata/tablerecord", name))
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		if !compress.HasBlockTable(b) {
			t.Errorf("%s: fixture stream carries no block table", name)
		}
	}
}

// TestOpenLazyBackwardCompat: lazy open must still accept the committed
// table-less fixtures (v2 and adaptive) and the raw v1 fixture — lazily
// too, since a table-less frame is indexed by its block headers — and
// materialize them to exactly the fixture content.
func TestOpenLazyBackwardCompat(t *testing.T) {
	for _, tc := range []struct {
		dir     string
		scripts func() *Store
	}{
		{"testdata/v1record", fixtureStore},
		{"testdata/v2record", fixtureStore},
		{"testdata/lzsrecord", lzsFixtureStore},
	} {
		s, err := OpenLazy(tc.dir, nil, nil)
		if err != nil {
			t.Errorf("OpenLazy(%s): %v", tc.dir, err)
			continue
		}
		if s.lazy == nil {
			t.Errorf("OpenLazy(%s) decoded the whole screenshot log at open", tc.dir)
		}
		if err := s.Materialize(); err != nil {
			t.Errorf("Materialize(%s): %v", tc.dir, err)
			continue
		}
		assertStoresEqual(t, s, tc.scripts())
	}
}

// TestOpenLazyPartialDecode proves laziness: rendering the first
// keyframe of a freshly opened record decodes strictly fewer screenshot
// blocks than the stream holds, and later access converges to the same
// logical record as an eager open.
func TestOpenLazyPartialDecode(t *testing.T) {
	src := lzsFixtureStore()
	// Small blocks so the screenshot log spans many of them.
	src.SetCompression(compress.Options{BlockSize: 2048})
	dir := t.TempDir()
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	var loads int
	s, err := OpenLazy(dir, func(n int) { loads += n }, nil)
	if err != nil {
		t.Fatal(err)
	}
	afterOpen := loads // validate() decodes the first keyframe only
	shots, err := os.ReadFile(filepath.Join(dir, "screens.dv"))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := compress.OpenFrameBytes(shots)
	if err != nil {
		t.Fatal(err)
	}
	if total := ff.NumBlocks(); afterOpen >= total {
		t.Fatalf("lazy open decoded %d of %d screenshot blocks", afterOpen, total)
	}
	tl := s.Timeline()
	if _, err := s.ScreenshotAt(tl[0]); err != nil {
		t.Fatal(err)
	}
	if loads != afterOpen {
		t.Errorf("first keyframe re-decode: %d extra blocks (cache miss)", loads-afterOpen)
	}
	// Later keyframes fault in more of the prefix.
	if _, err := s.ScreenshotAt(tl[len(tl)-1]); err != nil {
		t.Fatal(err)
	}
	if loads <= afterOpen {
		t.Error("last keyframe decoded no further blocks")
	}
	if err := s.Materialize(); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, lzsFixtureStore())
}

// TestOpenRejectsBadScreenPayload: the one open checks the framed
// screenshot payload's structure up front, even when an empty timeline
// leaves nothing for validate to decode: an empty payload and an
// unknown filter id are corruption, not an empty record.
func TestOpenRejectsBadScreenPayload(t *testing.T) {
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{nil, "empty screenshot payload"},
		{[]byte{7}, "unknown screenshot filter 7"},
	} {
		dir := t.TempDir()
		if err := NewStore(8, 8).Save(dir); err != nil {
			t.Fatal(err)
		}
		frame, err := compress.Pack(tc.payload, compress.Options{BlockTable: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, screenshotsFile), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, open := range map[string]func(string) (*Store, error){
			"Open":     Open,
			"OpenLazy": func(d string) (*Store, error) { return OpenLazy(d, nil, nil) },
		} {
			_, err := open(dir)
			if !errors.Is(err, ErrCorruptRecord) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s with payload %v: err = %v, want %q", name, tc.payload, err, tc.want)
			}
		}
	}
}

// fbBytes fingerprints a framebuffer via its canonical encoding.
func fbBytes(fb *display.Framebuffer) []byte {
	return display.EncodeScreenshot(nil, fb)
}

// TestOpenLazyMatchesEager: full materialization equals the in-memory
// store that was saved bit for bit, and a re-save round-trips.
func TestOpenLazyMatchesEager(t *testing.T) {
	src := lzsFixtureStore()
	dir := t.TempDir()
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenLazy(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := OpenLazy(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := materialized.Materialize(); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, materialized, src)
	dir2 := t.TempDir()
	if err := lazy.Save(dir2); err != nil { // forces materialization
		t.Fatal(err)
	}
	again, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, again, lzsFixtureStore())
}

func TestTruncateBefore(t *testing.T) {
	src := lzsFixtureStore() // keyframes at 0s, 100s, 200s, 300s, 400s
	tl := src.Timeline()
	if len(tl) < 3 {
		t.Fatalf("fixture has %d keyframes", len(tl))
	}
	cut := tl[2].Time
	wantShots := make([][]byte, 0, len(tl)-2)
	for _, e := range tl[2:] {
		fb, err := src.ScreenshotAt(e)
		if err != nil {
			t.Fatal(err)
		}
		wantShots = append(wantShots, fbBytes(fb))
	}
	wantDur := src.Duration()

	dropped, err := src.TruncateBefore(cut + simclock.Second/2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d entries, want 2", dropped)
	}
	got := src.Timeline()
	if len(got) != len(tl)-2 {
		t.Fatalf("%d entries left, want %d", len(got), len(tl)-2)
	}
	if got[0].Time != cut {
		t.Errorf("new base keyframe at %v, want %v", got[0].Time, cut)
	}
	for i, e := range got {
		fb, err := src.ScreenshotAt(e)
		if err != nil {
			t.Fatalf("entry %d after truncate: %v", i, err)
		}
		if !bytes.Equal(fbBytes(fb), wantShots[i]) {
			t.Errorf("keyframe %d changed after truncation", i)
		}
		// The entry's first command still decodes.
		if e.CmdOff < src.EndOfCommands() {
			if _, _, err := src.DecodeCommandAt(e.CmdOff); err != nil {
				t.Errorf("entry %d command: %v", i, err)
			}
		}
	}
	if src.Duration() != wantDur {
		t.Errorf("duration %v after truncation, want %v", src.Duration(), wantDur)
	}
	// A truncated record survives a save/open cycle.
	dir := t.TempDir()
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("reopen truncated record: %v", err)
	}
	// Truncating before the first keyframe is a no-op.
	n, err := src.TruncateBefore(0)
	if err != nil || n != 0 {
		t.Fatalf("TruncateBefore(0) = (%d, %v)", n, err)
	}
}
