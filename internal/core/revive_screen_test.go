package core

import (
	"path/filepath"
	"testing"

	"dejaview/internal/compress"
	"dejaview/internal/display"
	"dejaview/internal/record"
	"dejaview/internal/vexec"
)

// paint submits a full-width band and, when flush is set, delivers it.
func paint(t *testing.T, s *Session, y int, px display.Pixel, flush bool) {
	t.Helper()
	if err := s.Display().Submit(display.SolidFill(0, display.NewRect(0, y, 1024, 96), px)); err != nil {
		t.Fatal(err)
	}
	if flush {
		if _, err := s.Display().Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForcedCheckpointRevivesQueuedOutput forces a checkpoint while
// output is still queued in the display server. The checkpoint flushes
// it first, so the revived screen is the one the checkpoint captured —
// queued commands included, later ones not.
func TestForcedCheckpointRevivesQueuedOutput(t *testing.T) {
	s := NewSession(Config{})
	if _, err := s.Container().Spawn(0, "app"); err != nil {
		t.Fatal(err)
	}
	paint(t, s, 0, display.RGB(1, 2, 3), true)
	s.Clock().Advance(sec)
	paint(t, s, 200, display.RGB(4, 5, 6), false) // queued, not flushed
	if s.Display().Pending() == 0 {
		t.Fatal("setup: nothing queued")
	}
	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := s.Display().Screen()
	// Output after the checkpoint must not leak into the revive.
	s.Clock().Advance(sec)
	paint(t, s, 400, display.RGB(7, 8, 9), false)
	if _, _, err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	rv, err := s.ReviveCheckpoint(res.Image.Counter)
	if err != nil {
		t.Fatal(err)
	}
	if got := rv.Display.Screen().Hash(); got != want.Hash() {
		t.Errorf("revived screen %#x, checkpointed %#x", got, want.Hash())
	}
	if n := len(s.displayState); n != 0 {
		t.Errorf("record-backed session kept %d screen snapshots", n)
	}
}

// TestSnapshotFallbackRevivesScreen covers the sessions whose display
// record cannot reproduce the screen: they keep a screen snapshot per
// checkpoint, and a revive still shows the checkpointed screen.
func TestSnapshotFallbackRevivesScreen(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no-display-recording", Config{DisableDisplayRecording: true}},
		{"record-scale", Config{RecordScaleW: 512, RecordScaleH: 384}},
		{"frequency-limited", Config{Record: record.Options{MinLogInterval: 5 * sec}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(tc.cfg)
			if s.recordHoldsScreen {
				t.Fatal("session claims its record reproduces the screen")
			}
			if _, err := s.Container().Spawn(0, "app"); err != nil {
				t.Fatal(err)
			}
			var counters []uint64
			var screens []uint64
			// Each checkpoint's band is overwritten by the next one, so a
			// frequency-limited record merges it away before logging.
			for i := 0; i < 4; i++ {
				paint(t, s, 0, display.Pixel(0x10101*(i+1)), false)
				res, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				counters = append(counters, res.Image.Counter)
				screens = append(screens, s.Display().Screen().Hash())
				s.Clock().Advance(sec)
			}
			for i, c := range counters {
				rv, err := s.ReviveCheckpoint(c)
				if err != nil {
					t.Fatal(err)
				}
				if got := rv.Display.Screen().Hash(); got != screens[i] {
					t.Errorf("checkpoint %d: revived screen %#x, checkpointed %#x", c, got, screens[i])
				}
			}
		})
	}
}

// TestLazyReviveDecodesEachBlockOnce revives a checkpoint chain much
// larger than the archive's block cache. Pages materialize in payload
// order, so each compressed block of the image stream decodes at most
// once per revive instead of thrashing the cache.
func TestLazyReviveDecodesEachBlockOnce(t *testing.T) {
	s := NewSession(Config{})
	p, err := s.Container().Spawn(0, "app")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 640 // ten 256 KiB blocks of payload
	addr, err := p.Mem().Mmap(pages*vexec.PageSize, vexec.PermRead|vexec.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < pages; i++ {
			if round > 0 && i%(round+2) != 0 {
				continue
			}
			buf := make([]byte, vexec.PageSize)
			for j := range buf {
				buf[j] = byte(i*31 + j*7 + round)
			}
			if err := p.Mem().Write(addr+uint64(i)*vexec.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			written++
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Clock().Advance(sec)
	}
	dir := filepath.Join(t.TempDir(), "archive")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchiveWith(dir, OpenOptions{CacheBytes: 2 * compress.DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	before := a.BlockCacheStats().Misses
	if _, err := a.ReviveCheckpoint(a.Checkpoints()); err != nil {
		t.Fatal(err)
	}
	decoded := a.BlockCacheStats().Misses - before
	// Every stored page version sits in the payload; two extra blocks
	// for its unaligned start and end.
	blocks := uint64(written*vexec.PageSize/compress.DefaultBlockSize) + 2
	if decoded == 0 || decoded > blocks {
		t.Errorf("revive decoded %d blocks, want 1..%d (each block at most once)", decoded, blocks)
	}
}
