package record

// Streaming open: the screenshot log dominates a saved record, so
// OpenLazy — the one open — defers its decompression. Commands and
// timeline load whole (search and seeking need them), while screenshot
// bytes decode on demand through compress.FrameFile — a prefix at a
// time, because the keyframe XOR prefilter chains each keyframe to its
// predecessor, so reconstructing keyframe k needs keyframes 0..k-1.
// Reviving or rendering near the start of a long record therefore
// decodes strictly fewer blocks than a full decode. Open is OpenLazy
// followed by Materialize.

import (
	"fmt"
	"sort"

	"dejaview/internal/compress"
	"dejaview/internal/obs"
	"dejaview/internal/simclock"
)

// lazyScreens is the demand-load state of the screenshot log. body
// grows as a prefix of the unfiltered log; once complete, the store
// keeps the log in Store.screenshots instead.
type lazyScreens struct {
	ff     *compress.FrameFile
	skip   int64 // stream bytes before the log: a v2 payload's filter-id byte
	total  int64 // unfiltered log length
	filter byte
	body   []byte // materialized, unfiltered prefix
	next   int    // first timeline entry not yet unfiltered
}

// OpenLazy opens a record previously written by Save — v2 compressed
// containers with or without block tables, and v1 raw streams from
// older saves — with demand-loaded screenshots. hook, when non-nil, is
// invoked with the number of compressed screenshot blocks each read
// decodes (the core uses it to count lazy block loads). bc, when
// non-nil, replaces the screenshot frame's private decoded-block cache
// with a shared one, so every stream of an archive draws on a single
// byte budget.
func OpenLazy(dir string, hook func(blocks int), bc *compress.BlockCache) (*Store, error) {
	t0 := obs.StartTimer()
	sp := obs.DefaultTracer.Start("record.open")
	defer sp.Finish()
	defer t0.Done(obsOpenMS)
	s, err := openBase(dir)
	if err != nil {
		return nil, err
	}
	// Screenshots last: undoing the keyframe prefilter needs the decoded
	// timeline to locate keyframe boundaries.
	ff, err := openStream(dir, screenshotsFile)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		ff.SetLoadHook(hook)
	}
	if bc != nil {
		ff.SetBlockCache(bc)
	}
	lz := &lazyScreens{ff: ff, total: ff.RawSize(), filter: filterNone}
	if ff.Framed() {
		// A v2 payload leads with its filter-id byte.
		if lz.total == 0 {
			return nil, fmt.Errorf("%w: empty screenshot payload", ErrCorruptRecord)
		}
		var id [1]byte
		if _, err := ff.ReadAt(id[:], 0); err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrCorruptRecord, screenshotsFile, err)
		}
		if id[0] != filterNone && id[0] != filterXorPrev {
			return nil, fmt.Errorf("%w: unknown screenshot filter %d", ErrCorruptRecord, id[0])
		}
		lz.filter, lz.skip, lz.total = id[0], 1, lz.total-1
	}
	if lz.total > 0 {
		s.lazy = lz
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	obsOpens.Inc()
	return s, nil
}

// screensLenLocked reports the logical screenshot-log length without
// forcing materialization.
func (s *Store) screensLenLocked() int64 {
	if s.lazy != nil {
		return s.lazy.total
	}
	return int64(len(s.screenshots))
}

// screenshotSliceLocked returns the unfiltered bytes of one timeline
// entry, faulting in the log prefix up to its end if needed.
func (s *Store) screenshotSliceLocked(e TimelineEntry) ([]byte, error) {
	if e.ScreenOff < 0 || e.ScreenLen < 0 || e.ScreenOff+e.ScreenLen > s.screensLenLocked() {
		return nil, fmt.Errorf("record: screenshot entry out of range: %+v", e)
	}
	if err := s.ensureScreensLocked(e.ScreenOff+e.ScreenLen, false); err != nil {
		return nil, err
	}
	if s.lazy != nil {
		return s.lazy.body[e.ScreenOff : e.ScreenOff+e.ScreenLen], nil
	}
	return s.screenshots[e.ScreenOff : e.ScreenOff+e.ScreenLen], nil
}

// ensureScreensLocked materializes the unfiltered screenshot log up to
// byte n, decoding only the compressed blocks that cover the missing
// part and undoing the XOR prefilter for every entry that became fully
// available. whole selects the whole-stream read (parallel, leaving the
// block cache untouched) over a demand read. A no-op once the log is
// materialized.
func (s *Store) ensureScreensLocked(n int64, whole bool) error {
	lz := s.lazy
	if lz == nil {
		return nil
	}
	n = min(n, lz.total)
	if got := int64(len(lz.body)); got < n {
		if lz.body == nil {
			lz.body = make([]byte, 0, lz.total)
		}
		lz.body = lz.body[:n]
		var err error
		if whole {
			err = lz.ff.ReadRange(lz.body[got:], got+lz.skip)
		} else {
			_, err = lz.ff.ReadAt(lz.body[got:], got+lz.skip)
		}
		if err != nil {
			lz.body = lz.body[:got]
			return fmt.Errorf("%w: %s: %w", ErrCorruptRecord, screenshotsFile, err)
		}
		if lz.filter == filterXorPrev {
			// Forward order keeps the invariant that entry next-1 is
			// already reconstructed when entry next XORs against it.
			for ; lz.next < len(s.timeline); lz.next++ {
				cur := s.timeline[lz.next]
				if cur.ScreenOff+cur.ScreenLen > n {
					break
				}
				if lz.next > 0 && filterable(s.timeline, lz.next, int(lz.total)) {
					prev := s.timeline[lz.next-1]
					dst := lz.body[cur.ScreenOff+screenshotHeaderSize : cur.ScreenOff+cur.ScreenLen]
					src := lz.body[prev.ScreenOff+screenshotHeaderSize : prev.ScreenOff+prev.ScreenLen]
					for j := range dst {
						dst[j] ^= src[j]
					}
				}
			}
		}
	}
	if int64(len(lz.body)) == lz.total {
		// Fully materialized: the log no longer needs its stream.
		s.screenshots = lz.body
		s.lazy = nil
	}
	return nil
}

func (s *Store) ensureAllLocked() error {
	if s.lazy == nil {
		return nil
	}
	return s.ensureScreensLocked(s.lazy.total, true)
}

// Materialize decodes whatever is left of the screenshot log in one
// whole-stream read; afterwards the store holds the entire log in
// memory. A no-op once the log is materialized.
func (s *Store) Materialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureAllLocked()
}

// TruncateBefore drops record history strictly older than the newest
// timeline entry at or before t: that entry becomes the record's first
// keyframe and all offsets are rebased to it. Playback of any time at
// or after the cut behaves exactly as before; the tier compactor uses
// this to discard display history older than every retained checkpoint.
// It returns the number of timeline entries dropped.
func (s *Store) TruncateBefore(t simclock.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureAllLocked(); err != nil {
		return 0, err
	}
	idx := sort.Search(len(s.timeline), func(i int) bool { return s.timeline[i].Time > t }) - 1
	if idx <= 0 {
		return 0, nil
	}
	base := s.timeline[idx]
	s.commands = append([]byte(nil), s.commands[base.CmdOff:]...)
	s.screenshots = append([]byte(nil), s.screenshots[base.ScreenOff:]...)
	tl := make([]TimelineEntry, len(s.timeline)-idx)
	for i, e := range s.timeline[idx:] {
		e.ScreenOff -= base.ScreenOff
		e.CmdOff -= base.CmdOff
		tl[i] = e
	}
	s.timeline = tl
	return idx, nil
}
