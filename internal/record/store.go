// Package record implements DejaView's display recorder (§4.1): an
// append-only log of THINC display commands, periodic full screenshots
// that act as self-contained keyframes, and a timeline index file of
// fixed-size entries used to locate the screenshot and first command for
// any point in time.
//
// The analogy in the paper is an MPEG movie: screenshots are independent
// frames from which playback can start; logged commands are dependent
// frames encoding a change relative to the current display state.
package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dejaview/internal/atomicfile"
	"dejaview/internal/compress"
	"dejaview/internal/display"
	"dejaview/internal/failpoint"
	"dejaview/internal/obs"
	"dejaview/internal/simclock"
)

// Registry instruments for the record store and recorder.
var (
	obsSaves          = obs.Default.Counter("record.save")
	obsOpens          = obs.Default.Counter("record.open")
	obsSaveMS         = obs.Default.Histogram("record.save_ms", obs.LatencyBuckets...)
	obsOpenMS         = obs.Default.Histogram("record.open_ms", obs.LatencyBuckets...)
	obsCommands       = obs.Default.Counter("record.commands")
	obsScreens        = obs.Default.Counter("record.screenshots")
	obsScreensSkipped = obs.Default.Counter("record.screenshots_skipped")
	obsDurHits        = obs.Default.Counter("record.duration_cache_hits")
	obsDurMisses      = obs.Default.Counter("record.duration_cache_misses")
)

// TimelineEntry is one fixed-size record in the timeline index file: the
// time at which a screenshot was taken, the location of its data in the
// screenshot file, and the location of the first display command that
// follows it in the command file (§4.1).
type TimelineEntry struct {
	Time      simclock.Time
	ScreenOff int64 // offset of the screenshot in the screenshot log
	ScreenLen int64 // encoded length of the screenshot
	CmdOff    int64 // offset of the first command at or after Time
}

// timelineEntrySize is the fixed on-disk entry size (4 × int64).
const timelineEntrySize = 32

// Store holds one display record: the three append-only streams the paper
// keeps as files. The in-memory representation is the system of record;
// Save/Open move it to and from a directory for the CLI tools.
//
// Store is safe for concurrent use: playback, browsing, and search read
// the record while the recorder keeps appending to it.
type Store struct {
	// Width, Height are the recorded resolution (after any record-side
	// rescaling).
	Width, Height int

	mu          sync.RWMutex
	commands    []byte
	screenshots []byte
	timeline    []TimelineEntry

	// lazy holds the demand-load state of an opened store's screenshot
	// log; nil once the log is fully materialized (see lazy.go).
	lazy *lazyScreens

	// comp configures Save's block compression (zero value = defaults).
	comp compress.Options

	// durCache memoizes Duration; appends keep it current incrementally,
	// Open leaves it invalid for lazy recomputation.
	durCache simclock.Time
	durValid bool
}

// NewStore creates an empty record for a w×h recorded resolution.
func NewStore(w, h int) *Store {
	return &Store{Width: w, Height: h, durValid: true}
}

// SetCompression overrides the block-compression options Save uses
// (codec, flate level, block size, worker count). The zero Options
// selects flate at the default level with GOMAXPROCS workers.
func (s *Store) SetCompression(o compress.Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.comp = o
}

// AppendCommand encodes c onto the command log and returns its starting
// offset.
func (s *Store) AppendCommand(c *display.Command) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := int64(len(s.commands))
	var err error
	s.commands, err = display.EncodeCommand(s.commands, c)
	if err != nil {
		return 0, err
	}
	if s.durValid && c.Time > s.durCache {
		s.durCache = c.Time
	}
	return off, nil
}

// AppendScreenshot encodes fb onto the screenshot log and records a
// timeline entry binding it to time t and to the current end of the
// command log (the first command that follows the screenshot).
func (s *Store) AppendScreenshot(t simclock.Time, fb *display.Framebuffer) TimelineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Appends need the whole log in memory (offsets are absolute). If a
	// lazily opened store's backing bytes fail here, the short log makes
	// the mismatch surface at the next decode or validate.
	_ = s.ensureAllLocked()
	off := int64(len(s.screenshots))
	s.screenshots = display.EncodeScreenshot(s.screenshots, fb)
	e := TimelineEntry{
		Time:      t,
		ScreenOff: off,
		ScreenLen: int64(len(s.screenshots)) - off,
		CmdOff:    int64(len(s.commands)),
	}
	s.timeline = append(s.timeline, e)
	if s.durValid && t > s.durCache {
		s.durCache = t
	}
	return e
}

// Timeline returns a snapshot of the index entries in chronological
// order.
func (s *Store) Timeline() []TimelineEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]TimelineEntry(nil), s.timeline...)
}

// CommandBytes reports the size of the command log.
func (s *Store) CommandBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.commands))
}

// ScreenshotBytes reports the size of the screenshot log.
func (s *Store) ScreenshotBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.screensLenLocked()
}

// ScreenshotAt decodes the screenshot referenced by a timeline entry.
// On a lazily opened store this faults in (and block-decodes) only the
// log prefix up to the entry's end.
func (s *Store) ScreenshotAt(e TimelineEntry) (*display.Framebuffer, error) {
	s.mu.RLock()
	if s.lazy == nil {
		defer s.mu.RUnlock()
		if e.ScreenOff < 0 || e.ScreenOff+e.ScreenLen > int64(len(s.screenshots)) {
			return nil, fmt.Errorf("record: screenshot entry out of range: %+v", e)
		}
		fb, _, err := display.DecodeScreenshot(s.screenshots[e.ScreenOff : e.ScreenOff+e.ScreenLen])
		return fb, err
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.screenshotSliceLocked(e)
	if err != nil {
		return nil, err
	}
	fb, _, err := display.DecodeScreenshot(b)
	return fb, err
}

// DecodeCommandAt decodes one command at offset off in the command log,
// returning the command and the offset of the next command.
func (s *Store) DecodeCommandAt(off int64) (display.Command, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.decodeCommandAtLocked(off)
}

func (s *Store) decodeCommandAtLocked(off int64) (display.Command, int64, error) {
	if off < 0 || off >= int64(len(s.commands)) {
		return display.Command{}, 0, fmt.Errorf("record: command offset %d out of range [0,%d)", off, len(s.commands))
	}
	c, n, err := display.DecodeCommand(s.commands[off:])
	if err != nil {
		return display.Command{}, 0, err
	}
	return c, off + int64(n), nil
}

// EndOfCommands reports the offset one past the last command.
func (s *Store) EndOfCommands() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.commands))
}

// Duration reports the time of the last logged command or screenshot.
// The value is cached: appends maintain it incrementally, and a store
// loaded by Open computes it once on first use instead of re-decoding
// the command-log tail under the lock on every call.
func (s *Store) Duration() simclock.Time {
	s.mu.RLock()
	if s.durValid {
		d := s.durCache
		s.mu.RUnlock()
		obsDurHits.Inc()
		return d
	}
	s.mu.RUnlock()
	obsDurMisses.Inc()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durValid {
		return s.durCache
	}
	var last simclock.Time
	if n := len(s.timeline); n > 0 {
		last = s.timeline[n-1].Time
	}
	// Scan the tail of the command log cheaply: walk from the last
	// timeline entry's command offset.
	off := int64(0)
	if n := len(s.timeline); n > 0 {
		off = s.timeline[n-1].CmdOff
	}
	for off < int64(len(s.commands)) {
		c, next, err := s.decodeCommandAtLocked(off)
		if err != nil {
			break
		}
		if c.Time > last {
			last = c.Time
		}
		off = next
	}
	s.durCache = last
	s.durValid = true
	return last
}

// Record file names inside a saved directory.
const (
	commandsFile    = "commands.dv"
	screenshotsFile = "screens.dv"
	timelineFile    = "timeline.dv"
	metaFile        = "meta.dv"
)

// ErrCorruptRecord reports a structurally invalid saved record.
var ErrCorruptRecord = errors.New("record: corrupt record")

// Save writes the record to a directory (creating it if needed) as the
// paper's three files plus a small metadata header.
//
// Since format v2 each stream file is a compressed block frame (see
// internal/compress): commands and timeline are packed directly, and
// the screenshot log is first run through the keyframe delta prefilter
// (consecutive keyframes are nearly identical, so XORing each against
// its predecessor turns them into mostly-zero blocks that DEFLATE
// collapses). Every stream is staged to a temporary name in the target
// directory and the whole set is renamed into place only after every
// stream has been written, so a crash or I/O failure mid-save never
// leaves a partial file masquerading as a valid record — an existing
// record at dir survives a failed re-save intact.
func (s *Store) Save(dir string) error {
	t0 := obs.StartTimer()
	sp := obs.DefaultTracer.Start("record.save")
	defer sp.Finish()
	defer t0.Done(obsSaveMS)
	// A lazily opened store must fault in the whole screenshot log
	// before it can be re-filtered and re-packed.
	if err := s.Materialize(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: save: %w", err)
	}
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint32(meta[0:], uint32(s.Width))
	binary.LittleEndian.PutUint32(meta[4:], uint32(s.Height))
	binary.LittleEndian.PutUint64(meta[8:], uint64(len(s.timeline)))

	// Every save appends the seekable block table so the archive can be
	// reopened lazily; sequential readers never see it.
	comp := s.comp
	comp.BlockTable = true
	pack := func(stream string, data []byte) ([]byte, error) {
		child := sp.Child("record.save." + stream)
		defer child.Finish()
		return compress.Pack(data, comp)
	}
	cmds, err := pack("commands", s.commands)
	if err != nil {
		return fmt.Errorf("record: save commands: %w", err)
	}
	shots, err := pack("screenshots", filterScreens(s.screenshots, s.timeline))
	if err != nil {
		return fmt.Errorf("record: save screenshots: %w", err)
	}
	tl, err := pack("timeline", encodeTimeline(s.timeline))
	if err != nil {
		return fmt.Errorf("record: save timeline: %w", err)
	}
	var staged []*atomicfile.File
	for _, f := range []struct {
		name string
		data []byte
	}{
		{commandsFile, cmds},
		{screenshotsFile, shots},
		{timelineFile, tl},
		// Metadata last: its presence marks the record complete.
		{metaFile, meta},
	} {
		af, err := stageFile(filepath.Join(dir, f.name), f.name, f.data)
		if err != nil {
			atomicfile.AbortAll(staged...)
			return fmt.Errorf("record: save %s: %w", f.name, err)
		}
		staged = append(staged, af)
	}
	if err := atomicfile.CommitAll(staged...); err != nil {
		return fmt.Errorf("record: save: %w", err)
	}
	obsSaves.Inc()
	return nil
}

// stageFile writes one record stream to a staged temp file, with a
// per-stream failpoint (`record/save:<name>`) for fault-injection tests.
func stageFile(path, name string, data []byte) (*atomicfile.File, error) {
	if err := failpoint.Inject("record/save:" + name); err != nil {
		return nil, err
	}
	f, err := atomicfile.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return nil, err
	}
	return f, nil
}

func encodeTimeline(timeline []TimelineEntry) []byte {
	tl := make([]byte, 0, len(timeline)*timelineEntrySize)
	var buf [timelineEntrySize]byte
	for _, e := range timeline {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Time))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.ScreenOff))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.ScreenLen))
		binary.LittleEndian.PutUint64(buf[24:], uint64(e.CmdOff))
		tl = append(tl, buf[:]...)
	}
	return tl
}

// openStream opens one record file, telling the v2 compressed container
// from a v1 raw stream.
func openStream(dir, name string) (*compress.FrameFile, error) {
	if err := failpoint.Inject("record/open:" + name); err != nil {
		return nil, fmt.Errorf("record: open %s: %w", name, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	ff, err := compress.OpenStream(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorruptRecord, name, err)
	}
	return ff, nil
}

// readStream loads one whole record file.
func readStream(dir, name string) ([]byte, error) {
	ff, err := openStream(dir, name)
	if err != nil {
		return nil, err
	}
	b, err := ff.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorruptRecord, name, err)
	}
	return b, nil
}

// openBase loads the metadata header, command log, and timeline — the
// parts every open needs whole.
func openBase(dir string) (*Store, error) {
	if err := failpoint.Inject("record/open:" + metaFile); err != nil {
		return nil, fmt.Errorf("record: open: %w", err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("record: open: %w", err)
	}
	if len(meta) < 16 {
		return nil, fmt.Errorf("%w: short metadata", ErrCorruptRecord)
	}
	s := &Store{
		Width:  int(binary.LittleEndian.Uint32(meta[0:])),
		Height: int(binary.LittleEndian.Uint32(meta[4:])),
	}
	n := int(binary.LittleEndian.Uint64(meta[8:]))
	if s.Width <= 0 || s.Height <= 0 || n < 0 {
		return nil, fmt.Errorf("%w: bad metadata %dx%d n=%d", ErrCorruptRecord, s.Width, s.Height, n)
	}
	if s.commands, err = readStream(dir, commandsFile); err != nil {
		return nil, err
	}
	tl, err := readStream(dir, timelineFile)
	if err != nil {
		return nil, err
	}
	if len(tl) != n*timelineEntrySize {
		return nil, fmt.Errorf("%w: timeline is %d bytes, want %d", ErrCorruptRecord, len(tl), n*timelineEntrySize)
	}
	s.timeline = make([]TimelineEntry, n)
	for i := range s.timeline {
		b := tl[i*timelineEntrySize:]
		s.timeline[i] = TimelineEntry{
			Time:      simclock.Time(binary.LittleEndian.Uint64(b[0:])),
			ScreenOff: int64(binary.LittleEndian.Uint64(b[8:])),
			ScreenLen: int64(binary.LittleEndian.Uint64(b[16:])),
			CmdOff:    int64(binary.LittleEndian.Uint64(b[24:])),
		}
	}
	return s, nil
}

// Open loads a record previously written by Save whole: OpenLazy
// followed by Materialize.
func Open(dir string) (*Store, error) {
	s, err := OpenLazy(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Materialize(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) validate() error {
	var prev simclock.Time
	for i, e := range s.timeline {
		if e.Time < prev {
			return fmt.Errorf("%w: timeline entry %d out of order", ErrCorruptRecord, i)
		}
		prev = e.Time
		if e.ScreenOff < 0 || e.ScreenLen <= 0 || e.ScreenOff+e.ScreenLen > s.screensLenLocked() {
			return fmt.Errorf("%w: timeline entry %d references bad screenshot range", ErrCorruptRecord, i)
		}
		if e.CmdOff < 0 || e.CmdOff > int64(len(s.commands)) {
			return fmt.Errorf("%w: timeline entry %d references bad command offset", ErrCorruptRecord, i)
		}
	}
	// The first keyframe's dimensions must agree with the metadata
	// header; a mismatch means the record (or its header) is damaged.
	if len(s.timeline) > 0 {
		e := s.timeline[0]
		// On a lazy store this decodes only the first keyframe's blocks.
		b, err := s.screenshotSliceLocked(e)
		if err != nil {
			return err
		}
		fb, _, err := display.DecodeScreenshot(b)
		if err != nil {
			return fmt.Errorf("%w: first keyframe: %v", ErrCorruptRecord, err)
		}
		w, h := fb.Size()
		if w != s.Width || h != s.Height {
			return fmt.Errorf("%w: keyframe %dx%d disagrees with header %dx%d",
				ErrCorruptRecord, w, h, s.Width, s.Height)
		}
	}
	return nil
}
