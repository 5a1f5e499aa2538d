package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dejaview/internal/atomicfile"
	"dejaview/internal/compress"
	"dejaview/internal/failpoint"
	"dejaview/internal/display"
	"dejaview/internal/index"
	"dejaview/internal/lfs"
	"dejaview/internal/lru"
	"dejaview/internal/obs"
	"dejaview/internal/playback"
	"dejaview/internal/record"
	"dejaview/internal/simclock"
	"dejaview/internal/unionfs"
	"dejaview/internal/vexec"
)

// Registry instruments for whole-archive persistence.
var (
	obsArchiveSaves  = obs.Default.Counter("core.archive_saves")
	obsArchiveOpens  = obs.Default.Counter("core.archive_opens")
	obsArchiveSaveMS = obs.Default.Histogram("core.save_archive_ms", obs.LatencyBuckets...)
	obsArchiveOpenMS = obs.Default.Histogram("core.open_archive_ms", obs.LatencyBuckets...)
	// Blocks of the screenshot log and checkpoint images decoded after
	// open reads only what it needs (the e2e suite asserts an open plus
	// one revive decodes strictly fewer blocks than the archive holds).
	obsLazyBlockLoads = obs.Default.Counter("core.lazy_block_loads")
	// Shared decoded-block cache outcomes across all open archives: a
	// hit is a demand read served without decoding, a miss is a block
	// decoded and inserted, and evicted_bytes counts decoded bytes pushed
	// out by budget pressure. The browse e2e suite holds these to exact
	// accounting (misses ≤ distinct blocks touched while within budget).
	obsBlockCacheHits         = obs.Default.Counter("core.block_cache_hits")
	obsBlockCacheMisses       = obs.Default.Counter("core.block_cache_misses")
	obsBlockCacheEvictedBytes = obs.Default.Counter("core.block_cache_evicted_bytes")
)

// A session archive persists everything DejaView recorded — the display
// record, the text index, the checkpoint image chain, and the snapshotting
// file system with its full history — so the WYSIWYS operations (browse,
// search, playback, revive) keep working long after the live session
// ended. This is the repository a paper-described deployment accumulates
// on its terabyte disk.

// Archive file names inside an archive directory.
const (
	archiveMetaFile   = "archive.dv"
	archiveIndexFile  = "index.dv"
	archiveImagesFile = "images.dv"
	archiveFSFile     = "fs.dv"
	archiveRecordDir  = "record"
)

// Exported archive layout names for lifecycle tooling (the tier
// compactor and dvgc stage sibling rewrites of these entries).
const (
	ArchiveMetaFile   = archiveMetaFile
	ArchiveIndexFile  = archiveIndexFile
	ArchiveImagesFile = archiveImagesFile
	ArchiveFSFile     = archiveFSFile
	ArchiveRecordDir  = archiveRecordDir
)

const archiveMagic = 0x31484352564A4544 // "DEJVRCH1"

// ErrCorruptArchive reports a structurally invalid archive.
var ErrCorruptArchive = errors.New("core: corrupt archive")

// SaveArchive writes the complete session state to a directory. Every
// stream is staged to a temporary file and the set is renamed into place
// only after all of them were written (metadata last: its presence marks
// the archive complete), so a failure mid-save leaves no partial archive
// behind and an existing archive at dir survives a failed re-save.
func (s *Session) SaveArchive(dir string) error {
	if err := failpoint.Inject("core/archive.save"); err != nil {
		return fmt.Errorf("core: archive save: %w", err)
	}
	sp := obs.DefaultTracer.Start("core.save_archive")
	defer sp.Finish()
	t0 := obs.StartTimer()
	defer t0.Done(obsArchiveSaveMS)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.recorder.Flush()
	if err := s.recorder.Store().Save(filepath.Join(dir, archiveRecordDir)); err != nil {
		return fmt.Errorf("core: archive record: %w", err)
	}
	meta := make([]byte, 24)
	binary.LittleEndian.PutUint64(meta[0:], archiveMagic)
	binary.LittleEndian.PutUint64(meta[8:], uint64(s.clock.Now()))
	w, h := s.disp.Size()
	binary.LittleEndian.PutUint32(meta[16:], uint32(w))
	binary.LittleEndian.PutUint32(meta[20:], uint32(h))

	var staged []*atomicfile.File
	for _, st := range []struct {
		name       string
		compressed bool
		save       func(w io.Writer) error
	}{
		{archiveIndexFile, true, s.idx.Save},
		// Checkpoint images compress inside SaveImages itself (pages are
		// the bulk of an archive); wrapping them in another compressor
		// would just re-deflate opaque data.
		{archiveImagesFile, false, s.ckpt.SaveImages},
		{archiveFSFile, true, s.fs.Save},
		{archiveMetaFile, false, func(w io.Writer) error {
			_, err := w.Write(meta)
			return err
		}},
	} {
		f, err := stageTo(filepath.Join(dir, st.name), st.name, st.compressed, st.save)
		if err != nil {
			atomicfile.AbortAll(staged...)
			return fmt.Errorf("core: archive %s: %w", st.name, err)
		}
		staged = append(staged, f)
	}
	if err := atomicfile.CommitAll(staged...); err != nil {
		return fmt.Errorf("core: archive save: %w", err)
	}
	obsArchiveSaves.Inc()
	return nil
}

// stageTo writes one archive stream to a staged temp file, optionally
// through the parallel block compressor (storage format v2);
// OpenArchive reads both compressed and v1 raw streams. Each stream
// carries a `core/archive.save:<name>` failpoint.
func stageTo(path, name string, compressed bool, save func(w io.Writer) error) (*atomicfile.File, error) {
	if err := failpoint.Inject("core/archive.save:" + name); err != nil {
		return nil, err
	}
	f, err := atomicfile.Create(path)
	if err != nil {
		return nil, err
	}
	if !compressed {
		if err := save(f); err != nil {
			f.Abort()
			return nil, err
		}
		return f, nil
	}
	zw, err := compress.NewWriter(f, compress.Options{})
	if err != nil {
		f.Abort()
		return nil, err
	}
	if err := save(zw); err != nil {
		//lint:ignore dropped-error error path: the save error is the root cause; this Close only releases the codec
		zw.Close()
		f.Abort()
		return nil, err
	}
	if err := zw.Close(); err != nil {
		f.Abort()
		return nil, err
	}
	return f, nil
}

// Archive is a reopened session archive: read-only history with full
// WYSIWYS access, including reviving live sessions from any archived
// checkpoint.
type Archive struct {
	// Store is the display record.
	Store *record.Store
	// Index is the text index.
	Index *index.Index
	// FS is the archived file system with its snapshot history.
	FS *lfs.FS
	// End is the archived session's final timestamp.
	End simclock.Time
	// Width, Height are the archived desktop dimensions.
	Width, Height int

	clock *simclock.Clock
	ckpt  *vexec.Checkpointer
	cache *lru.Cache[int64, *display.Framebuffer]

	// blocks is the archive's shared decoded-block cache: every lazily
	// opened stream (screenshot log, checkpoint images) draws on one
	// byte budget, so repeated time-machine seeks decode each block at
	// most once while within it.
	blocks *compress.BlockCache

	// imagesFile backs demand-loaded checkpoint pages until Close.
	imagesFile *os.File
}

// OpenOptions tunes OpenArchiveWith.
type OpenOptions struct {
	// CacheBytes budgets the archive's shared decoded-block cache: 0
	// picks compress.DefaultBlockCacheBytes, negative disables caching
	// across streams (each stream keeps only its small private cache).
	CacheBytes int64
}

// OpenArchive loads an archive directory written by SaveArchive. The
// open reads only what it needs up front: archive metadata, the record's
// commands and timeline, the index, the file system, and the checkpoint
// image metadata. Checkpoint pages and screenshot blocks demand-decode
// through compress.FrameFile as revive, browse, and playback touch
// them — for archives saved before block tables too, whose frames are
// indexed by their block headers. Call Close when done to release the
// backing file.
func OpenArchive(dir string) (*Archive, error) {
	return OpenArchiveWith(dir, OpenOptions{})
}

// OpenArchiveWith is OpenArchive with explicit options (block-cache
// budget; dvserve's -cache-bytes flag lands here).
func OpenArchiveWith(dir string, opts OpenOptions) (*Archive, error) {
	if err := failpoint.Inject("core/archive.open"); err != nil {
		return nil, fmt.Errorf("core: archive open: %w", err)
	}
	sp := obs.DefaultTracer.Start("core.open_archive")
	defer sp.Finish()
	t0 := obs.StartTimer()
	defer t0.Done(obsArchiveOpenMS)
	meta, err := os.ReadFile(filepath.Join(dir, archiveMetaFile))
	if err != nil {
		return nil, err
	}
	if len(meta) < 24 || binary.LittleEndian.Uint64(meta) != archiveMagic {
		return nil, fmt.Errorf("%w: bad metadata", ErrCorruptArchive)
	}
	a := &Archive{
		End:    simclock.Time(binary.LittleEndian.Uint64(meta[8:])),
		Width:  int(binary.LittleEndian.Uint32(meta[16:])),
		Height: int(binary.LittleEndian.Uint32(meta[20:])),
		cache:  lru.New[int64, *display.Framebuffer](32),
	}
	budget := opts.CacheBytes
	if budget == 0 {
		budget = compress.DefaultBlockCacheBytes
	}
	if budget > 0 {
		a.blocks = compress.NewBlockCache(budget)
		a.blocks.SetHooks(
			func(n int) { obsBlockCacheHits.Add(uint64(n)) },
			func(n int) { obsBlockCacheMisses.Add(uint64(n)) },
			func(b int64) { obsBlockCacheEvictedBytes.Add(uint64(b)) },
		)
	}
	a.Store, err = record.OpenLazy(filepath.Join(dir, archiveRecordDir),
		func(n int) { obsLazyBlockLoads.Add(uint64(n)) }, a.blocks)
	if err != nil {
		return nil, fmt.Errorf("core: archive record: %w", err)
	}
	idx, err := readArchiveStream(filepath.Join(dir, archiveIndexFile))
	if err == nil {
		a.Index, err = index.Load(bytes.NewReader(idx))
	}
	if err != nil {
		return nil, fmt.Errorf("core: archive index: %w", err)
	}
	fsLog, err := readArchiveStream(filepath.Join(dir, archiveFSFile))
	if err == nil {
		a.FS, err = lfs.Load(bytes.NewReader(fsLog))
	}
	if err != nil {
		return nil, fmt.Errorf("core: archive fs: %w", err)
	}

	// A minimal execution substrate to revive into: a clock positioned
	// at the archive's end, a kernel, and a checkpointer carrying the
	// loaded image chain. Archived images start cold (nothing is in any
	// page cache after a reload).
	a.clock = simclock.New()
	a.clock.Set(a.End)
	kernel := vexec.NewKernel(a.clock)
	cont := kernel.NewContainer(a.FS)
	a.ckpt = vexec.NewCheckpointer(cont, a.FS, a.FS, vexec.DefaultCostModel(), 100)
	if err := a.openImages(filepath.Join(dir, archiveImagesFile)); err != nil {
		return nil, fmt.Errorf("core: archive images: %w", err)
	}
	a.ckpt.DropCaches()
	obsArchiveOpens.Inc()
	return a, nil
}

// openImages loads the checkpoint image chain's metadata and keeps the
// images file open as the demand-load source of its pages, drawing on
// the archive's shared block cache.
func (a *Archive) openImages(path string) error {
	f, ff, err := openArchiveStream(path)
	if err != nil {
		return err
	}
	ff.SetLoadHook(func(n int) { obsLazyBlockLoads.Add(uint64(n)) })
	if a.blocks != nil {
		ff.SetBlockCache(a.blocks)
	}
	if err := a.ckpt.LoadImages(ff, ff.RawSize()); err != nil {
		//lint:ignore dropped-error error path: the load error decides the outcome; Close only releases a read-only handle
		f.Close()
		return err
	}
	a.imagesFile = f
	return nil
}

// Close releases the archive's backing file handle. The archive must
// not be used afterwards if any checkpoint pages are still
// unmaterialized.
func (a *Archive) Close() error {
	if a.imagesFile == nil {
		return nil
	}
	f := a.imagesFile
	a.imagesFile = nil
	return f.Close()
}

// openArchiveStream opens one archive stream file (each carries a
// `core/archive.open:<name>` failpoint), telling a v2 frame from a v1
// raw stream. The caller closes the file.
func openArchiveStream(path string) (*os.File, *compress.FrameFile, error) {
	if err := failpoint.Inject("core/archive.open:" + filepath.Base(path)); err != nil {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err == nil {
		var ff *compress.FrameFile
		if ff, err = compress.OpenStream(f, st.Size()); err == nil {
			return f, ff, nil
		}
	}
	//lint:ignore dropped-error error path: the open error is reported; Close only releases a read-only handle
	f.Close()
	return nil, nil, err
}

// readArchiveStream decodes one whole archive stream.
func readArchiveStream(path string) ([]byte, error) {
	f, ff, err := openArchiveStream(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore dropped-error read-only open; a Close error here cannot lose data
	defer f.Close()
	return ff.ReadAll()
}

// Checkpoints reports the number of archived checkpoints.
func (a *Archive) Checkpoints() uint64 { return a.ckpt.Counter() }

// BlockCacheStats snapshots the archive's shared decoded-block cache
// accounting (zero value when the archive was opened with caching
// disabled).
func (a *Archive) BlockCacheStats() compress.BlockCacheStats {
	if a.blocks == nil {
		return compress.BlockCacheStats{}
	}
	return a.blocks.Stats()
}

// Checkpointer exposes the archived image chain for offline lifecycle
// management: the tier compactor thins it with Retain and re-saves it
// with SaveImagesOptions. Mutating it invalidates none of the archive's
// read paths (they go through the same checkpointer).
func (a *Archive) Checkpointer() *vexec.Checkpointer { return a.ckpt }

// Player opens a playback engine over the archived display record.
func (a *Archive) Player() *playback.Player {
	return playback.New(a.Store, 32)
}

// Browse renders the archived screen as of time t.
func (a *Archive) Browse(t simclock.Time) (*display.Framebuffer, error) {
	return playback.RenderAt(a.Store, t, a.cache)
}

// Search queries the archived text with result screenshots, exactly like
// a live session.
func (a *Archive) Search(q index.Query) ([]SearchResult, error) {
	res, err := a.Index.Search(q, a.End)
	if err != nil {
		return nil, err
	}
	out := make([]SearchResult, 0, len(res))
	for _, r := range res {
		shot, err := playback.RenderAt(a.Store, r.Time, a.cache)
		if err != nil && !errors.Is(err, playback.ErrEmptyRecord) {
			return nil, err
		}
		out = append(out, SearchResult{Result: r, Screenshot: shot})
	}
	return out, nil
}

// SearchIndex runs a query and returns the raw index hits without
// rendering result screenshots — the archive side of the remote search
// RPC. An Archive's read operations (Search, SearchIndex, Browse,
// opening Players over Store) are safe for concurrent use by many
// connections: the index, record store, and screenshot cache are all
// internally locked.
func (a *Archive) SearchIndex(q index.Query) ([]index.Result, error) {
	return a.Index.Search(q, a.End)
}

// ArchiveRevived is a live session revived from an archived checkpoint.
type ArchiveRevived struct {
	Container *vexec.Container
	Union     *unionfs.Union
	Restore   *vexec.RestoreResult
	// Screen is the display state at the revived moment, rendered from
	// the archived display record.
	Screen *display.Framebuffer
	At     simclock.Time
}

// TakeMeBack revives the archived session at or before time t.
func (a *Archive) TakeMeBack(t simclock.Time) (*ArchiveRevived, error) {
	img, err := a.ckpt.LatestBefore(t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNothingToRevive, err)
	}
	return a.ReviveCheckpoint(img.Counter)
}

// ReviveCheckpoint revives a specific archived checkpoint.
func (a *Archive) ReviveCheckpoint(counter uint64) (*ArchiveRevived, error) {
	if err := failpoint.Inject("core/revive"); err != nil {
		return nil, fmt.Errorf("core: archive revive: %w", err)
	}
	img, err := a.ckpt.Image(counter)
	if err != nil {
		return nil, err
	}
	view, err := a.FS.At(img.FSEpoch)
	if err != nil {
		return nil, fmt.Errorf("core: archive revive: snapshot %d: %w", img.FSEpoch, err)
	}
	union := unionfs.New(view)
	res, err := a.ckpt.Restore(img.Counter, union)
	if err != nil {
		return nil, err
	}
	screen, err := playback.RenderAt(a.Store, img.Time, a.cache)
	if err != nil && !errors.Is(err, playback.ErrEmptyRecord) {
		return nil, err
	}
	return &ArchiveRevived{
		Container: res.Container,
		Union:     union,
		Restore:   res,
		Screen:    screen,
		At:        img.Time,
	}, nil
}
