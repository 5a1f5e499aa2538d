package tier

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dejaview/internal/atomicfile"
	"dejaview/internal/compress"
	"dejaview/internal/core"
	"dejaview/internal/failpoint"
	"dejaview/internal/obs"
	"dejaview/internal/record"
	"dejaview/internal/vexec"
)

var (
	obsCompactions        = obs.Default.Counter("tier.compactions")
	obsCheckpointsDropped = obs.Default.Counter("tier.checkpoints_dropped")
	obsBytesReclaimed     = obs.Default.Counter("tier.bytes_reclaimed")
)

// manifestFile is the compaction commit record. Its presence means a
// compaction staged a full set of rewritten streams and intends to
// rename them into place; Recover rolls the rename forward. Its absence
// means any *.new strays are pre-commit litter and are swept.
const manifestFile = "compact.manifest"

type manifestEntry struct {
	// Src and Dst are archive-relative names; Src is the fully staged
	// rewrite, Dst the live stream it replaces.
	Src string `json:"src"`
	Dst string `json:"dst"`
	Dir bool   `json:"dir,omitempty"`
}

type manifest struct {
	Entries []manifestEntry `json:"entries"`
}

// Result reports what one Compact call did to an archive.
type Result struct {
	// Plan is the policy decision the compaction executed.
	Plan Plan
	// Dropped is the number of checkpoint images removed from the chain.
	Dropped int
	// RecordDropped is the number of display-record keyframe entries
	// truncated from the front of the record.
	RecordDropped int
	// Recompressed reports whether streams were rewritten with the
	// strongest codec.
	Recompressed bool
	// Skipped reports that the archive already satisfied the policy and
	// nothing was rewritten.
	Skipped bool
	// BytesBefore and BytesAfter are the archive directory's on-disk
	// sizes around the compaction.
	BytesBefore, BytesAfter int64
}

// Reclaimed is the on-disk space the compaction freed (zero when the
// rewrite grew the archive, e.g. a raw fixture recompressed poorly).
func (r Result) Reclaimed() int64 {
	if d := r.BytesBefore - r.BytesAfter; d > 0 {
		return d
	}
	return 0
}

// Compact applies policy p to the archive at dir: recover any
// interrupted compaction, plan deterministically, thin the checkpoint
// chain, truncate unreachable record history, rewrite the image and
// record streams (with the strongest codec when p.Recompress), and
// commit the rewrites through a persisted manifest so a crash at any
// point either keeps the old streams or completes the new ones — never
// a mix that loses a retained snapshot.
//
// The archive is opened lazily, so pages owned only by dropped
// checkpoints are never decoded: the rewrite demand-loads just the
// retained chain's blocks.
func Compact(dir string, p Policy) (Result, error) {
	var res Result
	if err := failpoint.Inject("tier/compact"); err != nil {
		return res, fmt.Errorf("tier: compact %s: %w", dir, err)
	}
	if err := Recover(dir); err != nil {
		return res, fmt.Errorf("tier: recover %s: %w", dir, err)
	}
	res.BytesBefore = dirSize(dir)

	a, err := core.OpenArchive(dir)
	if err != nil {
		return res, fmt.Errorf("tier: open %s: %w", dir, err)
	}
	//lint:ignore dropped-error read-side archive handle; the rewrite is staged, verified, and committed separately
	defer a.Close()

	if err := failpoint.Inject("tier/plan"); err != nil {
		return res, fmt.Errorf("tier: plan %s: %w", dir, err)
	}
	pl := p.Plan(a.Checkpointer().ImageInfos(), a.End)
	res.Plan = pl

	needRecompress := p.Recompress && !imagesUseCodec(filepath.Join(dir, core.ArchiveImagesFile), compress.CodecFlate)
	if len(pl.Drop) == 0 && pl.DropRecordBefore == 0 && !needRecompress {
		res.Skipped = true
		res.BytesAfter = res.BytesBefore
		return res, nil
	}

	if len(pl.Drop) > 0 {
		res.Dropped = a.Checkpointer().Retain(func(c uint64) bool { return pl.Keep[c] })
	}
	if pl.DropRecordBefore > 0 {
		n, err := a.Store.TruncateBefore(pl.DropRecordBefore)
		if err != nil {
			return res, fmt.Errorf("tier: truncate record %s: %w", dir, err)
		}
		res.RecordDropped = n
	}

	imgOpts := compress.Options{}
	if p.Recompress {
		imgOpts = compress.Options{Codec: compress.CodecFlate, Level: flate.BestCompression}
		a.Store.SetCompression(imgOpts)
		res.Recompressed = true
	}

	// Stage the full set of rewrites as *.new siblings. Until the
	// manifest lands, the live streams are untouched and the stage can
	// be discarded wholesale.
	var staged []string
	committed := false
	defer func() {
		if committed {
			return
		}
		for _, s := range staged {
			os.RemoveAll(filepath.Join(dir, s))
		}
	}()

	if err := stageImages(dir, a, imgOpts); err != nil {
		return res, err
	}
	staged = append(staged, core.ArchiveImagesFile+".new")

	if err := failpoint.Inject("tier/rewrite:" + core.ArchiveRecordDir); err != nil {
		return res, fmt.Errorf("tier: rewrite record %s: %w", dir, err)
	}
	if err := a.Store.Save(filepath.Join(dir, core.ArchiveRecordDir+".new")); err != nil {
		return res, fmt.Errorf("tier: rewrite record %s: %w", dir, err)
	}
	staged = append(staged, core.ArchiveRecordDir+".new")

	// Verify the stage decodes before the point of no return: a bit
	// flipped on the way to disk (or a buggy rewrite) must fail the
	// compaction while the old streams are still intact, not surface as
	// a CRC error after they were replaced.
	if err := verifyStaged(dir); err != nil {
		return res, fmt.Errorf("tier: verify stage %s: %w", dir, err)
	}

	m := manifest{Entries: []manifestEntry{
		{Src: core.ArchiveImagesFile + ".new", Dst: core.ArchiveImagesFile},
		{Src: core.ArchiveRecordDir + ".new", Dst: core.ArchiveRecordDir, Dir: true},
	}}
	mb, err := json.Marshal(m)
	if err != nil {
		return res, err
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, manifestFile), mb); err != nil {
		return res, fmt.Errorf("tier: commit manifest %s: %w", dir, err)
	}
	// Point of no return: the manifest is durable, so Recover completes
	// the commit even if we crash inside applyManifest.
	committed = true
	if err := applyManifest(dir, m.Entries); err != nil {
		return res, fmt.Errorf("tier: commit %s: %w", dir, err)
	}
	os.Remove(filepath.Join(dir, manifestFile))

	res.BytesAfter = dirSize(dir)
	obsCompactions.Inc()
	obsCheckpointsDropped.Add(uint64(res.Dropped))
	obsBytesReclaimed.Add(uint64(res.Reclaimed()))
	return res, nil
}

// stageImages rewrites the checkpoint image chain to images.dv.new,
// demand-loading retained pages through the archive's lazy open.
func stageImages(dir string, a *core.Archive, o compress.Options) error {
	if err := failpoint.Inject("tier/rewrite:" + core.ArchiveImagesFile); err != nil {
		return fmt.Errorf("tier: rewrite images %s: %w", dir, err)
	}
	f, err := atomicfile.Create(filepath.Join(dir, core.ArchiveImagesFile+".new"))
	if err != nil {
		return fmt.Errorf("tier: rewrite images %s: %w", dir, err)
	}
	if err := a.Checkpointer().SaveImagesOptions(f, o); err != nil {
		f.Abort()
		return fmt.Errorf("tier: rewrite images %s: %w", dir, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("tier: rewrite images %s: %w", dir, err)
	}
	return nil
}

// verifyStaged fully decodes the staged rewrites — frame CRCs and
// structural validation both run on this path — so only a
// proven-readable stage ever gets a commit manifest.
func verifyStaged(dir string) error {
	if _, err := record.Open(filepath.Join(dir, core.ArchiveRecordDir+".new")); err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(dir, core.ArchiveImagesFile+".new"))
	if err != nil {
		return err
	}
	//lint:ignore dropped-error read-only verification open; a Close error cannot lose data
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	ff, err := compress.OpenStream(f, st.Size())
	if err != nil {
		return err
	}
	raw, err := ff.ReadAll()
	if err != nil {
		return err
	}
	ck := vexec.NewArchiveCheckpointer(vexec.DefaultCostModel(), 100)
	return ck.LoadImages(bytes.NewReader(raw), int64(len(raw)))
}

// applyManifest renames staged rewrites into place. Entries whose
// source is already gone were applied by a previous attempt and are
// skipped, so the apply is idempotent under crash/retry.
func applyManifest(dir string, entries []manifestEntry) error {
	for _, e := range entries {
		if err := failpoint.Inject("tier/commit:" + e.Dst); err != nil {
			return err
		}
		src := filepath.Join(dir, e.Src)
		if _, err := os.Stat(src); os.IsNotExist(err) {
			continue
		}
		dst := filepath.Join(dir, e.Dst)
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.Rename(src, dst); err != nil {
			return err
		}
	}
	return nil
}

// Recover finishes or discards an interrupted compaction at dir. With a
// committed manifest present the staged renames are rolled forward;
// without one, any *.new stages and atomicfile temporaries are
// pre-commit litter and are swept. Safe (and cheap) to call on a clean
// archive; Compact calls it first thing.
func Recover(dir string) error {
	mpath := filepath.Join(dir, manifestFile)
	b, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		var m manifest
		if json.Unmarshal(b, &m) != nil {
			// A manifest is written atomically, so garbage here means it
			// never represented a complete stage: roll back.
			os.Remove(mpath)
		} else {
			if err := applyManifest(dir, m.Entries); err != nil {
				return err
			}
			os.Remove(mpath)
		}
	case !os.IsNotExist(err):
		return err
	}
	for _, d := range []string{dir, filepath.Join(dir, core.ArchiveRecordDir)} {
		ents, err := os.ReadDir(d)
		if err != nil {
			continue
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, ".new") || strings.Contains(name, ".tmp") {
				os.RemoveAll(filepath.Join(d, name))
			}
		}
	}
	return nil
}

// imagesUseCodec reports whether the stream at path is a frame whose
// header records codec id — reading only the 8-byte header, so Compact
// can skip archives that are already recompressed.
func imagesUseCodec(path string, id uint8) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	//lint:ignore dropped-error read-only 8-byte header probe; a Close error cannot lose data
	defer f.Close()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return false
	}
	got, err := compress.FrameCodec(hdr)
	return err == nil && got == id
}

// dirSize is the archive's total on-disk size (best effort: unreadable
// entries count as zero).
func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total
}
