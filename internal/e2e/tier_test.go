package e2e

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dejaview/internal/compress"
	"dejaview/internal/core"
	"dejaview/internal/obs"
	"dejaview/internal/record"
	"dejaview/internal/simclock"
	"dejaview/internal/tier"
)

// Tiered-lifecycle end-to-end proofs: compaction preserves the WYSIWYS
// fingerprint, lazy archive opens decode measurably less than eager
// ones, and archives that predate the seekable block table still open.

// TestCompactPreservesFingerprint: record → archive → compact → the
// archive's full WYSIWYS fingerprint (browse, search with screenshots,
// playback, revive at end) is unchanged, even though the compaction
// dropped checkpoints and recompressed every stream.
func TestCompactPreservesFingerprint(t *testing.T) {
	sc := Scenarios()[1] // desktop: two apps, annotation, 16 steps
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "arch")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Snapshot(Archived(a), sc.Queries)
	if err != nil {
		t.Fatal(err)
	}
	infos := a.Checkpointer().ImageInfos()
	if len(infos) < 4 {
		t.Fatalf("only %d checkpoints", len(infos))
	}
	mid := a.End - infos[len(infos)/2].Time
	a.Close()

	res, err := tier.Compact(dir, tier.Policy{
		Tiers:      []tier.Tier{{MinAge: mid, KeepEvery: 2}},
		Recompress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("compaction dropped nothing; proof is vacuous")
	}

	a2, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Snapshot(Archived(a2), sc.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction drops old checkpoints on purpose, so the thumbnail →
	// revival-checkpoint mapping coarsens; everything else must hold.
	before.ViewRevivals, after.ViewRevivals = nil, nil
	if !reflect.DeepEqual(before, after) {
		t.Errorf("fingerprint changed across compaction:\n before: %+v\n after:  %+v", before, after)
	}
}

// TestLazyOpenDecodesFewerBlocks: OpenArchive plus a revive of the
// oldest checkpoint must unpack strictly fewer compressed blocks than
// the archive holds, with the demand loads visible on
// core.lazy_block_loads — the acceptance measurement for the streaming
// open.
func TestLazyOpenDecodesFewerBlocks(t *testing.T) {
	sc := Scenarios()[1]
	// Frequent keyframes: the default (one every 10 minutes) gives a
	// 16-second session a single keyframe, and opening any record
	// validates its first keyframe — with one keyframe that IS the whole
	// screenshot stream, so laziness would have nothing to skip.
	s, err := Build(sc, core.Config{Record: record.Options{
		ScreenshotInterval:  2 * simclock.Second,
		ScreenshotMinChange: 0.00001,
	}})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "arch")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	total := allArchiveBlocks(t, dir)

	base := obs.Default.Snapshot()
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := a.Checkpointer().ImageInfos()[0]
	if _, err := a.ReviveCheckpoint(first.Counter); err != nil {
		t.Fatal(err)
	}
	d := obs.Default.Snapshot().Delta(base)
	lazy := d.Counters["compress.blocks_unpacked"]
	if lazy == 0 {
		t.Fatal("open+revive unpacked nothing; instrumentation dead")
	}
	if lazy >= total {
		t.Errorf("open+revive unpacked %d blocks, the archive holds %d: open is not lazy", lazy, total)
	}
	if d.Counters["core.lazy_block_loads"] == 0 {
		t.Error("no demand loads recorded on core.lazy_block_loads")
	}
	if d.Histograms["core.open_archive_ms"].Count == 0 {
		t.Error("core.open_archive_ms observed nothing")
	}
	a.Close()
}

// TestTableLessArchiveStillOpens: stripping the block tables (the
// on-disk shape of every archive saved before the table existed) still
// opens lazily — the frames are indexed by their block headers — with
// the same fingerprint.
func TestTableLessArchiveStillOpens(t *testing.T) {
	sc := Scenarios()[0]
	// Frequent keyframes, as in TestLazyOpenDecodesFewerBlocks: with the
	// default single keyframe the first keyframe every open validates is
	// the whole screenshot log, so a lazy open could skip nothing.
	s, err := Build(sc, core.Config{Record: record.Options{
		ScreenshotInterval:  2 * simclock.Second,
		ScreenshotMinChange: 0.00001,
	}})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "arch")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Snapshot(Archived(a), sc.Queries)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	for _, name := range cachedStreams {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !compress.HasBlockTable(b) {
			t.Fatalf("%s: saved without a block table?", name)
		}
		if err := os.WriteFile(path, compress.TrimTable(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	a2 := assertOpensLazily(t, dir)
	defer a2.Close()
	got, err := Snapshot(Archived(a2), sc.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("table-less fingerprint diverges:\n want: %+v\n got:  %+v", want, got)
	}
}

// TestCompactMetrics: the tier counters move exactly once per effective
// compaction.
func TestCompactMetrics(t *testing.T) {
	sc := Scenarios()[0]
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "arch")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos := a.Checkpointer().ImageInfos()
	mid := a.End - infos[len(infos)/2].Time
	a.Close()
	p := tier.Policy{Tiers: []tier.Tier{{MinAge: mid, KeepEvery: 2}}, Recompress: true}

	base := obs.Default.Snapshot()
	res, err := tier.Compact(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	d := obs.Default.Snapshot().Delta(base)
	if d.Counters["tier.compactions"] != 1 {
		t.Errorf("tier.compactions = %d, want 1", d.Counters["tier.compactions"])
	}
	if got := d.Counters["tier.checkpoints_dropped"]; got != uint64(res.Dropped) {
		t.Errorf("tier.checkpoints_dropped = %d, want %d", got, res.Dropped)
	}
	if got := d.Counters["tier.bytes_reclaimed"]; got != uint64(res.Reclaimed()) {
		t.Errorf("tier.bytes_reclaimed = %d, want %d", got, res.Reclaimed())
	}

	// A no-op compaction moves nothing.
	base = obs.Default.Snapshot()
	if _, err := tier.Compact(dir, p); err != nil {
		t.Fatal(err)
	}
	if n := obs.Default.Snapshot().Delta(base).Counters["tier.compactions"]; n != 0 {
		t.Errorf("skipped compaction still counted: %d", n)
	}
}
