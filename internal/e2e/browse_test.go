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
)

// Visual-history browsing proofs over the ScreenTrack scenario: the
// thumbnail strip and resolved views are identical live, archived, and
// on pre-block-table archives; and the archive's shared decoded-block
// cache holds exact accounting — repeated seeks over a cold archive
// decode each block at most once while within budget, and a starved
// budget degrades to extra decodes, never to errors or different pixels.

// buildScreenTrack runs the scripted ScreenTrack scenario with frequent
// keyframes so the strip has real length (the default one-keyframe-per-
// 10-minutes policy would give an 18 s session a single thumbnail).
func buildScreenTrack(t *testing.T) (*core.Session, *Scenario) {
	t.Helper()
	sc, err := ScenarioByName("screentrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(sc, core.Config{Record: record.Options{
		ScreenshotInterval:  2 * simclock.Second,
		ScreenshotMinChange: 0.00001,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s, sc
}

// browseSeek is one time-machine pass: render the full strip, resolve
// every thumbnail, and revive each distinct checkpoint the views point
// at (revives are what demand-page checkpoint images through the block
// cache). The returned hashes pin every pixel the pass produced.
func browseSeek(a *core.Archive) ([]uint64, error) {
	thumbs, err := a.BrowseTimeline(16, 16, 1)
	if err != nil {
		return nil, err
	}
	var hashes []uint64
	revived := map[uint64]bool{}
	for _, th := range thumbs {
		hashes = append(hashes, th.Image.Hash())
		v, err := a.ResolveThumb(th.Index)
		if err != nil {
			return nil, err
		}
		hashes = append(hashes, v.Screen.Hash())
		if v.HasCheckpoint && !revived[v.Checkpoint] {
			revived[v.Checkpoint] = true
			if _, err := a.ReviveCheckpoint(v.Checkpoint); err != nil {
				return nil, err
			}
		}
	}
	return hashes, nil
}

// cachedStreams are the archive streams read through the shared block
// cache; index.dv and fs.dv are read whole at open.
var cachedStreams = []string{
	core.ArchiveImagesFile,
	filepath.Join(core.ArchiveRecordDir, "commands.dv"),
	filepath.Join(core.ArchiveRecordDir, "screens.dv"),
	filepath.Join(core.ArchiveRecordDir, "timeline.dv"),
}

// archiveBlocks counts the distinct compressed blocks across every
// stream the shared cache serves — the hard ceiling on cache misses.
func archiveBlocks(t *testing.T, dir string) uint64 {
	t.Helper()
	return streamBlocks(t, dir, cachedStreams...)
}

// allArchiveBlocks counts the compressed blocks of every archive
// stream: what decoding the whole archive costs.
func allArchiveBlocks(t *testing.T, dir string) uint64 {
	t.Helper()
	return archiveBlocks(t, dir) + streamBlocks(t, dir, core.ArchiveIndexFile, core.ArchiveFSFile)
}

// streamBlocks sums the compressed blocks of the named archive streams.
func streamBlocks(t *testing.T, dir string, names ...string) uint64 {
	t.Helper()
	var total uint64
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		ff, err := compress.OpenFrameBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += uint64(ff.NumBlocks())
	}
	return total
}

// assertOpensLazily opens the archive at dir and checks the open decoded
// only part of it, with demand loads counted on core.lazy_block_loads.
func assertOpensLazily(t *testing.T, dir string) *core.Archive {
	t.Helper()
	base := obs.Default.Snapshot()
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatalf("archive does not open: %v", err)
	}
	d := obs.Default.Snapshot().Delta(base)
	if d.Counters["core.lazy_block_loads"] == 0 {
		t.Error("open recorded no demand loads")
	}
	if got, total := d.Counters["compress.blocks_unpacked"], allArchiveBlocks(t, dir); got >= total {
		t.Errorf("open decoded %d of the archive's %d blocks: it is not lazy", got, total)
	}
	return a
}

// TestBrowseStripShape: the strip over a ScreenTrack run has one thumb
// per keyframe at the requested size, and every resolved view carries a
// screen, the visible documents, and (past the first checkpoint) a
// revival target.
func TestBrowseStripShape(t *testing.T) {
	s, _ := buildScreenTrack(t)
	thumbs, err := s.BrowseTimeline(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(thumbs) < 5 {
		t.Fatalf("strip has %d thumbs; keyframe policy gave nothing to browse", len(thumbs))
	}
	for _, th := range thumbs {
		if w, h := th.Image.Size(); w != 16 || h != 16 {
			t.Fatalf("thumb %d is %dx%d, want 16x16", th.Index, w, h)
		}
		if th.Until < th.Time {
			t.Fatalf("thumb %d range [%d,%d) is negative", th.Index, th.Time, th.Until)
		}
	}
	last, err := s.ResolveThumb(thumbs[len(thumbs)-1].Index)
	if err != nil {
		t.Fatal(err)
	}
	if last.Screen == nil {
		t.Fatal("resolved view has no screen")
	}
	if len(last.Visible) == 0 {
		t.Error("resolved view lists no visible documents")
	}
	if !last.HasCheckpoint {
		t.Error("late view has no revival checkpoint")
	}
}

// TestTableLessBrowseParity (v1-on-disk compatibility): stripping the
// block tables — the exact shape of archives saved before the table
// existed — still opens lazily (the frames are indexed by their block
// headers), and ScreenTrack browsing over it yields a byte-identical
// fingerprint and pixels.
func TestTableLessBrowseParity(t *testing.T) {
	s, sc := buildScreenTrack(t)
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
	wantSeek, err := browseSeek(a)
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
		t.Errorf("table-less browse fingerprint diverges:\n want: %+v\n got:  %+v", want, got)
	}
	gotSeek, err := browseSeek(a2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSeek, wantSeek) {
		t.Error("table-less browse pass renders different pixels")
	}
}

// TestBrowseBlockCacheMetrics is the metrics-regression proof for the
// demand-page block cache: over a cold archive, an open plus a full
// browse pass decodes at most one miss per distinct on-disk block and
// serves page-granular rereads as hits; repeated passes add zero misses;
// a budget below one seek's working set degrades to more misses with the
// same pixels and no errors; and disabling the cache leaves the shared
// counters untouched.
func TestBrowseBlockCacheMetrics(t *testing.T) {
	s, _ := buildScreenTrack(t)
	dir := filepath.Join(t.TempDir(), "arch")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	distinct := archiveBlocks(t, dir)

	// Cold pass under the default budget.
	base := obs.Default.Snapshot()
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := browseSeek(a)
	if err != nil {
		t.Fatal(err)
	}
	d1 := obs.Default.Snapshot().Delta(base)
	misses1 := d1.Counters["core.block_cache_misses"]
	hits1 := d1.Counters["core.block_cache_hits"]
	if misses1 == 0 || hits1 == 0 {
		t.Fatalf("cold pass: %d misses %d hits; cache instrumentation dead", misses1, hits1)
	}
	if misses1 > distinct {
		t.Errorf("cold pass took %d misses over %d distinct blocks: some block decoded twice within budget",
			misses1, distinct)
	}
	// Every demand decode must route through the shared cache: a miss
	// and a lazy load are the same event, so the counters move together.
	if lazy := d1.Counters["core.lazy_block_loads"]; lazy != misses1 {
		t.Errorf("%d lazy loads but %d cache misses: a stream bypasses the shared cache", lazy, misses1)
	}
	if ev := d1.Counters["core.block_cache_evicted_bytes"]; ev != 0 {
		t.Errorf("default budget evicted %d bytes on a small archive", ev)
	}

	// Warm passes: every block is already decoded, so N more full seek
	// passes add no misses and render identical pixels.
	const warmPasses = 3
	for i := 0; i < warmPasses; i++ {
		warm, err := browseSeek(a)
		if err != nil {
			t.Fatalf("warm pass %d: %v", i, err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("warm pass %d renders different pixels", i)
		}
	}
	dN := obs.Default.Snapshot().Delta(base)
	if got := dN.Counters["core.block_cache_misses"]; got != misses1 {
		t.Errorf("%d warm passes grew misses %d -> %d: blocks re-decoded while within budget",
			warmPasses, misses1, got)
	}

	// The archive's local stats must agree with the global counters.
	st := a.BlockCacheStats()
	if st.Misses != misses1 {
		t.Errorf("BlockCacheStats.Misses = %d, counters saw %d", st.Misses, misses1)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Errorf("cache over budget: %d > %d", st.UsedBytes, st.BudgetBytes)
	}
	a.Close()

	// Starved budget, below even one decoded block: every access
	// re-decodes (strictly more misses), but the pass still renders the
	// exact same pixels and returns no errors.
	base = obs.Default.Snapshot()
	a2, err := core.OpenArchiveWith(dir, core.OpenOptions{CacheBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := browseSeek(a2)
	if err != nil {
		t.Fatalf("starved-budget pass failed: %v", err)
	}
	if !reflect.DeepEqual(tiny, cold) {
		t.Error("starved-budget pass renders different pixels")
	}
	d2 := obs.Default.Snapshot().Delta(base)
	if got := d2.Counters["core.block_cache_misses"]; got <= misses1 {
		t.Errorf("starved budget took %d misses, default budget %d: degradation invisible", got, misses1)
	}
	if st := a2.BlockCacheStats(); st.UsedBytes > 4096 {
		t.Errorf("starved cache holds %d bytes over its 4096 budget", st.UsedBytes)
	}
	a2.Close()

	// Caching disabled: reads stay correct, the shared counters stay
	// still, and the stats report an absent cache.
	base = obs.Default.Snapshot()
	a3, err := core.OpenArchiveWith(dir, core.OpenOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := browseSeek(a3)
	if err != nil {
		t.Fatalf("cache-disabled pass failed: %v", err)
	}
	if !reflect.DeepEqual(off, cold) {
		t.Error("cache-disabled pass renders different pixels")
	}
	d3 := obs.Default.Snapshot().Delta(base)
	if h, m := d3.Counters["core.block_cache_hits"], d3.Counters["core.block_cache_misses"]; h != 0 || m != 0 {
		t.Errorf("disabled cache still counted %d hits %d misses", h, m)
	}
	if st := a3.BlockCacheStats(); st.BudgetBytes != 0 {
		t.Errorf("disabled cache reports budget %d", st.BudgetBytes)
	}
	a3.Close()
}
