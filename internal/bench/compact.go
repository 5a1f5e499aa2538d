package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"dejaview/internal/core"
	"dejaview/internal/e2e"
	"dejaview/internal/obs"
	"dejaview/internal/record"
	"dejaview/internal/simclock"
	"dejaview/internal/tier"
)

// CompactRow is one scenario's tiered-lifecycle measurement: archive an
// e2e workload, time the lazy-vs-eager open split on the full archive,
// then time a thinning+recompressing compaction and report what it
// reclaimed.
type CompactRow struct {
	Scenario    string
	Checkpoints int
	// EagerOpenSeconds times core.OpenArchive followed by materializing
	// every stream (the whole screenshot log and every checkpoint page);
	// LazyOpenSeconds times core.OpenArchive alone, on the same
	// (uncompacted) archive. EagerBlocks / LazyBlocks are the compressed
	// blocks each decoded (compress.blocks_unpacked delta).
	EagerOpenSeconds float64
	LazyOpenSeconds  float64
	EagerBlocks      uint64
	LazyBlocks       uint64
	// Dropped is the number of checkpoints the compaction thinned away.
	Dropped int
	// CompactSeconds is the wall clock of the whole crash-safe
	// compaction (plan, rewrite, verify, commit).
	CompactSeconds float64
	// BytesBefore / BytesAfter are the archive's on-disk sizes around
	// the compaction.
	BytesBefore int64
	BytesAfter  int64
}

// ReclaimedBytes is the on-disk space the compaction freed.
func (r CompactRow) ReclaimedBytes() int64 {
	if d := r.BytesBefore - r.BytesAfter; d > 0 {
		return d
	}
	return 0
}

// CompactMBPerSec is compaction throughput over the input archive size.
func (r CompactRow) CompactMBPerSec() float64 {
	if r.CompactSeconds == 0 {
		return 0
	}
	return float64(r.BytesBefore) / 1e6 / r.CompactSeconds
}

// Compact is the `dvbench -compact` report.
type Compact struct {
	Rows []CompactRow
}

// RunCompact measures the tiered archive lifecycle per e2e scenario.
// Sessions record with frequent keyframes so the screenshot stream
// spans many blocks and the lazy-vs-eager split is visible; the
// compaction policy thins the older half of each chain at 1-in-2 and
// recompresses with the strongest codec.
func RunCompact(scenarios ...string) (*Compact, error) {
	out := &Compact{}
	for _, sc := range e2e.Scenarios() {
		if len(scenarios) > 0 && !containsName(scenarios, sc.Name) {
			continue
		}
		row, err := runCompactOnce(sc)
		if err != nil {
			return nil, fmt.Errorf("compact %s: %w", sc.Name, err)
		}
		out.Rows = append(out.Rows, row)
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("compact: no scenario matches %v", scenarios)
	}
	return out, nil
}

func runCompactOnce(sc *e2e.Scenario) (CompactRow, error) {
	row := CompactRow{Scenario: sc.Name}
	s, err := e2e.Build(sc, core.Config{Record: record.Options{
		ScreenshotInterval:  2 * simclock.Second,
		ScreenshotMinChange: 0.00001,
	}})
	if err != nil {
		return row, err
	}
	tmp, err := os.MkdirTemp("", "dvcompact")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "archive")
	if err := s.SaveArchive(dir); err != nil {
		return row, err
	}

	base := obs.Default.Snapshot()
	sec, err := hostSeconds(func() error {
		a, err := core.OpenArchive(dir)
		if err != nil {
			return err
		}
		defer a.Close()
		if err := a.Store.Materialize(); err != nil {
			return err
		}
		return a.Checkpointer().Materialize()
	})
	if err != nil {
		return row, err
	}
	row.EagerOpenSeconds = sec
	row.EagerBlocks = obs.Default.Snapshot().Delta(base).Counters["compress.blocks_unpacked"]

	var a *core.Archive
	base = obs.Default.Snapshot()
	sec, err = hostSeconds(func() error {
		var err error
		a, err = core.OpenArchive(dir)
		return err
	})
	if err != nil {
		return row, err
	}
	row.LazyOpenSeconds = sec
	row.LazyBlocks = obs.Default.Snapshot().Delta(base).Counters["compress.blocks_unpacked"]

	infos := a.Checkpointer().ImageInfos()
	row.Checkpoints = len(infos)
	if len(infos) < 2 {
		a.Close()
		return row, fmt.Errorf("scenario produced %d checkpoints", len(infos))
	}
	mid := a.End - infos[len(infos)/2].Time
	a.Close()

	var res tier.Result
	sec, err = hostSeconds(func() error {
		var err error
		res, err = tier.Compact(dir, tier.Policy{
			Tiers:      []tier.Tier{{MinAge: mid, KeepEvery: 2}},
			Recompress: true,
		})
		return err
	})
	if err != nil {
		return row, err
	}
	row.CompactSeconds = sec
	row.Dropped = res.Dropped
	row.BytesBefore = res.BytesBefore
	row.BytesAfter = res.BytesAfter
	return row, nil
}

// Render prints the lifecycle table.
func (c *Compact) Render() string {
	t := &table{header: []string{"Scenario", "Ckpts", "Eager ms", "Lazy ms",
		"Eager blk", "Lazy blk", "Compact ms", "MB/s", "Dropped", "Before KB", "After KB"}}
	for _, r := range c.Rows {
		t.add(r.Scenario,
			fmt.Sprintf("%d", r.Checkpoints),
			fmt.Sprintf("%.1f", r.EagerOpenSeconds*1e3),
			fmt.Sprintf("%.1f", r.LazyOpenSeconds*1e3),
			fmt.Sprintf("%d", r.EagerBlocks),
			fmt.Sprintf("%d", r.LazyBlocks),
			fmt.Sprintf("%.1f", r.CompactSeconds*1e3),
			fmt.Sprintf("%.1f", r.CompactMBPerSec()),
			fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%.1f", float64(r.BytesBefore)/1e3),
			fmt.Sprintf("%.1f", float64(r.BytesAfter)/1e3))
	}
	return "Compact: tiered archive lifecycle (lazy vs eager open, thinning compaction)\n" + t.String()
}

// Report flattens the compact experiment. Block counts are
// deterministic; times are gated only for gross regressions.
func (c *Compact) Report() *Report {
	r := &Report{Name: "compact"}
	for _, row := range c.Rows {
		p := "compact/" + row.Scenario + "/"
		r.Metrics = append(r.Metrics,
			Metric{Name: p + "checkpoints", Value: float64(row.Checkpoints), Unit: "count"},
			Metric{Name: p + "eager_open_ms", Value: row.EagerOpenSeconds * 1e3, Unit: "ms", Better: BetterLower},
			Metric{Name: p + "lazy_open_ms", Value: row.LazyOpenSeconds * 1e3, Unit: "ms", Better: BetterLower},
			Metric{Name: p + "eager_blocks", Value: float64(row.EagerBlocks), Unit: "count"},
			Metric{Name: p + "lazy_blocks", Value: float64(row.LazyBlocks), Unit: "count", Better: BetterLower},
			Metric{Name: p + "compact_ms", Value: row.CompactSeconds * 1e3, Unit: "ms", Better: BetterLower},
			Metric{Name: p + "compact_mb_per_sec", Value: row.CompactMBPerSec(), Unit: "MB/s", Better: BetterHigher},
			Metric{Name: p + "dropped", Value: float64(row.Dropped), Unit: "count"},
			Metric{Name: p + "bytes_before", Value: float64(row.BytesBefore), Unit: "bytes"},
			Metric{Name: p + "bytes_after", Value: float64(row.BytesAfter), Unit: "bytes", Better: BetterLower},
			Metric{Name: p + "reclaimed_bytes", Value: float64(row.ReclaimedBytes()), Unit: "bytes", Better: BetterHigher},
		)
	}
	return r
}
