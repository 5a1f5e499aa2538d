// Command dvgc runs the tiered archive lifecycle by hand: it compacts
// (or, with -dry-run, inspects) saved session archives, applying
// age-tiered checkpoint thinning, retention quotas, and cold-stream
// recompression with the same crash-safe machinery the dvserve daemon
// uses in the background (internal/tier).
//
// Usage:
//
//	dvgc -dry-run /archives/monday
//	dvgc -keep "1h:10,24h:60" -max-bytes 2147483648 /archives/*
//	dvgc -max-age 30d -recompress=false /archives/monday
//
// A dry run prints the plan — per-tier checkpoint counts, reclaimable
// bytes, and each stream's codec block distribution — without touching
// the archive. A real run first completes any compaction a previous
// crash left half-committed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dejaview/internal/compress"
	"dejaview/internal/core"
	"dejaview/internal/simclock"
	"dejaview/internal/tier"
)

func main() {
	dryRun := flag.Bool("dry-run", false, "plan and report without rewriting anything")
	keep := flag.String("keep", "1h:10,24h:60",
		"age-tiered thinning rules, comma-separated <min-age>:<keep-every> (empty = no thinning)")
	maxAge := flag.String("max-age", "", "evict checkpoints older than this (e.g. 30d; empty = no limit)")
	maxBytes := flag.Int64("max-bytes", 0, "evict oldest checkpoints past this logical size (0 = no limit)")
	recompress := flag.Bool("recompress", true, "rewrite streams with the strongest codec")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dvgc: no archive directories given")
		flag.Usage()
		os.Exit(2)
	}
	p, err := policyFromFlags(*keep, *maxAge, *maxBytes, *recompress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvgc:", err)
		os.Exit(2)
	}

	failed := false
	for _, dir := range flag.Args() {
		if err := one(dir, p, *dryRun); err != nil {
			fmt.Fprintf(os.Stderr, "dvgc: %s: %v\n", dir, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func policyFromFlags(keep, maxAge string, maxBytes int64, recompress bool) (tier.Policy, error) {
	p := tier.Policy{MaxBytes: maxBytes, Recompress: recompress}
	var err error
	if p.Tiers, err = tier.ParseTiers(keep); err != nil {
		return p, err
	}
	if maxAge != "" {
		if p.MaxAge, err = tier.ParseAge(maxAge); err != nil {
			return p, err
		}
	}
	return p, nil
}

func one(dir string, p tier.Policy, dryRun bool) error {
	if dryRun {
		return inspect(dir, p)
	}
	res, err := tier.Compact(dir, p)
	if err != nil {
		return err
	}
	switch {
	case res.Skipped:
		fmt.Printf("%s: nothing to do\n", dir)
	default:
		fmt.Printf("%s: dropped %d checkpoints, %d record entries; %d -> %d bytes (%d reclaimed, recompressed=%v)\n",
			dir, res.Dropped, res.RecordDropped, res.BytesBefore, res.BytesAfter,
			res.Reclaimed(), res.Recompressed)
	}
	return nil
}

func inspect(dir string, p tier.Policy) error {
	a, err := core.OpenArchive(dir)
	if err != nil {
		return err
	}
	defer a.Close()
	infos := a.Checkpointer().ImageInfos()
	pl := p.Plan(infos, a.End)
	fmt.Printf("%s: %d checkpoints, %v of history; plan: %s\n",
		dir, len(infos), a.End, pl.String())
	for _, ts := range pl.PerTier {
		rule := "keep all"
		if ts.KeepEvery > 1 {
			rule = fmt.Sprintf("keep 1/%d", ts.KeepEvery)
		}
		fmt.Printf("  tier age>=%-8s %-10s %3d seen, %3d kept\n",
			fmtAge(ts.MinAge), rule, ts.Seen, ts.Kept)
	}
	if pl.DropRecordBefore > 0 {
		fmt.Printf("  record history before %v would be truncated\n", pl.DropRecordBefore)
	}
	fmt.Println("  codec distribution:")
	streams := []string{core.ArchiveIndexFile, core.ArchiveImagesFile, core.ArchiveFSFile}
	recDir := filepath.Join(dir, core.ArchiveRecordDir)
	if ents, err := os.ReadDir(recDir); err == nil {
		for _, e := range ents {
			streams = append(streams, filepath.Join(core.ArchiveRecordDir, e.Name()))
		}
	}
	for _, name := range streams {
		fmt.Printf("    %-22s %s\n", name, codecLine(filepath.Join(dir, name)))
	}
	return nil
}

func codecLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	ff, err := compress.OpenStream(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return "corrupt frame: " + err.Error()
	}
	if !ff.Framed() {
		return fmt.Sprintf("raw v1 (%d bytes)", len(b))
	}
	st := ff.Stats()
	line := fmt.Sprintf("%d blocks:", st.Blocks)
	for _, name := range []string{"raw", "lzs", "flate"} {
		if n := st.PerCodec[name]; n > 0 {
			line += fmt.Sprintf(" %d %s", n, name)
		}
	}
	if compress.HasBlockTable(b) {
		line += " (seekable)"
	}
	return line
}

func fmtAge(t simclock.Time) string {
	switch {
	case t == 0:
		return "0"
	case t%(24*simclock.Hour) == 0:
		return fmt.Sprintf("%dd", t/(24*simclock.Hour))
	case t%simclock.Hour == 0:
		return fmt.Sprintf("%dh", t/simclock.Hour)
	case t%simclock.Minute == 0:
		return fmt.Sprintf("%dm", t/simclock.Minute)
	default:
		return fmt.Sprintf("%ds", t/simclock.Second)
	}
}
