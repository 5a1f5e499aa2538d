package e2e

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dejaview/internal/core"
	"dejaview/internal/failpoint"
)

// The fault-injection matrix runs over the richest scripted scenario
// (screentrack: three applications, file writes, an annotation, and live
// visual-history browsing), asserting the invariant *fail-closed, never
// corrupt* —
// a failed save leaves no partial record visible (no temp litter, a
// previous archive survives intact), a failed open or revive returns a
// wrapped error, and nothing ever panics or silently yields a shorter
// session.

// savePoints are the failpoints that can fire while writing an archive.
var savePoints = []struct {
	name string
	pol  failpoint.Policy
}{
	{"core/archive.save", failpoint.Policy{}},
	{"core/archive.save:index.dv", failpoint.Policy{}},
	{"core/archive.save:images.dv", failpoint.Policy{}},
	{"core/archive.save:fs.dv", failpoint.Policy{}},
	{"core/archive.save:archive.dv", failpoint.Policy{}},
	{"record/save:commands.dv", failpoint.Policy{}},
	{"record/save:screens.dv", failpoint.Policy{}},
	{"record/save:timeline.dv", failpoint.Policy{}},
	{"record/save:meta.dv", failpoint.Policy{}},
	{"vexec/images.save", failpoint.Policy{}},
	// Disk-level failures mid-stream: the write fails after some bytes
	// already landed in the temp file, fails with a short write, the
	// rename into place fails, or creating the second temp file fails.
	{"atomicfile/write", failpoint.Policy{AfterBytes: 512}},
	{"atomicfile/write", failpoint.Policy{Mode: failpoint.ModeShortWrite, Nth: 2}},
	{"atomicfile/rename", failpoint.Policy{}},
	{"atomicfile/rename", failpoint.Policy{Nth: 3}},
	{"atomicfile/create", failpoint.Policy{Nth: 2}},
	{"compress/writer", failpoint.Policy{AfterBytes: 256}},
}

// openPoints are the failpoints that can fire while reopening one.
var openPoints = []struct {
	name string
	pol  failpoint.Policy
}{
	{"core/archive.open", failpoint.Policy{}},
	{"core/archive.open:index.dv", failpoint.Policy{}},
	{"core/archive.open:images.dv", failpoint.Policy{}},
	{"core/archive.open:fs.dv", failpoint.Policy{}},
	{"record/open:meta.dv", failpoint.Policy{}},
	{"record/open:commands.dv", failpoint.Policy{}},
	{"record/open:timeline.dv", failpoint.Policy{}},
	{"record/open:screens.dv", failpoint.Policy{}},
	{"vexec/images.load", failpoint.Policy{}},
	// Disk-level read failures on compressed blocks: hard error
	// mid-stream, a flipped bit in the compressed container (the block
	// CRC or header check must catch it), and a silently short read.
	{"vexec/images.read", failpoint.Policy{AfterBytes: 128}},
	{"compress/readat", failpoint.Policy{AfterBytes: 64}},
	{"compress/readat", failpoint.Policy{Mode: failpoint.ModeCorrupt, AfterBytes: 96}},
	{"compress/readat", failpoint.Policy{Mode: failpoint.ModeShortWrite, AfterBytes: 512}},
}

// noTempLitter fails the test if any staging temp file survived under
// dir.
func noTempLitter(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("walk %s: %v", dir, err)
	}
}

// TestSaveFailClosed arms each save-side failpoint and asserts a failed
// SaveArchive (a) reports the injected error, (b) leaves no temp litter,
// (c) leaves nothing a later OpenArchive would mistake for an archive,
// and (d) when re-saving over a previous good archive, leaves that
// archive fully intact and equivalent.
func TestSaveFailClosed(t *testing.T) {
	sc, err := ScenarioByName("screentrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A known-good archive to re-save over, and its fingerprint.
	goodDir := filepath.Join(t.TempDir(), "good")
	if err := s.SaveArchive(goodDir); err != nil {
		t.Fatalf("SaveArchive: %v", err)
	}
	a, err := core.OpenArchive(goodDir)
	if err != nil {
		t.Fatalf("OpenArchive: %v", err)
	}
	want, err := Snapshot(Archived(a), sc.Queries)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	for _, fp := range savePoints {
		t.Run(fp.name+"/"+fp.pol.String(), func(t *testing.T) {
			defer failpoint.Reset()

			// Fresh-directory save must fail closed and leave nothing
			// openable behind.
			failpoint.Arm(fp.name, fp.pol)
			dir := filepath.Join(t.TempDir(), "archive")
			err := s.SaveArchive(dir)
			if err == nil {
				t.Fatalf("SaveArchive succeeded with %s armed", fp.name)
			}
			// ModeShortWrite surfaces as io.ErrShortWrite (a real disk
			// short write carries no sentinel); error mode must keep the
			// injected sentinel visible through every wrap layer.
			if fp.pol.Mode == failpoint.ModeError && !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("error does not wrap ErrInjected: %v", err)
			}
			if failpoint.Fired(fp.name) == 0 {
				t.Fatalf("failpoint %s never fired", fp.name)
			}
			failpoint.Reset()
			noTempLitter(t, dir)
			if _, err := core.OpenArchive(dir); err == nil {
				t.Error("partial archive opened successfully")
			}

			// Re-save over the good archive must leave it intact.
			failpoint.Arm(fp.name, fp.pol)
			if err := s.SaveArchive(goodDir); err == nil {
				t.Fatalf("re-save succeeded with %s armed", fp.name)
			}
			failpoint.Reset()
			noTempLitter(t, goodDir)
			a2, err := core.OpenArchive(goodDir)
			if err != nil {
				t.Fatalf("good archive no longer opens after failed re-save: %v", err)
			}
			got, err := Snapshot(Archived(a2), sc.Queries)
			if err != nil {
				t.Fatalf("snapshot after failed re-save: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("good archive changed under failed re-save:\n want: %+v\n got:  %+v", want, got)
			}
		})
	}
}

// TestOpenFailClosed arms each open-side failpoint against a good
// archive and asserts OpenArchive reports a non-nil error — never a
// panic, never a silently shorter or emptier session.
func TestOpenFailClosed(t *testing.T) {
	sc, err := ScenarioByName("screentrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "archive")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatalf("SaveArchive: %v", err)
	}

	for _, fp := range openPoints {
		t.Run(fp.name+"/"+fp.pol.String(), func(t *testing.T) {
			defer failpoint.Reset()
			failpoint.Arm(fp.name, fp.pol)
			a, err := core.OpenArchive(dir)
			if err == nil {
				t.Fatalf("OpenArchive succeeded with %s armed (checkpoints=%d)",
					fp.name, a.Checkpoints())
			}
			if failpoint.Fired(fp.name) == 0 {
				t.Fatalf("failpoint %s never fired", fp.name)
			}
			// Error modes must surface the injected sentinel through the
			// wrap chain; corruption modes surface as format errors
			// instead (the CRC or terminator catches them), so only the
			// error modes assert the chain.
			if fp.pol.Mode == failpoint.ModeError && !errors.Is(err, failpoint.ErrInjected) {
				t.Errorf("error does not wrap ErrInjected: %v", err)
			}
		})
	}

	// Unarmed control: the same archive still opens fine afterwards.
	failpoint.Reset()
	if _, err := core.OpenArchive(dir); err != nil {
		t.Fatalf("archive does not open after matrix: %v", err)
	}
}

// TestReviveFailClosed arms the revive failpoint and asserts TakeMeBack
// fails with a wrapped error on both the live session and the archive.
func TestReviveFailClosed(t *testing.T) {
	sc, err := ScenarioByName("screentrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "archive")
	if err := s.SaveArchive(dir); err != nil {
		t.Fatalf("SaveArchive: %v", err)
	}
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatalf("OpenArchive: %v", err)
	}

	defer failpoint.Reset()
	failpoint.Arm("core/revive", failpoint.Policy{})
	if _, err := s.TakeMeBack(s.Clock().Now()); !errors.Is(err, failpoint.ErrInjected) {
		t.Errorf("live revive: error does not wrap ErrInjected: %v", err)
	}
	if _, err := a.TakeMeBack(a.End); !errors.Is(err, failpoint.ErrInjected) {
		t.Errorf("archive revive: error does not wrap ErrInjected: %v", err)
	}
	failpoint.Reset()
	if _, err := a.TakeMeBack(a.End); err != nil {
		t.Errorf("revive still failing after disarm: %v", err)
	}
}

// TestRecordSaveFailClosed exercises the record store's own two-phase
// commit below the archive layer: a mid-write disk failure during
// record.Store.Save must leave the previous record directory fully
// readable and byte-identical.
func TestRecordSaveFailClosed(t *testing.T) {
	sc, err := ScenarioByName("screentrack")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(sc, core.Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "rec")
	st := s.Recorder().Store()
	if err := st.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	before := readAll(t, dir)

	defer failpoint.Reset()
	for _, name := range []string{"atomicfile/write", "atomicfile/rename"} {
		failpoint.Arm(name, failpoint.Policy{AfterBytes: 256})
		if err := st.Save(dir); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("%s: Save error = %v, want ErrInjected", name, err)
		}
		failpoint.Reset()
		noTempLitter(t, dir)
		if got := readAll(t, dir); !reflect.DeepEqual(before, got) {
			t.Errorf("%s: record files changed under failed re-save", name)
		}
	}
}

// readAll returns dir's regular files as name→contents.
func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		out[e.Name()] = string(b)
	}
	return out
}
